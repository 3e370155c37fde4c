(** Hereditary substitution (§3, §3.1.3).

    Applying a substitution to a canonical form can create β-redexes
    ([(λx.M) N]) and block projections of tuples ([⟦M⃗/b⟧(b.k)]); hereditary
    substitution resolves both on the fly so that the result is again
    canonical — e.g. [(λy.y)/x](x 0) yields [0], never [(λy.y) 0].

    Substitutions are simultaneous ({!Belr_syntax.Lf.sub}).  The functions
    here terminate on all well-typed inputs (the standard induction on
    erased simple types); a depth guard ({!Belr_support.Limits}, the CLI's
    [--max-depth]) turns accidental divergence on ill-typed inputs into
    the recoverable [E0901] resource diagnostic instead of a hang or a
    [Stack_overflow].

    PR 4 layers two caches over the traversal, both powered by the
    hash-consing store ({!Belr_syntax.Store}):

    - {e mfi skip}: a term whose max-free-index bound is [0] is closed, so
      any substitution returns it unchanged — no traversal;
    - {e memoization}: [sub_normal]/[sub_typ]/[sub_srt] results are cached
      in bounded direct-mapped tables keyed on [(sub id, node id)].  Ids
      are unique, monotone, and never reused, and interned nodes are
      immutable, so a hit is always sound.  The memo is consulted first
      (one array read), the mfi bound on a cold slot, so repeated closed
      instantiations count as hits too.  The tables hold results (strong
      references); they are bounded, and {!clear_memo} drops them
      wholesale. *)

open Belr_support
open Belr_syntax
open Lf

let depth = Limits.counter "hereditary substitution"

let guard f = Limits.guard depth f

(* Telemetry: operation counters for the --stats/--profile reports.  Hot
   path — only {!Telemetry.bump} (a flag check and an integer store) is
   allowed here, never spans. *)

let c_subst = Telemetry.counter "hsub.substitutions"

let c_beta = Telemetry.counter "hsub.beta_redexes"

let c_proj = Telemetry.counter "hsub.tuple_projections"

let c_inst = Telemetry.counter "hsub.instantiations"

(* --- substitution memo table ------------------------------------------ *)

(* Direct-mapped cache: (sub id, normal id) ↦ result.  Collisions
   overwrite (bounded memory); plain int counters so `--kernel-stats`
   works without enabling telemetry recording. *)

let memo_bits = 14

let memo_size = 1 lsl memo_bits

(** The memo world: three direct-mapped caches and their hit counters.
    Per-session in the daemon ({!use_tables}, installed in lock-step with
    the {!Belr_syntax.Store} state by [Belr_lf.Session]) so one session's
    cached substitution results and statistics can never leak into
    another; batch runs live in the boot tables and never notice. *)
type tables = {
  tb_normal : (int * int * normal) option array;
  tb_typ : (int * int * typ) option array;
      (* types and sorts are instantiated by the checkers at least as
         often as terms (every dependent application), so they get their
         own caches *)
  tb_srt : (int * int * srt) option array;
  mutable tb_hits : int;
  mutable tb_misses : int;
  mutable tb_mfi_skips : int;
}

let fresh_tables () =
  {
    tb_normal = Array.make memo_size None;
    tb_typ = Array.make memo_size None;
    tb_srt = Array.make memo_size None;
    tb_hits = 0;
    tb_misses = 0;
    tb_mfi_skips = 0;
  }

let current = ref (fresh_tables ())

(** Install [t] as the memo world for subsequent substitutions. *)
let use_tables t = current := t

let current_tables () = !current

let clear_memo () =
  let t = !current in
  Array.fill t.tb_normal 0 memo_size None;
  Array.fill t.tb_typ 0 memo_size None;
  Array.fill t.tb_srt 0 memo_size None

type memo_stats = { ms_hits : int; ms_misses : int; ms_mfi_skips : int }

let memo_stats () =
  let t = !current in
  {
    ms_hits = t.tb_hits;
    ms_misses = t.tb_misses;
    ms_mfi_skips = t.tb_mfi_skips;
  }

let memo_hit_rate () =
  let t = !current in
  let total = t.tb_hits + t.tb_misses in
  if total = 0 then 0.0 else float_of_int t.tb_hits /. float_of_int total

let memo_slot ks km = (((ks * 0x9e3779b1) lxor km) land max_int) land (memo_size - 1)

(** Result of pushing a substitution into a head. *)
type head_result =
  | Rhead of head  (** still a head *)
  | Rnorm of normal  (** the head was replaced by a normal term *)
  | Rtup of tuple  (** a block variable was replaced by a tuple *)

let rec lookup (s : sub) (i : int) : head_result =
  match s with
  | Empty ->
      Error.violation "substitution lookup: variable %d under empty substitution" i
  | Shift n -> Rhead (mk_bvar (i + n))
  | Dot (f, s') ->
      if i = 1 then
        match f with
        | Obj m -> Rnorm m
        | Tup t -> Rtup t
        | Undef ->
            Error.raise_msg "substitution lookup hit an undefined entry"
      else lookup s' (i - 1)

(** [norm_head h] views a bare-variable normal back as a head (fronts may
    store η-short whole-block references; see [Hsub] invariants). *)
let norm_as_head = function
  | Root (h, []) -> Some h
  | _ -> None

let rec sub_head (s : sub) (h : head) : head_result =
  match h with
  | Const _ -> Rhead h
  | BVar i -> lookup s i
  | PVar (p, sp) -> Rhead (mk_pvar p (comp sp s))
  | MVar (u, su) -> Rhead (mk_mvar u (comp su s))
  | Proj (b, k) -> (
      match sub_head s b with
      | Rhead b' -> Rhead (mk_proj b' k)
      | Rtup t -> (
          Telemetry.bump c_proj;
          match List.nth_opt t (k - 1) with
          | Some m -> Rnorm m
          | None -> Error.violation "projection %d out of tuple range" k)
      | Rnorm m -> (
          match norm_as_head m with
          | Some b' -> Rhead (mk_proj b' k)
          | None ->
              Error.violation
                "projection base was substituted by a non-variable term"))

and sub_normal (s : sub) (m : normal) : normal =
  match s with
  | Shift 0 -> m (* identity: frequent fast path *)
  | _ ->
      let t = !current in
      let ks = sub_id s and km = normal_id m in
      let i = memo_slot ks km in
      match t.tb_normal.(i) with
      | Some (ks', km', r) when ks' = ks && km' = km ->
          t.tb_hits <- t.tb_hits + 1;
          r
      | _ ->
          t.tb_misses <- t.tb_misses + 1;
          let r =
            if mfi_normal m = 0 then begin
              (* closed term: no substitution can touch it *)
              t.tb_mfi_skips <- t.tb_mfi_skips + 1;
              m
            end
            else sub_normal_work s m
          in
          t.tb_normal.(i) <- Some (ks, km, r);
          r

and sub_normal_work (s : sub) (m : normal) : normal =
  Fault.hit "hsub";
  Telemetry.bump c_subst;
  match m with
  | Lam (x, n) -> mk_lam x (sub_normal (dot1 s) n)
  | Root (h, sp) -> (
      let sp' = sub_spine s sp in
      match sub_head s h with
      | Rhead h' -> mk_root h' sp'
      | Rnorm n -> guard (fun () -> reduce n sp')
      | Rtup _ ->
          Error.violation "block variable used as a term (missing projection)")

and sub_spine s sp = List.map (sub_normal s) sp

and sub_front s = function
  | Obj m -> Obj (sub_normal s m)
  | Tup t -> Tup (List.map (sub_normal s) t)
  | Undef -> Undef

(** [comp s1 s2] is the substitution applying [s1] first and then [s2]
    (i.e. [sub_normal (comp s1 s2) m = sub_normal s2 (sub_normal s1 m)]). *)
and comp (s1 : sub) (s2 : sub) : sub =
  match (s1, s2) with
  | Empty, _ -> s1
  | Shift 0, _ -> s2
  | _, Shift 0 -> s1 (* right identity: skip rebuilding s1 *)
  | Shift n, Dot (_, s2') -> comp (mk_shift (n - 1)) s2'
  | Shift n, Shift m -> mk_shift (n + m)
  | Shift _, Empty ->
      (* only reachable when the common context is itself empty *)
      s2
  | Dot (f, s1'), _ -> mk_dot (sub_front s2 f) (comp s1' s2)

(** Extend a substitution under one binder: [dot1 σ = (1 . σ ∘ ↑)]. *)
and dot1 (s : sub) : sub =
  match s with
  | Shift 0 -> s
  | _ -> mk_dot (Obj (bvar 1)) (comp s (mk_shift 1))

(** β-reduce a normal applied to a spine (the hereditary step). *)
and reduce (m : normal) (sp : spine) : normal =
  match (m, sp) with
  | _, [] -> m
  | Lam (_, body), n :: rest ->
      Telemetry.bump c_beta;
      guard (fun () -> reduce (sub_normal (dot_obj n (mk_shift 0)) body) rest)
  | Root _, _ -> app_spine m sp

(** [shift_head n h] renames [h] by [↑ⁿ]; a renaming never replaces a head
    by a term. *)
let shift_head n (h : head) : head =
  match sub_head (mk_shift n) h with
  | Rhead h' -> h'
  | Rnorm _ | Rtup _ -> Error.violation "renaming replaced a head"

(* --- types, sorts, kinds --------------------------------------------- *)

let rec sub_typ (s : sub) (a : typ) : typ =
  match s with
  | Shift 0 -> a
  | _ ->
      let t = !current in
      let ks = sub_id s and ka = typ_id a in
      let i = memo_slot ks ka in
      match t.tb_typ.(i) with
      | Some (ks', ka', r) when ks' = ks && ka' = ka ->
          t.tb_hits <- t.tb_hits + 1;
          r
      | _ ->
          t.tb_misses <- t.tb_misses + 1;
          let r =
            if mfi_typ a = 0 then begin
              t.tb_mfi_skips <- t.tb_mfi_skips + 1;
              a
            end
            else sub_typ_work s a
          in
          t.tb_typ.(i) <- Some (ks, ka, r);
          r

and sub_typ_work (s : sub) (a : typ) : typ =
  match a with
  | Atom (p, sp) -> mk_atom p (sub_spine s sp)
  | Pi (x, a1, b) -> mk_pi x (sub_typ s a1) (sub_typ (dot1 s) b)

let rec sub_srt (s : sub) (q : srt) : srt =
  match s with
  | Shift 0 -> q
  | _ ->
      let t = !current in
      let ks = sub_id s and kq = srt_id q in
      let i = memo_slot ks kq in
      match t.tb_srt.(i) with
      | Some (ks', kq', r) when ks' = ks && kq' = kq ->
          t.tb_hits <- t.tb_hits + 1;
          r
      | _ ->
          t.tb_misses <- t.tb_misses + 1;
          let r =
            if mfi_srt q = 0 then begin
              t.tb_mfi_skips <- t.tb_mfi_skips + 1;
              q
            end
            else sub_srt_work s q
          in
          t.tb_srt.(i) <- Some (ks, kq, r);
          r

and sub_srt_work (s : sub) (q : srt) : srt =
  match q with
  | SAtom (c, sp) -> mk_satom c (sub_spine s sp)
  | SEmbed (a, sp) -> mk_sembed a (sub_spine s sp)
  | SPi (x, s1, s2) -> mk_spi x (sub_srt s s1) (sub_srt (dot1 s) s2)

let rec sub_kind (s : sub) : kind -> kind = function
  | Ktype -> Ktype
  | Kpi (x, a, k) -> Kpi (x, sub_typ s a, sub_kind (dot1 s) k)

let rec sub_skind (s : sub) : skind -> skind = function
  | Ksort -> Ksort
  | Kspi (x, q, l) -> Kspi (x, sub_srt s q, sub_skind (dot1 s) l)

(** Instantiate the body of a binder with one argument:
    [inst body n = [n/1] body].  These are the checkers' entry points into
    hereditary substitution (one per dependent application checked), so
    they carry their own telemetry counter. *)
let inst_normal (body : normal) (n : normal) : normal =
  Telemetry.bump c_inst;
  sub_normal (dot_obj n (mk_shift 0)) body

let inst_srt (body : srt) (n : normal) : srt =
  Telemetry.bump c_inst;
  sub_srt (dot_obj n (mk_shift 0)) body

let inst_kind (body : kind) (n : normal) : kind =
  Telemetry.bump c_inst;
  sub_kind (dot_obj n (mk_shift 0)) body

let inst_skind (body : skind) (n : normal) : skind =
  Telemetry.bump c_inst;
  sub_skind (dot_obj n (mk_shift 0)) body

(* --- blocks and schema elements --------------------------------------- *)

(** Substitute into a block: component [k] is under [k-1] extra binders. *)
let sub_block (s : sub) (b : Ctxs.block) : Ctxs.block =
  let rec go s = function
    | [] -> []
    | (x, a) :: rest -> (x, sub_typ s a) :: go (dot1 s) rest
  in
  go s b

let sub_sblock (s : sub) (b : Ctxs.sblock) : Ctxs.sblock =
  let rec go s = function
    | [] -> []
    | (x, q) :: rest -> (x, sub_srt s q) :: go (dot1 s) rest
  in
  go s b

let sub_elem (s : sub) (e : Ctxs.elem) : Ctxs.elem =
  (* parameters first-to-last, each under the previous ones *)
  let rec params s = function
    | [] -> (s, [])
    | (x, a) :: rest ->
        let a' = sub_typ s a in
        let s' = dot1 s in
        let s'', ps = params s' rest in
        (s'', (x, a') :: ps)
  in
  let s', ps = params s e.Ctxs.e_params in
  { e with Ctxs.e_params = ps; Ctxs.e_block = sub_block s' e.Ctxs.e_block }

let sub_selem (s : sub) (f : Ctxs.selem) : Ctxs.selem =
  let rec params s = function
    | [] -> (s, [])
    | (x, q) :: rest ->
        let q' = sub_srt s q in
        let s' = dot1 s in
        let s'', ps = params s' rest in
        (s'', (x, q') :: ps)
  in
  let s', ps = params s f.Ctxs.f_params in
  { f with Ctxs.f_params = ps; Ctxs.f_block = sub_sblock s' f.Ctxs.f_block }

(** Instantiate a schema element's parameters with concrete terms,
    yielding the block of declarations [D] with [Ω ⊢ M⃗ : F > D] (§3.1.2).
    [ms] lists instantiations for the parameters in declaration order and
    must live in the context where the block will be used. *)
let inst_block (e : Ctxs.elem) (ms : normal list) : Ctxs.block =
  if List.length e.Ctxs.e_params <> List.length ms then
    Error.raise_msg "schema element applied to %d arguments, expected %d"
      (List.length ms)
      (List.length e.Ctxs.e_params);
  (* Build σ mapping the innermost parameter (index 1) to the last
     instantiation. *)
  let s = List.fold_left (fun acc m -> dot_obj m acc) (mk_shift 0) ms in
  sub_block s e.Ctxs.e_block

let inst_sblock (f : Ctxs.selem) (ms : normal list) : Ctxs.sblock =
  if List.length f.Ctxs.f_params <> List.length ms then
    Error.raise_msg "schema element applied to %d arguments, expected %d"
      (List.length ms)
      (List.length f.Ctxs.f_params);
  let s = List.fold_left (fun acc m -> dot_obj m acc) (mk_shift 0) ms in
  sub_sblock s f.Ctxs.f_block

(* Contribute the memo numbers to the same "store" section as the arena
   stats from Belr_syntax.Store (sections with one name are merged). *)
let () =
  Telemetry.register_section "store" (fun () ->
      let t = !current in
      [
        ("memo_hits", Json.Int t.tb_hits);
        ("memo_misses", Json.Int t.tb_misses);
        ("memo_hit_rate", Json.Float (memo_hit_rate ()));
        ("mfi_skips", Json.Int t.tb_mfi_skips);
      ])
