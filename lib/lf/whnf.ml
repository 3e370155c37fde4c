(** Lazy weak-head normalization through explicit substitutions.

    The eager kernel ({!Hsub}) computes full normal forms: substituting
    into a term traverses {e all} of it, even when the consumer only
    wants to know whether the head is a [Lam] or which constant heads a
    [Root].  This module pairs interned store nodes with {e delayed}
    substitutions — closures [(M, σ)] denoting [⟦σ⟧M] — and exposes only
    as much structure as a weak-head consumer inspects:

    - {!whnf_normal} reveals the top constructor of [⟦σ⟧M], performing
      β-contractions hereditarily at the head but leaving every argument
      as an un-substituted closure;
    - {!whnf_typ}/{!whnf_srt} are O(1): type- and sort-level syntax has
      no redexes, so a pending substitution never changes the top
      constructor;
    - {!conv_normal}/{!conv_typ}/{!conv_srt}/{!conv_spine} decide
      definitional equality of closures by comparing weak-head forms
      spine-wise, with the {!Belr_syntax.Equal} phys-eq fast paths
      checked {e before} any unfolding (two pointer-equal nodes under
      pointer-equal — or closed under any — substitutions are equal
      without computing anything).

    Soundness of the laziness: hereditary substitution is a function, so
    [⟦σ⟧M] has a unique normal form and contracting only the head-spine
    (leaving arguments delayed) commutes with forcing the rest later
    ({!norm_nclo}).  The agreement property — whnf followed by full
    forcing ≡ eager [Hsub] — is a property test over random closures.

    Memoization follows the PR-4 discipline: results of {!whnf_normal}
    on [Root] closures are cached in a bounded direct-mapped table keyed
    [(sub id, node id)].  Store ids are unique, monotone, and never
    reused, and interned nodes are immutable, so a hit is always sound.
    The tables are {!Session.t}-scoped like the [Hsub] memos
    ({!fresh_tables}/{!use_tables}), so one serve session's cached
    weak-head forms can never leak into another's. *)

open Belr_support
open Belr_syntax
open Lf

let depth = Limits.counter "weak-head normalization"

let guard f = Limits.guard depth f

let c_whnf = Telemetry.counter "whnf.weak_head_steps"

(* --- closures ----------------------------------------------------------- *)

type nclo = normal * sub
(** [(M, σ)] denotes [⟦σ⟧M]. *)

type tclo = typ * sub

type sclo = srt * sub

type kclo = kind * sub

type lclo = skind * sub

(** Force a closure to its full (eager) normal form.  [Hsub] memoizes
    these, so forcing the same closure twice is one array read. *)
let norm_nclo ((m, s) : nclo) : normal = Hsub.sub_normal s m

let norm_tclo ((a, s) : tclo) : typ = Hsub.sub_typ s a

let norm_sclo ((q, s) : sclo) : srt = Hsub.sub_srt s q

(** Instantiate a binder-body closure with an argument already living in
    the {e current} context: [clo_inst (B, σ) M = (B, M.σ)] denotes
    [[M/1]⟦dot1 σ⟧B].  This is the checkers' spine step — no [Hsub.comp],
    no traversal. *)
let clo_inst ((b, s) : 'a * sub) (m : normal) : 'a * sub = (b, mk_dot (Obj m) s)

(** Step a binder-body closure under its binder: [clo_push (B, σ) =
    (B, dot1 σ)]. *)
let clo_push ((b, s) : 'a * sub) : 'a * sub = (b, Hsub.dot1 s)

(* --- weak-head views ----------------------------------------------------- *)

(** Weak-head form of a term closure.  [WLam (x, body, σ)] denotes
    [⟦σ⟧(λx. body)] — the body is under [dot1 σ] ({!clo_push} descends,
    β-contraction uses [M.σ] directly).  [WRoot (h, sp, σ)] has the head
    already substituted (it is a genuine head in the current context)
    while every spine argument is still delayed under [σ]. *)
type nwhnf =
  | WLam of Name.t * normal * sub
  | WRoot of head * spine * sub

(** Weak-head views of types and sorts.  Substitution cannot change the
    top constructor at these levels, so the views are computed without
    any traversal. *)
type twhnf = WAtom of cid_typ * spine * sub | WPi of Name.t * tclo * tclo

type swhnf =
  | WSAtom of cid_srt * spine * sub
  | WSEmbed of cid_typ * spine * sub
  | WSPi of Name.t * sclo * sclo

(* --- whnf memo table ----------------------------------------------------- *)

(* Direct-mapped cache for Root-closure weak-head forms, keyed
   (sub id, normal id) exactly like the Hsub memo. *)

let memo_bits = 14

let memo_size = 1 lsl memo_bits

(** The whnf memo world: one direct-mapped cache plus the counters
    surfaced by [--kernel-stats], the profile [store] object, and the
    serve metrics gauges.  Per-session in the daemon ({!use_tables},
    installed in lock-step with the store state and [Hsub] tables by
    {!Session.with_}). *)
type tables = {
  wt_root : (int * int * nwhnf) option array;
  mutable wt_hits : int;
  mutable wt_misses : int;
  mutable wt_forced : int;
      (** delayed substitutions forced eagerly (β-fronts and spine
          flushes) *)
  mutable wt_eager : int;
      (** eager fallbacks: a pending spine flushed through [Hsub]
          because the head came up neutral mid-contraction *)
}

let fresh_tables () =
  {
    wt_root = Array.make memo_size None;
    wt_hits = 0;
    wt_misses = 0;
    wt_forced = 0;
    wt_eager = 0;
  }

let current = ref (fresh_tables ())

(** Install [t] as the whnf memo world for subsequent normalizations. *)
let use_tables t = current := t

let current_tables () = !current

let clear_memo () = Array.fill !current.wt_root 0 memo_size None

type stats = {
  ws_hits : int;
  ws_misses : int;
  ws_forced : int;
  ws_eager : int;
}

let stats () =
  let t = !current in
  {
    ws_hits = t.wt_hits;
    ws_misses = t.wt_misses;
    ws_forced = t.wt_forced;
    ws_eager = t.wt_eager;
  }

let hit_rate () =
  let t = !current in
  let total = t.wt_hits + t.wt_misses in
  if total = 0 then 0.0 else float_of_int t.wt_hits /. float_of_int total

let memo_slot ks km =
  (((ks * 0x9e3779b1) lxor km) land max_int) land (memo_size - 1)

(* --- head unfolding and weak-head normalization --------------------------- *)

(** Push a substitution into a head (the head-unfolding step): the result
    is a genuine head, a normal term (a β-redex to contract), or a tuple
    (a whole-block front). *)
let whnf_head (s : sub) (h : head) : Hsub.head_result = Hsub.sub_head s h

let rec whnf_normal ((m, s) : nclo) : nwhnf =
  match m with
  | Lam (x, body) -> WLam (x, body, s)
  | Root (h, sp) -> (
      match s with
      | Shift 0 -> WRoot (h, sp, s)
      | _ -> (
          let t = !current in
          let ks = sub_id s and km = normal_id m in
          let i = memo_slot ks km in
          match t.wt_root.(i) with
          | Some (ks', km', r) when ks' = ks && km' = km ->
              t.wt_hits <- t.wt_hits + 1;
              r
          | _ ->
              t.wt_misses <- t.wt_misses + 1;
              let r =
                if mfi_normal m = 0 then WRoot (h, sp, Lf.id)
                else whnf_root s h sp
              in
              t.wt_root.(i) <- Some (ks, km, r);
              r))

and whnf_root (s : sub) (h : head) (sp : spine) : nwhnf =
  Telemetry.bump c_whnf;
  match Hsub.sub_head s h with
  | Hsub.Rhead h' -> WRoot (h', sp, s)
  | Hsub.Rnorm n ->
      (* hereditary step at the head only: contract n against the pending
         spine, leaving untouched arguments delayed *)
      guard (fun () -> apply (whnf_normal (n, Lf.id)) [ (sp, s) ])
  | Hsub.Rtup _ ->
      Error.violation "block variable used as a term (missing projection)"

(** [apply v groups] applies a weak-head form to a queue of delayed
    spines (each spine under its own substitution), β-contracting as long
    as the head stays a [Lam].  Only the argument fronts consumed by a
    contraction are forced; if the head comes up neutral with arguments
    still pending, the remaining spines are flushed eagerly (counted as
    an eager fallback — rare in practice, since canonical spines match
    the Π-telescope of their head). *)
and apply (v : nwhnf) (groups : (spine * sub) list) : nwhnf =
  match groups with
  | [] -> v
  | ([], _) :: rest -> apply v rest
  | (arg :: sp, sg) :: rest -> (
      match v with
      | WLam (_, body, sb) ->
          let t = !current in
          t.wt_forced <- t.wt_forced + 1;
          let arg' = Hsub.sub_normal sg arg in
          guard (fun () ->
              apply (whnf_normal (body, mk_dot (Obj arg') sb)) ((sp, sg) :: rest))
      | WRoot (h, sp0, s0) ->
          let t = !current in
          t.wt_eager <- t.wt_eager + 1;
          let flushed =
            List.concat_map
              (fun (sp, sg) -> Hsub.sub_spine sg sp)
              ((arg :: sp, sg) :: rest)
          in
          WRoot (h, Hsub.sub_spine s0 sp0 @ flushed, Lf.id))

(** O(1) weak-head views: a substitution maps [Atom] to [Atom] (same
    family) and [Pi] to [Pi], so the pending substitution only needs to
    be distributed over the closure components, never applied. *)
let whnf_typ ((a, s) : tclo) : twhnf =
  match a with
  | Atom (p, sp) -> WAtom (p, sp, s)
  | Pi (x, a1, a2) -> WPi (x, (a1, s), (a2, s))
(* the WPi body closure is under the binder: descend with clo_push,
   instantiate with clo_inst *)

let whnf_srt ((q, s) : sclo) : swhnf =
  match q with
  | SAtom (c, sp) -> WSAtom (c, sp, s)
  | SEmbed (a, sp) -> WSEmbed (a, sp, s)
  | SPi (x, q1, q2) -> WSPi (x, (q1, s), (q2, s))

(* --- conversion: definitional equality of closures ------------------------ *)

(* Fast path shared by all conv functions: pointer-equal nodes under
   pointer-equal substitutions are the same closure; a closed node is
   untouched by any substitution, so the subs need not even be compared;
   otherwise structurally equal substitutions still decide it. *)

let subs_agree (s1 : sub) (s2 : sub) (mfi : int) : bool =
  s1 == s2 || mfi = 0 || Equal.sub s1 s2

let rec conv_normal ((m1, s1) as c1 : nclo) ((m2, s2) as c2 : nclo) : bool =
  if m1 == m2 && subs_agree s1 s2 (mfi_normal m1) then true
  else
    match (whnf_normal c1, whnf_normal c2) with
    | WLam (_, b1, t1), WLam (_, b2, t2) ->
        guard (fun () -> conv_normal (b1, Hsub.dot1 t1) (b2, Hsub.dot1 t2))
    | WRoot (h1, sp1, t1), WRoot (h2, sp2, t2) ->
        Equal.head h1 h2 && conv_spine (sp1, t1) (sp2, t2)
    | _ -> false

and conv_spine ((sp1, s1) : spine * sub) ((sp2, s2) : spine * sub) : bool =
  match (sp1, sp2) with
  | [], [] -> true
  | m1 :: r1, m2 :: r2 ->
      conv_normal (m1, s1) (m2, s2) && conv_spine (r1, s1) (r2, s2)
  | _ -> false

let rec conv_typ ((a1, s1) : tclo) ((a2, s2) : tclo) : bool =
  if a1 == a2 && subs_agree s1 s2 (mfi_typ a1) then true
  else
    match (a1, a2) with
    | Atom (p1, sp1), Atom (p2, sp2) ->
        p1 = p2 && conv_spine (sp1, s1) (sp2, s2)
    | Pi (_, a1a, a1b), Pi (_, a2a, a2b) ->
        conv_typ (a1a, s1) (a2a, s2)
        && guard (fun () -> conv_typ (a1b, Hsub.dot1 s1) (a2b, Hsub.dot1 s2))
    | _ -> false

let rec conv_srt ((q1, s1) : sclo) ((q2, s2) : sclo) : bool =
  if q1 == q2 && subs_agree s1 s2 (mfi_srt q1) then true
  else
    match (q1, q2) with
    | SAtom (c1', sp1), SAtom (c2', sp2) ->
        c1' = c2' && conv_spine (sp1, s1) (sp2, s2)
    | SEmbed (a1, sp1), SEmbed (a2, sp2) ->
        a1 = a2 && conv_spine (sp1, s1) (sp2, s2)
    | SPi (_, q1a, q1b), SPi (_, q2a, q2b) ->
        conv_srt (q1a, s1) (q2a, s2)
        && guard (fun () -> conv_srt (q1b, Hsub.dot1 s1) (q2b, Hsub.dot1 s2))
    | _ -> false

(* Contribute the whnf numbers to the shared "store" telemetry section
   (sections with one name are merged into a single profile object). *)
let () =
  Telemetry.register_section "store" (fun () ->
      let t = !current in
      [
        ("whnf_memo_hits", Json.Int t.wt_hits);
        ("whnf_memo_misses", Json.Int t.wt_misses);
        ("whnf_memo_hit_rate", Json.Float (hit_rate ()));
        ("whnf_forced", Json.Int t.wt_forced);
        ("whnf_eager", Json.Int t.wt_eager);
      ])
