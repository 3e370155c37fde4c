(** Implementation of the hash-consing term store (see store.mli).

    Layout: two weak structures per interned category.

    - The {e arena} ([Weak.Make]): holds one representative per
      structural-equality class (binder names ignored).  Keys are held
      weakly, so a term no longer referenced by the kernel vanishes from
      the arena and can be collected.
    - The {e metadata table} ([Ephemeron.K1.Make], physical-equality
      keys): node ↦ [{id; hash; mfi}].  Ephemeron semantics drop an entry
      exactly when its node dies, so metadata never keeps a term alive.

    Hashing bottoms out in the {e children's} stored hashes: a node's
    hash is a one-level combination of its scalars and its (already
    interned, already hashed) children, so interning a node is O(width),
    not O(size).  The same holds for the max-free-index bound.

    Spines, tuples and fronts are thin list/wrapper shapes between
    interned nodes; they are hashed through on the fly and never interned
    themselves (their identity is their elements').

    Binder names: interning ignores [Name.t] hints (as [Equal] does), so
    physically-equal ⟺ α-equal on interned representatives.  The
    first-constructed node's hints win for printing. *)

open Belr_support

type cid_typ = int

type cid_srt = int

type cid_const = int

type cid_schema = int

type cid_sschema = int

type cid_rec = int

type head =
  | Const of cid_const
  | BVar of int
  | PVar of int * sub
  | Proj of head * int
  | MVar of int * sub

and normal = Lam of Name.t * normal | Root of head * spine

and spine = normal list

and front = Obj of normal | Tup of tuple | Undef

and tuple = normal list

and sub = Empty | Shift of int | Dot of front * sub

type typ = Atom of cid_typ * spine | Pi of Name.t * typ * typ

type kind = Ktype | Kpi of Name.t * typ * kind

type srt =
  | SAtom of cid_srt * spine
  | SEmbed of cid_typ * spine
  | SPi of Name.t * srt * srt

type skind = Ksort | Kspi of Name.t * srt * skind

(* --- store state ------------------------------------------------------ *)

let mfi_infinity = max_int

(** Saturating decrement (leaving a binder). *)
let dec i = if i = mfi_infinity then mfi_infinity else max 0 (i - 1)

type meta = { m_id : int; m_hash : int; m_mfi : int }

(* Never reset — monotone across [store_clear], so a memo table keyed on
   ids (Belr_lf.Hsub) can never confuse a pre-clear entry with a
   post-clear term. *)
let next_id = ref 0

let fresh () =
  let i = !next_id in
  incr next_id;
  i

let comb h k = ((h * 486187739) + k) land max_int

(* --- metadata tables (weak keys, physical equality) ------------------- *)

module HeadTbl = Ephemeron.K1.Make (struct
  type t = head

  let equal = ( == )

  let hash = Hashtbl.hash
end)

module NormalTbl = Ephemeron.K1.Make (struct
  type t = normal

  let equal = ( == )

  let hash = Hashtbl.hash
end)

module SubTbl = Ephemeron.K1.Make (struct
  type t = sub

  let equal = ( == )

  let hash = Hashtbl.hash
end)

module TypTbl = Ephemeron.K1.Make (struct
  type t = typ

  let equal = ( == )

  let hash = Hashtbl.hash
end)

module SrtTbl = Ephemeron.K1.Make (struct
  type t = srt

  let equal = ( == )

  let hash = Hashtbl.hash
end)

(* The metadata half of a store {e state} (the arena half is defined
   below, after the arena functors — which themselves need the hashing
   functions, which read the metadata tables).  All lookups go through
   [cur_meta], the installed state's tables: sessions swap whole states
   with [use_state] rather than threading a handle through every
   [mk_*] call site. *)
type meta_tables = {
  mt_head : meta HeadTbl.t;
  mt_normal : meta NormalTbl.t;
  mt_sub : meta SubTbl.t;
  mt_typ : meta TypTbl.t;
  mt_srt : meta SrtTbl.t;
}

let fresh_meta_tables () =
  {
    mt_head = HeadTbl.create 1024;
    mt_normal = NormalTbl.create 4096;
    mt_sub = SubTbl.create 1024;
    mt_typ = TypTbl.create 1024;
    mt_srt = SrtTbl.create 1024;
  }

let cur_meta : meta_tables ref = ref (fresh_meta_tables ())

(* [Empty] is a constant (immediate) constructor: every [Empty] is the
   same value, so it gets a fixed metadata record instead of a weak-table
   entry (immediates have no useful weak semantics). *)
let empty_meta = { m_id = fresh (); m_hash = 0x45; m_mfi = 0 }

(* --- hashing and max-free-index --------------------------------------- *)

(* [hash_*]/[mfi1_*] are one-level: they read the children's *stored*
   metadata.  [meta_*] memoizes.  Nodes built through [mk_*] always have
   their children's metadata present; nodes that outlive a [store_clear]
   (or were built in another state) get a (deep, one-time) computation on
   first query, so every accessor below is total.

   mfi soundness notes:
   - [mfi (Shift n) = ∞]: a delayed substitution rooted in a shift
     changes under composition with any outer substitution
     ([MVar (u, ↑⁰)][σ] = [MVar (u, σ)]), so no bound is sound.
   - [mfi Empty = 0]: [comp Empty σ = Empty] — untouchable.
   - A closed front can never trigger the [mk_dot] collapse (the
     collapsed shape [Dot (Obj xₙ, ↑ⁿ)] has a free variable), so
     substitution under a closed [Dot]-chain is the identity on it. *)

let rec meta_head (h : head) : meta =
  let tbl = (!cur_meta).mt_head in
  match HeadTbl.find_opt tbl h with
  | Some m -> m
  | None ->
      let m = { m_id = fresh (); m_hash = hash_head h; m_mfi = mfi1_head h } in
      HeadTbl.replace tbl h m;
      m

and hash_head = function
  | Const c -> comb 3 c
  | BVar i -> comb 5 i
  | PVar (p, s) -> comb (comb 7 p) (meta_sub s).m_hash
  | Proj (b, k) -> comb (comb 11 (meta_head b).m_hash) k
  | MVar (u, s) -> comb (comb 13 u) (meta_sub s).m_hash

and mfi1_head = function
  | Const _ -> 0
  | BVar i -> i
  | PVar (_, s) -> (meta_sub s).m_mfi
  | Proj (b, _) -> (meta_head b).m_mfi
  | MVar (_, s) -> (meta_sub s).m_mfi

and meta_normal (n : normal) : meta =
  let tbl = (!cur_meta).mt_normal in
  match NormalTbl.find_opt tbl n with
  | Some m -> m
  | None ->
      let m =
        { m_id = fresh (); m_hash = hash_normal n; m_mfi = mfi1_normal n }
      in
      NormalTbl.replace tbl n m;
      m

and hash_normal = function
  | Lam (x, b) -> comb (comb 17 (Hashtbl.hash x)) (meta_normal b).m_hash
  | Root (h, sp) -> comb (comb 19 (meta_head h).m_hash) (fst (spine_meta sp))

and mfi1_normal = function
  | Lam (_, b) -> dec (meta_normal b).m_mfi
  | Root (h, sp) -> max (meta_head h).m_mfi (snd (spine_meta sp))

and spine_meta (sp : spine) : int * int =
  List.fold_left
    (fun (h, f) n ->
      let m = meta_normal n in
      (comb h m.m_hash, max f m.m_mfi))
    (23, 0) sp

and front_meta : front -> int * int = function
  | Obj m ->
      let mm = meta_normal m in
      (comb 29 mm.m_hash, mm.m_mfi)
  | Tup t ->
      let h, f = spine_meta t in
      (comb 31 h, f)
  | Undef -> (37, 0)

and meta_sub (s : sub) : meta =
  match s with
  | Empty -> empty_meta
  | _ -> (
      let tbl = (!cur_meta).mt_sub in
      match SubTbl.find_opt tbl s with
      | Some m -> m
      | None ->
          let m = { m_id = fresh (); m_hash = hash_sub s; m_mfi = mfi1_sub s } in
          SubTbl.replace tbl s m;
          m)

and hash_sub = function
  | Empty -> empty_meta.m_hash
  | Shift n -> comb 41 n
  | Dot (f, s) -> comb (comb 43 (fst (front_meta f))) (meta_sub s).m_hash

and mfi1_sub = function
  | Empty -> 0
  | Shift _ -> mfi_infinity
  | Dot (f, s) -> max (snd (front_meta f)) (meta_sub s).m_mfi

let rec meta_typ (a : typ) : meta =
  let tbl = (!cur_meta).mt_typ in
  match TypTbl.find_opt tbl a with
  | Some m -> m
  | None ->
      let m = { m_id = fresh (); m_hash = hash_typ a; m_mfi = mfi1_typ a } in
      TypTbl.replace tbl a m;
      m

and hash_typ = function
  | Atom (a, sp) -> comb (comb 47 a) (fst (spine_meta sp))
  | Pi (x, a, b) ->
      comb (comb (comb 53 (Hashtbl.hash x)) (meta_typ a).m_hash) (meta_typ b).m_hash

and mfi1_typ = function
  | Atom (_, sp) -> snd (spine_meta sp)
  | Pi (_, a, b) -> max (meta_typ a).m_mfi (dec (meta_typ b).m_mfi)

let rec meta_srt (s : srt) : meta =
  let tbl = (!cur_meta).mt_srt in
  match SrtTbl.find_opt tbl s with
  | Some m -> m
  | None ->
      let m = { m_id = fresh (); m_hash = hash_srt s; m_mfi = mfi1_srt s } in
      SrtTbl.replace tbl s m;
      m

and hash_srt = function
  | SAtom (q, sp) -> comb (comb 59 q) (fst (spine_meta sp))
  | SEmbed (a, sp) -> comb (comb 61 a) (fst (spine_meta sp))
  | SPi (x, s1, s2) ->
      comb (comb (comb 67 (Hashtbl.hash x)) (meta_srt s1).m_hash) (meta_srt s2).m_hash

and mfi1_srt = function
  | SAtom (_, sp) | SEmbed (_, sp) -> snd (spine_meta sp)
  | SPi (_, s1, s2) -> max (meta_srt s1).m_mfi (dec (meta_srt s2).m_mfi)

(* --- arenas (weak sets of representatives) ---------------------------- *)

let rec eq_spine sp1 sp2 =
  match (sp1, sp2) with
  | [], [] -> true
  | m1 :: r1, m2 :: r2 -> m1 == m2 && eq_spine r1 r2
  | _ -> false

let eq_front f1 f2 =
  match (f1, f2) with
  | Obj m1, Obj m2 -> m1 == m2
  | Tup t1, Tup t2 -> eq_spine t1 t2
  | Undef, Undef -> true
  | _ -> false

module HeadArena = Weak.Make (struct
  type t = head

  let hash = hash_head

  let equal h1 h2 =
    match (h1, h2) with
    | Const a, Const b -> a = b
    | BVar a, BVar b -> a = b
    | PVar (p1, s1), PVar (p2, s2) -> p1 = p2 && s1 == s2
    | Proj (b1, k1), Proj (b2, k2) -> k1 = k2 && b1 == b2
    | MVar (u1, s1), MVar (u2, s2) -> u1 = u2 && s1 == s2
    | _ -> false
end)

module NormalArena = Weak.Make (struct
  type t = normal

  let hash = hash_normal

  let equal n1 n2 =
    match (n1, n2) with
    | Lam (x1, b1), Lam (x2, b2) -> String.equal x1 x2 && b1 == b2
    | Root (h1, sp1), Root (h2, sp2) -> h1 == h2 && eq_spine sp1 sp2
    | _ -> false
end)

module SubArena = Weak.Make (struct
  type t = sub

  let hash = hash_sub

  let equal s1 s2 =
    match (s1, s2) with
    | Empty, Empty -> true
    | Shift n1, Shift n2 -> n1 = n2
    | Dot (f1, t1), Dot (f2, t2) -> t1 == t2 && eq_front f1 f2
    | _ -> false
end)

module TypArena = Weak.Make (struct
  type t = typ

  let hash = hash_typ

  let equal a1 a2 =
    match (a1, a2) with
    | Atom (c1, sp1), Atom (c2, sp2) -> c1 = c2 && eq_spine sp1 sp2
    | Pi (x1, a1, b1), Pi (x2, a2, b2) ->
        String.equal x1 x2 && a1 == a2 && b1 == b2
    | _ -> false
end)

module SrtArena = Weak.Make (struct
  type t = srt

  let hash = hash_srt

  let equal s1 s2 =
    match (s1, s2) with
    | SAtom (c1, sp1), SAtom (c2, sp2) -> c1 = c2 && eq_spine sp1 sp2
    | SEmbed (c1, sp1), SEmbed (c2, sp2) -> c1 = c2 && eq_spine sp1 sp2
    | SPi (x1, a1, b1), SPi (x2, a2, b2) ->
        String.equal x1 x2 && a1 == a2 && b1 == b2
    | _ -> false
end)

(* The arena half of a store state, plus the intern/dedup counters (which
   are per-state so one session's sharing statistics cannot pollute
   another's).  [state] packs both halves; the two [cur_*] refs are kept
   in lock-step by [use_state] so the hot paths each pay one load. *)
type arenas = {
  ar_head : HeadArena.t;
  ar_normal : NormalArena.t;
  ar_sub : SubArena.t;
  ar_typ : TypArena.t;
  ar_srt : SrtArena.t;
  mutable ar_interned : int;
  mutable ar_dedup : int;
}

let fresh_arenas () =
  {
    ar_head = HeadArena.create 1024;
    ar_normal = NormalArena.create 4096;
    ar_sub = SubArena.create 1024;
    ar_typ = TypArena.create 1024;
    ar_srt = SrtArena.create 1024;
    ar_interned = 0;
    ar_dedup = 0;
  }

let cur_arena : arenas ref = ref (fresh_arenas ())

type state = { sx_meta : meta_tables; sx_arenas : arenas }

let fresh_state () =
  { sx_meta = fresh_meta_tables (); sx_arenas = fresh_arenas () }

(* The state every batch run lives in; [!cur_meta]/[!cur_arena] above are
   its halves, so terms built before any [use_state] belong to it. *)
let boot_state = { sx_meta = !cur_meta; sx_arenas = !cur_arena }

let current = ref boot_state

(** Install [st] as the world every [mk_*]/metadata access runs in. *)
let use_state st =
  current := st;
  cur_meta := st.sx_meta;
  cur_arena := st.sx_arenas

let current_state () = !current

(** Run [f] with [st] installed, restoring the previous state even on
    exceptions (the serve loop's per-request bracket). *)
let with_state st f =
  let prev = !current in
  use_state st;
  Fun.protect ~finally:(fun () -> use_state prev) f

(* --- interning -------------------------------------------------------- *)

let intern_head (cand : head) : head =
  Fault.hit "store-intern";
  let a = !cur_arena in
  let rep = HeadArena.merge a.ar_head cand in
  if rep == cand then begin
    a.ar_interned <- a.ar_interned + 1;
    ignore (meta_head rep)
  end
  else a.ar_dedup <- a.ar_dedup + 1;
  rep

let intern_normal (cand : normal) : normal =
  Fault.hit "store-intern";
  let a = !cur_arena in
  let rep = NormalArena.merge a.ar_normal cand in
  if rep == cand then begin
    a.ar_interned <- a.ar_interned + 1;
    ignore (meta_normal rep)
  end
  else a.ar_dedup <- a.ar_dedup + 1;
  rep

let intern_sub (cand : sub) : sub =
  Fault.hit "store-intern";
  let a = !cur_arena in
  let rep = SubArena.merge a.ar_sub cand in
  if rep == cand then begin
    a.ar_interned <- a.ar_interned + 1;
    ignore (meta_sub rep)
  end
  else a.ar_dedup <- a.ar_dedup + 1;
  rep

let intern_typ (cand : typ) : typ =
  Fault.hit "store-intern";
  let a = !cur_arena in
  let rep = TypArena.merge a.ar_typ cand in
  if rep == cand then begin
    a.ar_interned <- a.ar_interned + 1;
    ignore (meta_typ rep)
  end
  else a.ar_dedup <- a.ar_dedup + 1;
  rep

let intern_srt (cand : srt) : srt =
  Fault.hit "store-intern";
  let a = !cur_arena in
  let rep = SrtArena.merge a.ar_srt cand in
  if rep == cand then begin
    a.ar_interned <- a.ar_interned + 1;
    ignore (meta_srt rep)
  end
  else a.ar_dedup <- a.ar_dedup + 1;
  rep

(* --- smart constructors ----------------------------------------------- *)

let mk_const c = intern_head (Const c)

let mk_bvar i = intern_head (BVar i)

let mk_pvar p s = intern_head (PVar (p, s))

let mk_proj h k = intern_head (Proj (h, k))

let mk_mvar u s = intern_head (MVar (u, s))

let mk_lam x n = intern_normal (Lam (x, n))

let mk_root h sp = intern_normal (Root (h, sp))

let mk_empty = Empty

(* Small shifts are ubiquitous ([Shift 0] is the identity substitution);
   a preallocated cache makes them physically unique without touching the
   arena. *)
let shift_cache = Array.init 64 (fun n -> Shift n)

let mk_shift n =
  if n >= 0 && n < Array.length shift_cache then shift_cache.(n)
  else intern_sub (Shift n)

let mk_dot f s =
  (* keep identity substitutions canonical: Dot (xₙ, ↑ⁿ) = ↑ⁿ⁻¹ — it is
     semantic canonicalization, not sharing *)
  match (f, s) with
  | Obj (Root (BVar k, [])), Shift n when k = n -> mk_shift (n - 1)
  | _ -> intern_sub (Dot (f, s))

let mk_atom a sp = intern_typ (Atom (a, sp))

let mk_pi x a b = intern_typ (Pi (x, a, b))

let mk_satom q sp = intern_srt (SAtom (q, sp))

let mk_sembed a sp = intern_srt (SEmbed (a, sp))

let mk_spi x s1 s2 = intern_srt (SPi (x, s1, s2))

(* --- control ----------------------------------------------------------- *)

let store_clear () =
  let a = !cur_arena and m = !cur_meta in
  HeadArena.clear a.ar_head;
  NormalArena.clear a.ar_normal;
  SubArena.clear a.ar_sub;
  TypArena.clear a.ar_typ;
  SrtArena.clear a.ar_srt;
  HeadTbl.reset m.mt_head;
  NormalTbl.reset m.mt_normal;
  SubTbl.reset m.mt_sub;
  TypTbl.reset m.mt_typ;
  SrtTbl.reset m.mt_srt

(* --- accessors --------------------------------------------------------- *)

let normal_id m = (meta_normal m).m_id

let sub_id s = (meta_sub s).m_id

let head_id h = (meta_head h).m_id

let typ_id a = (meta_typ a).m_id

let srt_id s = (meta_srt s).m_id

let mfi_normal m = (meta_normal m).m_mfi

let mfi_head h = (meta_head h).m_mfi

let mfi_sub s = (meta_sub s).m_mfi

let mfi_typ a = (meta_typ a).m_mfi

let mfi_srt s = (meta_srt s).m_mfi

let mfi_spine sp = snd (spine_meta sp)

(* --- statistics -------------------------------------------------------- *)

type store_stats = {
  st_live : int;
  st_interned : int;
  st_dedup_hits : int;
}

let store_stats () =
  let a = !cur_arena in
  {
    st_live =
      HeadArena.count a.ar_head + NormalArena.count a.ar_normal
      + SubArena.count a.ar_sub + TypArena.count a.ar_typ
      + SrtArena.count a.ar_srt;
    st_interned = a.ar_interned;
    st_dedup_hits = a.ar_dedup;
  }

let dedup_ratio () =
  let a = !cur_arena in
  if a.ar_interned = 0 then 0.0
  else
    float_of_int (a.ar_interned + a.ar_dedup) /. float_of_int a.ar_interned

(* Report the store's numbers in --stats / --profile ("store" section of
   the belr-profile/1 schema; Belr_lf.Hsub contributes its memo-table
   fields to the same section).  "enabled" is always true: the schema
   predates the retirement of the store's off switch. *)
let () =
  Telemetry.register_section "store" (fun () ->
      let s = store_stats () in
      [
        ("enabled", Json.Bool true);
        ("live", Json.Int s.st_live);
        ("interned", Json.Int s.st_interned);
        ("dedup_hits", Json.Int s.st_dedup_hits);
        ("dedup_ratio", Json.Float (dedup_ratio ()));
      ])
