(** Structural (α-)equality.

    Since the internal syntax is de Bruijn, α-equivalence is structural
    equality that ignores the [Name.t] printing hints.  Canonical forms
    make this the right definitional equality for checking: no reduction
    is needed (§3, canonical-forms presentation).

    Since PR 4 every LF node is interned in the hash-consing store
    ({!Store}), so physical equality [==] is a sound O(1) fast path: two
    pointer-equal nodes are the same node.  The fast path is checked at
    every node of the comparison, so even a failing comparison skips the
    shared subtrees.  The [deep_*] family keeps the pure structural
    definition (no pointer shortcuts) — it is the specification the fast
    path is tested against, and what the property tests use to state
    "phys-eq implies deep-eq".

    Substitution equality additionally identifies a delayed shift with
    its η-expansion at a context boundary, [↑ⁿ ≡ (n+1 . ↑ⁿ⁺¹)]: the two
    spellings denote the same total substitution, and checkers reach the
    boundary with either spelling depending on which rule fired last.
    {!Store.mk_dot} collapses the expanded spelling on construction, so
    this equation mostly matters for terms built before a {!store_clear}
    (which are not re-interned, so [==] also misses on them). *)

open Belr_support
open Lf

(* --- instrumentation ---------------------------------------------------- *)

(** O(1) pointer-equality short-circuits taken / missed.  Plain ints so
    they work without [--stats]; surfaced in the ["store"] telemetry
    section and [belr check --kernel-stats].  Like the store's intern
    counts they belong to a world: [Session.with_] saves and restores
    them around a session, so the serve gauges can sum them over
    sessions. *)
let phys_hits = ref 0

let phys_misses = ref 0

type phys_stats = { ps_hits : int; ps_misses : int }

let phys_stats () = { ps_hits = !phys_hits; ps_misses = !phys_misses }

(** Interning-totality check: with [BELR_STORE_DEBUG=1], any normal that
    reaches [Equal] without being the store's representative was built
    around the smart constructors — a sharing leak. *)
let assert_rep (m : normal) =
  if store_debug && not (is_rep_normal m) then
    Error.violation
      "Equal: normal term is not the store representative (a constructor \
       bypassed the hash-consing store)"

(* --- deep (specification) equality -------------------------------------- *)

let rec deep_head (h1 : head) (h2 : head) =
  match (h1, h2) with
  | Const c1, Const c2 -> c1 = c2
  | BVar i1, BVar i2 -> i1 = i2
  | PVar (p1, s1), PVar (p2, s2) -> p1 = p2 && deep_sub s1 s2
  | Proj (b1, k1), Proj (b2, k2) -> k1 = k2 && deep_head b1 b2
  | MVar (u1, s1), MVar (u2, s2) -> u1 = u2 && deep_sub s1 s2
  | _ -> false

and deep_normal (m1 : normal) (m2 : normal) =
  match (m1, m2) with
  | Lam (_, n1), Lam (_, n2) -> deep_normal n1 n2
  | Root (h1, sp1), Root (h2, sp2) -> deep_head h1 h2 && deep_spine sp1 sp2
  | _ -> false

and deep_spine sp1 sp2 =
  List.length sp1 = List.length sp2 && List.for_all2 deep_normal sp1 sp2

and deep_front f1 f2 =
  match (f1, f2) with
  | Obj m1, Obj m2 -> deep_normal m1 m2
  | Tup t1, Tup t2 -> deep_spine t1 t2
  | Undef, Undef -> true
  | _ -> false

and deep_sub (s1 : sub) (s2 : sub) =
  match (s1, s2) with
  | Empty, Empty -> true
  | Shift n1, Shift n2 -> n1 = n2
  (* ↑ⁿ ≡ (n+1 . ↑ⁿ⁺¹): unfold the shift one step and keep comparing.
     Terminates because the [Dot] side shrinks at every step. *)
  | Shift n, Dot (Obj (Root (BVar k, [])), s2') when k = n + 1 ->
      deep_sub (mk_shift (n + 1)) s2'
  | Dot (Obj (Root (BVar k, [])), s1'), Shift n when k = n + 1 ->
      deep_sub s1' (mk_shift (n + 1))
  | Dot (f1, s1'), Dot (f2, s2') -> deep_front f1 f2 && deep_sub s1' s2'
  | _ -> false

let rec deep_typ (a1 : typ) (a2 : typ) =
  match (a1, a2) with
  | Atom (a1, sp1), Atom (a2, sp2) -> a1 = a2 && deep_spine sp1 sp2
  | Pi (_, a1, b1), Pi (_, a2, b2) -> deep_typ a1 a2 && deep_typ b1 b2
  | _ -> false

let rec deep_srt (s1 : srt) (s2 : srt) =
  match (s1, s2) with
  | SAtom (s1, sp1), SAtom (s2, sp2) -> s1 = s2 && deep_spine sp1 sp2
  | SEmbed (a1, sp1), SEmbed (a2, sp2) -> a1 = a2 && deep_spine sp1 sp2
  | SPi (_, s1, t1), SPi (_, s2, t2) -> deep_srt s1 s2 && deep_srt t1 t2
  | _ -> false

(* --- equality with O(1) sharing fast paths ------------------------------ *)

let rec head (h1 : head) (h2 : head) =
  if h1 == h2 then (
    incr phys_hits;
    true)
  else (
    incr phys_misses;
    match (h1, h2) with
    | Const c1, Const c2 -> c1 = c2
    | BVar i1, BVar i2 -> i1 = i2
    | PVar (p1, s1), PVar (p2, s2) -> p1 = p2 && sub s1 s2
    | Proj (b1, k1), Proj (b2, k2) -> k1 = k2 && head b1 b2
    | MVar (u1, s1), MVar (u2, s2) -> u1 = u2 && sub s1 s2
    | _ -> false)

and normal (m1 : normal) (m2 : normal) =
  if m1 == m2 then (
    incr phys_hits;
    true)
  else (
    if store_debug then (
      assert_rep m1;
      assert_rep m2);
    incr phys_misses;
    match (m1, m2) with
    | Lam (_, n1), Lam (_, n2) -> normal n1 n2
    | Root (h1, sp1), Root (h2, sp2) -> head h1 h2 && spine sp1 sp2
    | _ -> false)

and spine sp1 sp2 =
  List.length sp1 = List.length sp2 && List.for_all2 normal sp1 sp2

and front f1 f2 =
  match (f1, f2) with
  | Obj m1, Obj m2 -> normal m1 m2
  | Tup t1, Tup t2 -> spine t1 t2
  | Undef, Undef -> true
  | _ -> false

and sub (s1 : sub) (s2 : sub) =
  if s1 == s2 then (
    incr phys_hits;
    true)
  else (
    incr phys_misses;
    match (s1, s2) with
    | Empty, Empty -> true
    | Shift n1, Shift n2 -> n1 = n2
    | Shift n, Dot (Obj (Root (BVar k, [])), s2') when k = n + 1 ->
        sub (mk_shift (n + 1)) s2'
    | Dot (Obj (Root (BVar k, [])), s1'), Shift n when k = n + 1 ->
        sub s1' (mk_shift (n + 1))
    | Dot (f1, s1'), Dot (f2, s2') -> front f1 f2 && sub s1' s2'
    | _ -> false)

let rec typ (a1 : typ) (a2 : typ) =
  if a1 == a2 then (
    incr phys_hits;
    true)
  else (
    incr phys_misses;
    match (a1, a2) with
    | Atom (a1, sp1), Atom (a2, sp2) -> a1 = a2 && spine sp1 sp2
    | Pi (_, a1, b1), Pi (_, a2, b2) -> typ a1 a2 && typ b1 b2
    | _ -> false)

let rec srt (s1 : srt) (s2 : srt) =
  if s1 == s2 then (
    incr phys_hits;
    true)
  else (
    incr phys_misses;
    match (s1, s2) with
    | SAtom (s1, sp1), SAtom (s2, sp2) -> s1 = s2 && spine sp1 sp2
    | SEmbed (a1, sp1), SEmbed (a2, sp2) -> a1 = a2 && spine sp1 sp2
    | SPi (_, s1, t1), SPi (_, s2, t2) -> srt s1 s2 && srt t1 t2
    | _ -> false)

let rec kind (k1 : kind) (k2 : kind) =
  match (k1, k2) with
  | Ktype, Ktype -> true
  | Kpi (_, a1, k1), Kpi (_, a2, k2) -> typ a1 a2 && kind k1 k2
  | _ -> false

let rec skind (l1 : skind) (l2 : skind) =
  match (l1, l2) with
  | Ksort, Ksort -> true
  | Kspi (_, s1, l1), Kspi (_, s2, l2) -> srt s1 s2 && skind l1 l2
  | _ -> false

let block (b1 : Ctxs.block) (b2 : Ctxs.block) =
  List.length b1 = List.length b2
  && List.for_all2 (fun (_, a1) (_, a2) -> typ a1 a2) b1 b2

let sblock (b1 : Ctxs.sblock) (b2 : Ctxs.sblock) =
  List.length b1 = List.length b2
  && List.for_all2 (fun (_, s1) (_, s2) -> srt s1 s2) b1 b2

let elem (e1 : Ctxs.elem) (e2 : Ctxs.elem) =
  List.length e1.Ctxs.e_params = List.length e2.Ctxs.e_params
  && List.for_all2
       (fun (_, a1) (_, a2) -> typ a1 a2)
       e1.Ctxs.e_params e2.Ctxs.e_params
  && block e1.Ctxs.e_block e2.Ctxs.e_block

let selem (f1 : Ctxs.selem) (f2 : Ctxs.selem) =
  List.length f1.Ctxs.f_params = List.length f2.Ctxs.f_params
  && List.for_all2
       (fun (_, s1) (_, s2) -> srt s1 s2)
       f1.Ctxs.f_params f2.Ctxs.f_params
  && sblock f1.Ctxs.f_block f2.Ctxs.f_block

let centry (e1 : Ctxs.centry) (e2 : Ctxs.centry) =
  match (e1, e2) with
  | Ctxs.CDecl (_, a1), Ctxs.CDecl (_, a2) -> typ a1 a2
  | Ctxs.CBlock (_, el1, ms1), Ctxs.CBlock (_, el2, ms2) ->
      elem el1 el2 && spine ms1 ms2
  | _ -> false

let ctx (g1 : Ctxs.ctx) (g2 : Ctxs.ctx) =
  g1.Ctxs.c_var = g2.Ctxs.c_var
  && List.length g1.Ctxs.c_decls = List.length g2.Ctxs.c_decls
  && List.for_all2 centry g1.Ctxs.c_decls g2.Ctxs.c_decls

let scentry (e1 : Ctxs.scentry) (e2 : Ctxs.scentry) =
  match (e1, e2) with
  | Ctxs.SCDecl (_, s1), Ctxs.SCDecl (_, s2) -> srt s1 s2
  | Ctxs.SCBlock (_, f1, ms1), Ctxs.SCBlock (_, f2, ms2) ->
      selem f1 f2 && spine ms1 ms2
  | _ -> false

let sctx (p1 : Ctxs.sctx) (p2 : Ctxs.sctx) =
  p1.Ctxs.s_var = p2.Ctxs.s_var
  && p1.Ctxs.s_promoted = p2.Ctxs.s_promoted
  && List.length p1.Ctxs.s_decls = List.length p2.Ctxs.s_decls
  && List.for_all2 scentry p1.Ctxs.s_decls p2.Ctxs.s_decls

let hat (h1 : Meta.hat) (h2 : Meta.hat) =
  h1.Meta.hat_var = h2.Meta.hat_var
  && List.length h1.Meta.hat_names = List.length h2.Meta.hat_names

let msrt (s1 : Meta.msrt) (s2 : Meta.msrt) =
  match (s1, s2) with
  | Meta.MSTerm (p1, q1), Meta.MSTerm (p2, q2) -> sctx p1 p2 && srt q1 q2
  | Meta.MSSub (p1, q1), Meta.MSSub (p2, q2) -> sctx p1 p2 && sctx q1 q2
  | Meta.MSCtx h1, Meta.MSCtx h2 -> h1 = h2
  | Meta.MSParam (p1, f1, m1), Meta.MSParam (p2, f2, m2) ->
      sctx p1 p2 && selem f1 f2 && spine m1 m2
  | _ -> false

let mtyp (t1 : Meta.mtyp) (t2 : Meta.mtyp) =
  match (t1, t2) with
  | Meta.MTTerm (g1, a1), Meta.MTTerm (g2, a2) -> ctx g1 g2 && typ a1 a2
  | Meta.MTSub (g1, d1), Meta.MTSub (g2, d2) -> ctx g1 g2 && ctx d1 d2
  | Meta.MTCtx g1, Meta.MTCtx g2 -> g1 = g2
  | Meta.MTParam (g1, e1, m1), Meta.MTParam (g2, e2, m2) ->
      ctx g1 g2 && elem e1 e2 && spine m1 m2
  | _ -> false

let mobj (o1 : Meta.mobj) (o2 : Meta.mobj) =
  match (o1, o2) with
  | Meta.MOTerm (h1, m1), Meta.MOTerm (h2, m2) -> hat h1 h2 && normal m1 m2
  | Meta.MOSub (h1, s1), Meta.MOSub (h2, s2) -> hat h1 h2 && sub s1 s2
  | Meta.MOCtx p1, Meta.MOCtx p2 -> sctx p1 p2
  | Meta.MOParam (h1, d1), Meta.MOParam (h2, d2) -> hat h1 h2 && head d1 d2
  | _ -> false

let rec ctyp (t1 : Comp.ctyp) (t2 : Comp.ctyp) =
  match (t1, t2) with
  | Comp.CBox s1, Comp.CBox s2 -> msrt s1 s2
  | Comp.CArr (a1, b1), Comp.CArr (a2, b2) -> ctyp a1 a2 && ctyp b1 b2
  | Comp.CPi (_, i1, s1, t1), Comp.CPi (_, i2, s2, t2) ->
      i1 = i2 && msrt s1 s2 && ctyp t1 t2
  | _ -> false

let rec ctyp_t (t1 : Comp.ctyp_t) (t2 : Comp.ctyp_t) =
  match (t1, t2) with
  | Comp.TBox s1, Comp.TBox s2 -> mtyp s1 s2
  | Comp.TArr (a1, b1), Comp.TArr (a2, b2) -> ctyp_t a1 a2 && ctyp_t b1 b2
  | Comp.TPi (_, i1, s1, t1), Comp.TPi (_, i2, s2, t2) ->
      i1 = i2 && mtyp s1 s2 && ctyp_t t1 t2
  | _ -> false

let () =
  Telemetry.register_section "store" (fun () ->
      let h = !phys_hits and m = !phys_misses in
      let rate =
        if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
      in
      [
        ("equal_phys_hits", Json.Int h);
        ("equal_phys_misses", Json.Int m);
        ("equal_phys_rate", Json.Float rate);
      ])
