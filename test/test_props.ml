(** Property-based tests (qcheck): substitution laws, erasure/conservativity
    over randomly generated derivations, refinement strictness, and
    unification round-trips. *)

open Belr_syntax
open Belr_lf
open Belr_core
open Belr_unify
open Belr_kits
open Lf

let f = Ulam.make ()

let sg = f.Ulam.sg

let lfr_env = Check_lfr.make_env sg []

let lf_env = Check_lf.make_env sg []

(* --- generators --------------------------------------------------------- *)

(** Random closed λ-terms (tm). *)
let gen_tm : normal QCheck.Gen.t =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then return (Ulam.id_tm f)
      else
        frequency
          [
            (1, return (Ulam.id_tm f));
            ( 2,
              map2 (Ulam.app_tm f) (self (n / 2)) (self (n / 2)) );
            ( 1,
              map
                (fun m ->
                  (* lam \x. (shifted m) — keep it closed *)
                  (mk_root ((mk_const f.Ulam.lam)) ([ (mk_lam "x" (Hsub.sub_normal (mk_shift 1) m)) ])))
                (self (n - 1)) );
          ])

(** Random terms over a context of [n] nat-variables. *)
let gen_nat_open (nvars : int) : normal QCheck.Gen.t =
  let open QCheck.Gen in
  sized @@ fix (fun self sz ->
      if sz <= 0 then
        if nvars = 0 then return (Ulam.zero f)
        else
          frequency
            [
              (1, return (Ulam.zero f));
              (2, map (fun i -> (mk_root ((mk_bvar (1 + (i mod nvars)))) [])) small_nat);
            ]
      else
        frequency
          [
            (1, map (Ulam.succ f) (self (sz - 1)));
            (1, self 0);
          ])

(** A random aeq congruence derivation together with its sort. *)
let gen_aeq_drv : (normal * srt) QCheck.Gen.t =
  let open QCheck.Gen in
  let d_id =
    (mk_root ((mk_const f.Ulam.e_lam)) ([ (mk_lam "x" ((mk_root ((mk_bvar 1)) []))); (mk_lam "x" ((mk_root ((mk_bvar 1)) [])));
          (mk_lam "x" ((mk_lam "u" ((mk_root ((mk_bvar 1)) []))))) ]))
  in
  let rec go n =
    if n <= 0 then return (d_id, Ulam.id_tm f)
    else
      frequency
        [
          (1, return (d_id, Ulam.id_tm f));
          ( 2,
            go (n / 2) >>= fun (d1, t1) ->
            go (n / 2) >>= fun (d2, t2) ->
            return
              ( (mk_root ((mk_const f.Ulam.e_app)) ([ t1; t1; t2; t2; d1; d2 ])),
                Ulam.app_tm f t1 t2 ) );
        ]
  in
  sized go >>= fun (d, t) -> return (d, (mk_satom f.Ulam.aeq ([ t; t ])))

(* --- properties --------------------------------------------------------- *)

let prop_id_subst =
  QCheck.Test.make ~count:200 ~name:"[id]m = m"
    (QCheck.make gen_tm)
    (fun m -> Equal.normal (Hsub.sub_normal ((mk_shift 0)) m) m)

let prop_comp_subst =
  (* over a 2-variable nat context: [σ2]([σ1]m) = [comp σ1 σ2]m *)
  let gen =
    QCheck.Gen.(
      triple (gen_nat_open 2) (gen_nat_open 1) (gen_nat_open 0))
  in
  QCheck.Test.make ~count:200 ~name:"substitution composition"
    (QCheck.make gen)
    (fun (m, s1_body, s2_body) ->
      (* σ1 : (x,y) → (z) replaces x by s1_body (over 1 var) and keeps y↦z;
         σ2 : (z) → · replaces z by the closed s2_body *)
      let s1 = (mk_dot (Obj s1_body) ((mk_shift 0))) in
      let s2 = (mk_dot (Obj s2_body) mk_empty) in
      Equal.normal
        (Hsub.sub_normal s2 (Hsub.sub_normal s1 m))
        (Hsub.sub_normal (Hsub.comp s1 s2) m))

let prop_shift_tower =
  QCheck.Test.make ~count:200 ~name:"shift n ∘ shift m = shift (n+m)"
    (QCheck.make QCheck.Gen.(triple (gen_nat_open 1) (int_bound 5) (int_bound 5)))
    (fun (m, n1, n2) ->
      Equal.normal
        (Hsub.sub_normal ((mk_shift n2)) (Hsub.sub_normal ((mk_shift n1)) m))
        (Hsub.sub_normal ((mk_shift (n1 + n2))) m))

let prop_conservativity =
  QCheck.Test.make ~count:100
    ~name:"conservativity: well-sorted derivations re-check at erased types"
    (QCheck.make gen_aeq_drv)
    (fun (d, s) ->
      let a = Check_lfr.check_normal lfr_env Ctxs.empty_sctx d s in
      Check_lf.check_normal lf_env Ctxs.empty_ctx d a;
      Equal.typ a (Erase.srt sg s))

let prop_refinement_strict =
  (* injecting an equivalence axiom keeps the term well-TYPED but makes it
     ill-SORTED: sorts are strictly stronger than types *)
  QCheck.Test.make ~count:100
    ~name:"refinement strictness: e-refl wrecks sorting but not typing"
    (QCheck.make gen_tm)
    (fun t ->
      let d = (mk_root ((mk_const f.Ulam.e_refl)) ([ t ])) in
      let s = (mk_satom f.Ulam.aeq ([ t; t ])) in
      let a = (mk_atom f.Ulam.deq ([ t; t ])) in
      Check_lf.check_normal lf_env Ctxs.empty_ctx d a;
      match Check_lfr.check_normal lfr_env Ctxs.empty_sctx d s with
      | _ -> false
      | exception Belr_support.Error.Belr_error _ -> true)

let prop_embedding_erasure =
  QCheck.Test.make ~count:200 ~name:"erase ∘ embed = id on types"
    (QCheck.make gen_tm)
    (fun t ->
      let a = (mk_atom f.Ulam.deq ([ t; t ])) in
      Equal.typ (Erase.srt sg (Embed.typ a)) a)

let prop_erase_commutes_subst =
  QCheck.Test.make ~count:200
    ~name:"erasure commutes with hereditary substitution"
    (QCheck.make QCheck.Gen.(pair (gen_nat_open 1) (gen_nat_open 0)))
    (fun (body, arg) ->
      (* a sort with a dependency: aeq-style over nat spines is ill-kinded,
         so use a Π-sort over ⌊nat⌋ with a dependent spine *)
      let s = (mk_sembed f.Ulam.nat ([ body ])) in
      ignore s;
      (* commutes on the spine itself *)
      let s1 = Hsub.sub_srt ((mk_dot (Obj arg) mk_empty)) ((mk_sembed f.Ulam.nat ([ body ]))) in
      let a1 =
        Hsub.sub_typ ((mk_dot (Obj arg) mk_empty)) ((mk_atom f.Ulam.nat ([ body ])))
      in
      Equal.typ (Erase.srt sg s1) a1)

let prop_unify_ground =
  QCheck.Test.make ~count:100 ~name:"unification solves against ground terms"
    (QCheck.make gen_tm)
    (fun t ->
      let omega =
        [ Meta.MDTerm ("M", Ctxs.empty_sctx, (mk_sembed f.Ulam.tm [])) ]
      in
      let st = Unify.make ~sg ~omega ~flex:(fun _ -> true) in
      Unify.unify_normal st ((mk_root ((mk_mvar 1 ((mk_shift 0)))) [])) t;
      let rho, omega' = Unify.solve st in
      omega' = []
      && Equal.normal (Belr_lf.Msub.normal 0 rho ((mk_root ((mk_mvar 1 ((mk_shift 0)))) []))) t)

let prop_eta_wellformed =
  QCheck.Test.make ~count:100 ~name:"η-expansion checks at its type"
    (QCheck.make QCheck.Gen.(int_bound 3))
    (fun n ->
      (* x : tm → … → tm (n arrows); η-expand and check *)
      let rec ty k =
        if k = 0 then (mk_atom f.Ulam.tm [])
        else (mk_pi "x" ((mk_atom f.Ulam.tm [])) (ty (k - 1)))
      in
      let a = ty n in
      let g = Ctxs.ctx_push Ctxs.empty_ctx (Ctxs.CDecl ("h", a)) in
      let m = Eta.expand_var_typ (Hsub.sub_typ (mk_shift 1) a) 1 in
      Check_lf.check_normal lf_env g m (Hsub.sub_typ (mk_shift 1) a);
      true)

let suites =
  [
    ( "props",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_id_subst;
          prop_comp_subst;
          prop_shift_tower;
          prop_conservativity;
          prop_refinement_strict;
          prop_embedding_erasure;
          prop_erase_commutes_subst;
          prop_unify_ground;
          prop_eta_wellformed;
        ] );
  ]
