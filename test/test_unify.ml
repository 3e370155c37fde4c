(** Tests for higher-order pattern unification: solving, inversion,
    occurs check, subsumption-aware sort unification, and the (ρ, Ω′)
    extraction used by branch checking. *)

open Belr_support
open Belr_syntax
open Belr_lf
open Belr_unify
open Lf

let f = Fixtures.make ()

let sg = f.Fixtures.sg

let check_tm = Alcotest.testable (Pp.pp_normal (Pp.env ())) Equal.normal

let v i : normal = (mk_root ((mk_bvar i)) [])

let fails name thunk =
  Alcotest.test_case name `Quick (fun () ->
      match thunk () with
      | exception Unify.Unify _ -> ()
      | _ -> Alcotest.failf "%s: expected unification failure" name)

let ok name thunk = Alcotest.test_case name `Quick thunk

let tm_s = (mk_sembed f.Fixtures.tm [])

(* In a declaration stored at meta-index [i], the context variable ψ is
   referenced by its distance from that declaration (indices are relative
   to the declaration's own prefix of Ω). *)
let psi_at k : Ctxs.sctx =
  { Ctxs.s_var = Some k; Ctxs.s_promoted = false; Ctxs.s_decls = [] }

let psi_x_at k : Ctxs.sctx =
  { Ctxs.s_var = Some k; Ctxs.s_promoted = false;
    Ctxs.s_decls = [ Ctxs.SCDecl ("x", tm_s) ] }

(* The ceq-style meta-context, innermost first:
   N'(1), M'(2) : (ψ, x:tm).⌊tm⌋ ; N(3), M(4) : (ψ).⌊tm⌋ ; ψ(5) : xaG *)
let omega_ceq : Meta.mctx =
  [
    Meta.MDTerm ("N'", psi_x_at 4, tm_s);
    Meta.MDTerm ("M'", psi_x_at 3, tm_s);
    Meta.MDTerm ("N", psi_at 2, tm_s);
    Meta.MDTerm ("M", psi_at 1, tm_s);
    Meta.MDCtx ("psi", f.Fixtures.xag);
  ]

let mvar i : normal = (mk_root ((mk_mvar i ((mk_shift 0)))) [])

let lam_of i : normal = (mk_root ((mk_const f.Fixtures.lam)) ([ (mk_lam "x" (mvar i)) ]))

let all_flex _ = true

let pattern_flex n i = i <= n

let unify_tests =
  [
    ok "flex-rigid: M ≐ lam (\\x. M') solves M" (fun () ->
        let st = Unify.make ~sg ~omega:omega_ceq ~flex:all_flex in
        Unify.unify_normal st (mvar 4) (lam_of 2);
        let rho, omega' = Unify.solve st in
        Alcotest.(check int) "4 unsolved" 4 (List.length omega');
        (* applying ρ to M yields lam \x. M' with M' renumbered to its
           position in Ω′ *)
        let m_inst = Msub.normal 0 rho (mvar 4) in
        match m_inst with
        | Root (Const c, [ Lam (_, Root (MVar (_, Shift 0), [])) ])
          when c = f.Fixtures.lam ->
            ()
        | t -> Alcotest.failf "unexpected %a" (Pp.pp_normal (Pp.env ())) t);
    ok "the ceq e-lam case: both M and N solved consistently" (fun () ->
        let st = Unify.make ~sg ~omega:omega_ceq ~flex:all_flex in
        (* deq M N ≐ deq (lam M') (lam N') as sorts with subsumption *)
        let s_scrut = (mk_sembed f.Fixtures.deq ([ mvar 4; mvar 3 ])) in
        let s_pat = (mk_sembed f.Fixtures.deq ([ lam_of 2; lam_of 1 ])) in
        Unify.unify_srt st s_pat s_scrut;
        let rho, omega' = Unify.solve st in
        Alcotest.(check int) "3 unsolved" 3 (List.length omega');
        let s' = Msub.srt 0 rho s_scrut in
        let s'' = Msub.srt 0 rho s_pat in
        Alcotest.(check bool) "instances agree" true (Equal.srt s' s''));
    ok "subsumption-aware sort unification (aeq ≤ ⌊deq⌋)" (fun () ->
        let st = Unify.make ~sg ~omega:omega_ceq ~flex:all_flex in
        let got = (mk_satom f.Fixtures.aeq ([ mvar 4; mvar 4 ])) in
        let want = (mk_sembed f.Fixtures.deq ([ mvar 4; mvar 4 ])) in
        Unify.unify_srt ~leq:true st got want);
    fails "subsumption is rejected without ~leq" (fun () ->
        let st = Unify.make ~sg ~omega:omega_ceq ~flex:all_flex in
        Unify.unify_srt st
          ((mk_satom f.Fixtures.aeq ([ mvar 4; mvar 4 ])))
          ((mk_sembed f.Fixtures.deq ([ mvar 4; mvar 4 ]))));
    ok "rigid-rigid success" (fun () ->
        let st = Unify.make ~sg ~omega:omega_ceq ~flex:all_flex in
        Unify.unify_normal st (lam_of 2) (lam_of 2));
    fails "rigid-rigid constant clash" (fun () ->
        let st = Unify.make ~sg ~omega:omega_ceq ~flex:all_flex in
        Unify.unify_normal st
          ((mk_root ((mk_const f.Fixtures.lam)) ([ (mk_lam "x" (v 1)) ])))
          ((mk_root ((mk_const f.Fixtures.app)) ([ mvar 4; mvar 3 ]))));
    fails "occurs check" (fun () ->
        let st = Unify.make ~sg ~omega:omega_ceq ~flex:all_flex in
        (* M ≐ app M M *)
        Unify.unify_normal st (mvar 4)
          ((mk_root ((mk_const f.Fixtures.app)) ([ mvar 4; mvar 4 ]))));
    ok "matching mode: only pattern variables solvable" (fun () ->
        let st = Unify.make ~sg ~omega:omega_ceq ~flex:(pattern_flex 2) in
        (* pattern M'(2) against rigid ground term: M' := lam \x.x,
           weakened to (ψ, x) *)
        let ground =
          Hsub.sub_normal (mk_shift 1) (Fixtures.id_tm f)
        in
        Unify.unify_normal st (mvar 2) ground;
        let rho, _ = Unify.solve st in
        Alcotest.check check_tm "solved" ground (Msub.normal 0 rho (mvar 2)));
    fails "matching mode refuses to solve scrutinee variables" (fun () ->
        let st = Unify.make ~sg ~omega:omega_ceq ~flex:(pattern_flex 2) in
        (* would need to solve M (index 4), which is not flex *)
        Unify.unify_normal st (mvar 4) (Fixtures.id_tm f));
    ok "inversion through a proper pattern substitution" (fun () ->
        (* u : (x:tm).tm used at σ = (x ↦ y₂) in a 3-variable context;
           u[σ] ≐ app y₂ y₂ solves u := app x x *)
        let psi_u =
          Ctxs.sctx_push Ctxs.empty_sctx (Ctxs.SCDecl ("x", tm_s))
        in
        let omega = [ Meta.MDTerm ("u", psi_u, tm_s) ] in
        let st = Unify.make ~sg ~omega ~flex:all_flex in
        let sigma = (mk_dot (Obj (v 2)) ((mk_shift 3))) in
        let t1 = (mk_root ((mk_mvar 1 sigma)) []) in
        let t2 = (mk_root ((mk_const f.Fixtures.app)) ([ v 2; v 2 ])) in
        Unify.unify_normal st t1 t2;
        let rho, _ = Unify.solve st in
        (* read back the solution by applying ρ to u[id] *)
        let sol = Msub.normal 0 rho (mvar 1) in
        Alcotest.check check_tm "app x x"
          ((mk_root ((mk_const f.Fixtures.app)) ([ v 1; v 1 ])))
          sol);
    fails "inversion fails when a variable escapes" (fun () ->
        let psi_u =
          Ctxs.sctx_push Ctxs.empty_sctx (Ctxs.SCDecl ("x", tm_s))
        in
        let omega = [ Meta.MDTerm ("u", psi_u, tm_s) ] in
        let st = Unify.make ~sg ~omega ~flex:all_flex in
        let sigma = (mk_dot (Obj (v 2)) ((mk_shift 3))) in
        let t1 = (mk_root ((mk_mvar 1 sigma)) []) in
        (* y₁ is not in the image of σ *)
        let t2 = (mk_root ((mk_const f.Fixtures.app)) ([ v 1; v 2 ])) in
        Unify.unify_normal st t1 t2);
    ok "parameter variable solving (#b ≐ concrete block)" (fun () ->
        let psi1 = Fixtures.xa_sctx f 1 in
        let omega =
          [ Meta.MDParam ("b", psi1, f.Fixtures.xa_selem, []) ]
        in
        let st = Unify.make ~sg ~omega ~flex:all_flex in
        Unify.unify_normal st
          ((mk_root ((mk_proj ((mk_pvar 1 ((mk_shift 0)))) 2)) []))
          ((mk_root ((mk_proj ((mk_bvar 1)) 2)) []));
        let rho, omega' = Unify.solve st in
        Alcotest.(check int) "all solved" 0 (List.length omega');
        match Msub.normal 0 rho ((mk_root ((mk_proj ((mk_pvar 1 ((mk_shift 0)))) 2)) [])) with
        | Root (Proj (BVar 1, 2), []) -> ()
        | t -> Alcotest.failf "unexpected %a" (Pp.pp_normal (Pp.env ())) t);
    fails "parameter projections with different indices clash" (fun () ->
        let psi1 = Fixtures.xa_sctx f 1 in
        let omega = [ Meta.MDParam ("b", psi1, f.Fixtures.xa_selem, []) ] in
        let st = Unify.make ~sg ~omega ~flex:all_flex in
        Unify.unify_normal st
          ((mk_root ((mk_proj ((mk_pvar 1 ((mk_shift 0)))) 2)) []))
          ((mk_root ((mk_proj ((mk_bvar 1)) 1)) [])));
    ok "residual context is topologically ordered" (fun () ->
        let st = Unify.make ~sg ~omega:omega_ceq ~flex:all_flex in
        Unify.unify_normal st (mvar 4) (lam_of 2);
        Unify.unify_normal st (mvar 3) (lam_of 1);
        let _, omega' = Unify.solve st in
        (* Ω′ = N', M', ψ (innermost first ending with ψ) *)
        Alcotest.(check int) "3 left" 3 (List.length omega');
        match List.rev omega' with
        | Meta.MDCtx _ :: _ -> ()
        | _ -> Alcotest.fail "context variable should be outermost");
  ]

(* --- the solution extraction against its unmemoized oracle --------------- *)

let rec eq_msub (t1 : Meta.msub) (t2 : Meta.msub) =
  match (t1, t2) with
  | Meta.MShift n1, Meta.MShift n2 -> n1 = n2
  | Meta.MDot (o1, t1'), Meta.MDot (o2, t2') ->
      Equal.mobj o1 o2 && eq_msub t1' t2'
  | _ -> false

let eq_mdecl (d1 : Meta.mdecl) (d2 : Meta.mdecl) =
  match (d1, d2) with
  | Meta.MDTerm (n1, p1, q1), Meta.MDTerm (n2, p2, q2) ->
      n1 = n2 && Equal.sctx p1 p2 && Equal.srt q1 q2
  | Meta.MDSub (n1, p1, q1), Meta.MDSub (n2, p2, q2) ->
      n1 = n2 && Equal.sctx p1 p2 && Equal.sctx q1 q2
  | Meta.MDCtx (n1, h1), Meta.MDCtx (n2, h2) -> n1 = n2 && h1 = h2
  | Meta.MDParam (n1, p1, f1, ms1), Meta.MDParam (n2, p2, f2, ms2) ->
      n1 = n2 && Equal.sctx p1 p2 && Equal.selem f1 f2 && Equal.spine ms1 ms2
  | _ -> false

let count name = Telemetry.counter_total (Telemetry.counter name)

(** Run [f] with the telemetry counters zeroed and recording. *)
let with_telemetry f =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f

(** Unify with [setup], extract with [Unify.solve], and require the
    oracle's [(ρ, Ω′)] on the same state.  Returns the number of solved
    variables and of θ builds the problem cost. *)
let against_oracle setup : int * int =
  let st, (rho, omega') =
    with_telemetry (fun () ->
        let st = setup () in
        (st, Unify.solve st))
  in
  let rho_ref, omega'_ref = Ref_unify.solve st in
  Alcotest.(check bool) "ρ agrees with the oracle" true (eq_msub rho rho_ref);
  Alcotest.(check bool)
    "Ω′ agrees with the oracle" true
    (List.length omega' = List.length omega'_ref
    && List.for_all2 eq_mdecl omega' omega'_ref);
  let solved =
    Array.fold_left (fun k o -> if o = None then k else k + 1) 0 st.Unify.sol
  in
  Alcotest.(check int)
    "Ω′ holds exactly the unsolved variables"
    (Array.length st.Unify.sol - solved)
    (List.length omega');
  (solved, count "unify.solution_substs")

(** A world with one parameter, [w : {A : nat} block (x : tm)], and a
    concrete context [c : w z] extended by it. *)
let w_selem : Ctxs.selem =
  {
    Ctxs.f_name = "w";
    Ctxs.f_refines = 0;
    Ctxs.f_params = [ ("A", mk_sembed f.Fixtures.nat []) ];
    Ctxs.f_block = [ ("x", tm_s) ];
  }

let zero = Fixtures.zero f

let psi_c : Ctxs.sctx =
  Ctxs.sctx_push Ctxs.empty_sctx (Ctxs.SCBlock ("c", w_selem, [ zero ]))

let oracle_problems =
  [
    ( "nothing solved",
      0,
      fun () ->
        let st = Unify.make ~sg ~omega:omega_ceq ~flex:all_flex in
        Unify.unify_normal st (lam_of 2) (lam_of 2);
        Unify.unify_srt st
          (mk_sembed f.Fixtures.deq [ mvar 4; mvar 3 ])
          (mk_sembed f.Fixtures.deq [ mvar 4; mvar 3 ]);
        st );
    ( "a chain: M's solution mentions M', solved after it",
      2,
      fun () ->
        let st = Unify.make ~sg ~omega:omega_ceq ~flex:all_flex in
        (* M := lam \x. M', then M' := app N' N' *)
        Unify.unify_normal st (mvar 4) (lam_of 2);
        Unify.unify_normal st (mvar 2) (Fixtures.app_tm f (mvar 1) (mvar 1));
        st );
    ( "dependent matching solves outer (non-pattern) variables",
      2,
      fun () ->
        (* pattern variables N'(1), M'(2); the scrutinee's M(4) and N(3)
           are outer, solvable because the scrutinee is a literal box *)
        let st = Unify.make ~sg ~omega:omega_ceq ~flex:all_flex in
        let psi = psi_at 5 in
        Unify.unify_msrt ~leq:true st
          (Meta.MSTerm (psi, tm_s))
          (Meta.MSTerm (psi, tm_s));
        let hat = Meta.hat_of_sctx psi in
        Unify.unify_mobj st
          (Meta.MOTerm (hat, Fixtures.app_tm f (mvar 4) (mvar 3)))
          (Meta.MOTerm (hat, Fixtures.app_tm f (lam_of 2) (lam_of 1)));
        st );
    ( "a parameter variable refined by refine_solved_params",
      2,
      fun () ->
        (* #b : #[c : w z ⊢ w A0] (1), A0 : [ ⊢ nat] (2): matching #b.1
           against c.1 solves #b, whose world then grounds A0 := z *)
        let omega =
          [
            Meta.MDParam
              ("b", psi_c, w_selem, [ mk_root (mk_mvar 1 (mk_shift 1)) [] ]);
            Meta.MDTerm ("A0", Ctxs.empty_sctx, mk_sembed f.Fixtures.nat []);
          ]
        in
        let st = Unify.make ~sg ~omega ~flex:all_flex in
        Unify.unify_normal st
          (mk_root (mk_proj (mk_pvar 1 (mk_shift 0)) 1) [])
          (mk_root (mk_proj (mk_bvar 1) 1) []);
        Unify.refine_solved_params st;
        st );
  ]

let oracle_tests =
  List.map
    (fun (name, k, setup) ->
      ok name (fun () ->
          let solved, substs = against_oracle setup in
          Alcotest.(check int) "solved variables" k solved;
          Alcotest.(check bool)
            (Printf.sprintf "θ built at most %d times (built %d)" k substs)
            true (substs <= k)))
    oracle_problems
  @ [
      ok "checking the shipped developments builds θ at most once per solved \
          variable"
        (fun () ->
          with_telemetry (fun () ->
              List.iter
                (fun (file, src) ->
                  let sink = Diagnostics.sink () in
                  ignore
                    (Belr_parser.Driver.check_sources sink [ (file, src) ]);
                  Alcotest.(check int)
                    (file ^ " checks") 0
                    (Diagnostics.error_count sink))
                [
                  ("equal.bel", Belr_kits.Surface.full_src);
                  ("typed_equal.bel", Belr_kits.Typed_equal.full_src);
                  ("values.bel", Belr_kits.Values.src);
                ]);
          let problems = count "unify.problems"
          and solved = count "unify.solved_vars"
          and substs = count "unify.solution_substs" in
          Alcotest.(check bool) "unification ran" true (problems > 0);
          Alcotest.(check bool)
            (Printf.sprintf "%d θ builds for %d solved variables" substs solved)
            true (substs <= solved));
    ]

let suites = [ ("unify", unify_tests); ("unify oracle", oracle_tests) ]
