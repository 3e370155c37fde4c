(** Tests for the contextual layer: meta-substitution application,
    contextual sorting/typing, and meta-level conservativity. *)

open Belr_support
open Belr_syntax
open Belr_lf
open Belr_core
open Lf

let f = Fixtures.make ()

let sg = f.Fixtures.sg

let check_tm = Alcotest.testable (Pp.pp_normal (Pp.env ())) Equal.normal

let v i : normal = (mk_root ((mk_bvar i)) [])

let fails name thunk =
  Alcotest.test_case name `Quick (fun () ->
      match thunk () with
      | exception Error.Belr_error _ -> ()
      | exception Error.Violation _ -> ()
      | _ -> Alcotest.failf "%s: expected failure, but succeeded" name)

let ok name thunk = Alcotest.test_case name `Quick thunk

let nat_s = (mk_sembed f.Fixtures.nat [])

(* Ω = u : (x:nat . ⌊nat⌋) *)
let psi_x_nat =
  Ctxs.sctx_push Ctxs.empty_sctx (Ctxs.SCDecl ("x", nat_s))

let omega_u = [ Meta.MDTerm ("u", psi_x_nat, nat_s) ]

let msub_tests =
  [
    ok "instantiating u triggers hereditary substitution" (fun () ->
        (* u := (x. s x); then ⟦θ⟧(u[z]) = s z *)
        let theta =
          Meta.MDot
            ( Meta.MOTerm
                ( Meta.hat_of_sctx psi_x_nat,
                  (mk_root ((mk_const f.Fixtures.s)) ([ v 1 ])) ),
              Meta.MShift 0 )
        in
        let t = (mk_root ((mk_mvar 1 ((mk_dot (Obj (Fixtures.zero f)) mk_empty)))) []) in
        Alcotest.check check_tm "s z"
          (Fixtures.succ f (Fixtures.zero f))
          (Msub.normal 0 theta t));
    ok "meta-shift renumbers meta-variables" (fun () ->
        let t = (mk_root ((mk_mvar 1 ((mk_shift 0)))) []) in
        match Msub.normal 0 (Meta.MShift 2) t with
        | Root (MVar (3, Shift 0), []) -> ()
        | t' -> Alcotest.failf "got %a" (Pp.pp_normal (Pp.env ())) t');
    ok "cutoff protects locally bound meta-variables" (fun () ->
        let t = (mk_root ((mk_mvar 1 ((mk_shift 0)))) []) in
        Alcotest.check check_tm "unchanged" t (Msub.normal 1 (Meta.MShift 2) t));
    ok "context variable instantiation splices entries" (fun () ->
        (* Ψ = ψ, x : ⌊nat⌋ with ψ := (b : xeW-block) *)
        let psi =
          {
            Ctxs.s_var = Some 1;
            Ctxs.s_promoted = false;
            Ctxs.s_decls = [ Ctxs.SCDecl ("x", nat_s) ];
          }
        in
        let inst = Meta.MOCtx (Fixtures.xa_sctx f 1) in
        let psi' = Msub.sctx 0 (Meta.MDot (inst, Meta.MShift 0)) psi in
        Alcotest.(check int) "two entries" 2 (List.length psi'.Ctxs.s_decls);
        Alcotest.(check bool) "no var" true (psi'.Ctxs.s_var = None));
    ok "hat splicing follows context instantiation" (fun () ->
        let h = { Meta.hat_var = Some 1; Meta.hat_names = [ "x" ] } in
        let inst = Meta.MOCtx (Fixtures.xa_sctx f 2) in
        let h' = Msub.hat 0 (Meta.MDot (inst, Meta.MShift 0)) h in
        Alcotest.(check int) "names" 3 (List.length h'.Meta.hat_names));
    ok "mcomp agrees with sequential application" (fun () ->
        let theta1 = Meta.MShift 1 in
        let theta2 =
          Meta.MDot
            ( Meta.MOTerm
                ( Meta.hat_of_sctx psi_x_nat,
                  (mk_root ((mk_const f.Fixtures.s)) ([ v 1 ])) ),
              Meta.MShift 0 )
        in
        let t = (mk_root ((mk_mvar 1 ((mk_shift 0)))) []) in
        (* θ1 sends u₁ to u₂; θ2 has a dot for u₁ only, so composite sends
           u₁ ↦ u₂ shifted through θ2's tail *)
        Alcotest.check check_tm "compose"
          (Msub.normal 0 theta2 (Msub.normal 0 theta1 t))
          (Msub.normal 0 (Msub.mcomp theta1 theta2) t));
  ]

(* --- meta renaming: Msub at MShift ---------------------------------------- *)

(** Random normals over meta-variables [1..5]: [MVar]s (with and without
    spines, under shifts and under substitutions carrying more terms),
    [PVar]s, projections out of parameter variables, and LF binders. *)
let gen_mnormal : normal QCheck.Gen.t =
  let open QCheck.Gen in
  let midx = int_range 1 5 in
  sized
  @@ fix (fun self sz ->
         let leaf =
           frequency
             [
               (1, return (v 1));
               (1, return (Fixtures.zero f));
               (2, map (fun u -> mk_root (mk_mvar u (mk_shift 0)) []) midx);
               (1, map (fun p -> mk_root (mk_pvar p (mk_shift 1)) []) midx);
               ( 1,
                 map2
                   (fun p k -> mk_root (mk_proj (mk_pvar p (mk_shift 0)) k) [])
                   midx (int_range 1 2) );
             ]
         in
         if sz <= 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (2, map (Fixtures.succ f) (self (sz - 1)));
               (1, map (mk_lam "x") (self (sz - 1)));
               ( 2,
                 map3
                   (fun u m n -> mk_root (mk_mvar u (mk_dot (Obj m) (mk_shift 0))) [ n ])
                   midx (self (sz / 2)) (self (sz / 2)) );
             ])

(** Random sorts whose spines are {!gen_mnormal}s, some under a [Π]. *)
let gen_msrt_body : srt QCheck.Gen.t =
  let open QCheck.Gen in
  map3
    (fun m n dep ->
      let q = mk_satom f.Fixtures.aeq [ m; n ] in
      if dep then mk_spi "x" (mk_sembed f.Fixtures.tm []) q else q)
    gen_mnormal gen_mnormal bool

(** A boxed sort [[ψ, x : S |- S']] over the context variable [ψ]. *)
let gen_msrt : Meta.msrt QCheck.Gen.t =
  let open QCheck.Gen in
  map3
    (fun i q q' ->
      let psi =
        { Ctxs.s_var = Some i; Ctxs.s_promoted = false; Ctxs.s_decls = [ Ctxs.SCDecl ("x", q) ] }
      in
      Meta.MSTerm (psi, q'))
    (int_range 1 5) gen_msrt_body gen_msrt_body

(* The meta indices of a term, in traversal order. *)
let rec mv_normal acc = function
  | Lam (_, n) -> mv_normal acc n
  | Root (h, sp) -> List.fold_left mv_normal (mv_head acc h) sp

and mv_head acc = function
  | Const _ | BVar _ -> acc
  | MVar (u, s) | PVar (u, s) -> mv_sub (u :: acc) s
  | Proj (b, _) -> mv_head acc b

and mv_sub acc = function
  | Empty | Shift _ -> acc
  | Dot (Obj m, s) -> mv_sub (mv_normal acc m) s
  | Dot (Tup t, s) -> mv_sub (List.fold_left mv_normal acc t) s
  | Dot (Undef, s) -> mv_sub acc s

let rec mv_srt acc = function
  | SAtom (_, sp) | SEmbed (_, sp) -> List.fold_left mv_normal acc sp
  | SPi (_, q, q') -> mv_srt (mv_srt acc q) q'

let mv_msrt = function
  | Meta.MSTerm (psi, q) ->
      let acc = Option.to_list psi.Ctxs.s_var in
      let acc =
        List.fold_left
          (fun acc -> function
            | Ctxs.SCDecl (_, q) -> mv_srt acc q
            | Ctxs.SCBlock _ -> acc)
          acc psi.Ctxs.s_decls
      in
      mv_srt acc q
  | _ -> []

let gen_renaming = QCheck.Gen.(pair (int_bound 2) (int_range 1 3))

let prop_rename_moves_exactly =
  QCheck.Test.make ~count:300
    ~name:"MShift d at cutoff c moves exactly the meta indices above c by d"
    (QCheck.make QCheck.Gen.(triple gen_mnormal gen_msrt gen_renaming))
    (fun (m, ms, (c, d)) ->
      let move = List.map (fun i -> if i > c then i + d else i) in
      let th = Meta.MShift d in
      mv_normal [] (Msub.normal c th m) = move (mv_normal [] m)
      && mv_msrt (Msub.msrt c th ms) = move (mv_msrt ms))

let prop_rename_back =
  QCheck.Test.make ~count:300
    ~name:"renaming by d and back by -d is the identity"
    (QCheck.make QCheck.Gen.(triple gen_mnormal gen_msrt_body gen_renaming))
    (fun (m, q, (c, d)) ->
      let there = Meta.MShift d and back = Meta.MShift (-d) in
      Equal.deep_normal (Msub.normal c back (Msub.normal c there m)) m
      && Equal.deep_srt (Msub.srt c back (Msub.srt c there q)) q)

let prop_rename_zero_phys =
  QCheck.Test.make ~count:100 ~name:"MShift 0 returns its input physically"
    (QCheck.make QCheck.Gen.(triple gen_mnormal gen_msrt_body (int_bound 2)))
    (fun (m, q, c) ->
      (* in a fresh store state [m] and [q] are not representatives, so
         a rebuild of them would be physically fresh *)
      Store.with_state (Store.fresh_state ()) (fun () ->
          Msub.normal c (Meta.MShift 0) m == m
          && Msub.srt c (Meta.MShift 0) q == q))

(* --- contextual sorting ------------------------------------------------ *)

let sorting_tests =
  let env = Check_lfr.make_env sg omega_u in
  [
    ok "Ω = u : (x:nat . nat) is well-formed and erases" (fun () ->
        let delta = Check_meta.wf_mctx sg omega_u in
        Check_meta_t.wf_mctx sg delta);
    ok "boxed term checks: (x . s x) : (x:nat . nat)" (fun () ->
        Check_meta.check_mobj env
          (Meta.MOTerm
             (Meta.hat_of_sctx psi_x_nat, (mk_root ((mk_const f.Fixtures.s)) ([ v 1 ]))))
          (Meta.MSTerm (psi_x_nat, nat_s)));
    fails "boxed term with mismatched hat fails" (fun () ->
        Check_meta.check_mobj env
          (Meta.MOTerm
             ( { Meta.hat_var = None; Meta.hat_names = [] },
               (mk_root ((mk_const f.Fixtures.s)) ([ v 1 ])) ))
          (Meta.MSTerm (psi_x_nat, nat_s)));
    ok "context object checks against its refinement schema" (fun () ->
        Check_meta.check_mobj env
          (Meta.MOCtx (Fixtures.xa_sctx f 2))
          (Meta.MSCtx f.Fixtures.xag));
    fails "context object with foreign blocks fails schema sorting"
      (fun () ->
        let bad =
          Ctxs.sctx_push Ctxs.empty_sctx
            (Ctxs.SCBlock ("b", Embed.elem ~refines:0 f.Fixtures.xd_elem, []))
        in
        Check_meta.check_mobj env (Meta.MOCtx bad) (Meta.MSCtx f.Fixtures.xag));
    ok "parameter object: a concrete block instantiates #b" (fun () ->
        let psi1 = Fixtures.xa_sctx f 1 in
        let env1 = Check_lfr.make_env sg [] in
        Check_meta.check_mobj env1
          (Meta.MOParam (Meta.hat_of_sctx psi1, (mk_bvar 1)))
          (Meta.MSParam (psi1, f.Fixtures.xa_selem, [])));
    ok "meta-level conservativity: erased objects check at erased types"
      (fun () ->
        let mo =
          Meta.MOTerm
            (Meta.hat_of_sctx psi_x_nat, (mk_root ((mk_const f.Fixtures.s)) ([ v 1 ])))
        in
        let ms = Meta.MSTerm (psi_x_nat, nat_s) in
        Check_meta.check_mobj env mo ms;
        let delta = Erase.mctx sg omega_u in
        let env_t = Check_lf.make_env sg delta in
        Check_meta_t.check_mobj env_t (Erase.mobj sg mo) (Erase.msrt sg ms));
    ok "meta-substitution checking" (fun () ->
        let theta =
          Meta.MDot
            ( Meta.MOTerm
                ( Meta.hat_of_sctx psi_x_nat,
                  (mk_root ((mk_const f.Fixtures.s)) ([ v 1 ])) ),
              Meta.MShift 0 )
        in
        (* θ : (Ω, u) valid in Ω itself *)
        let env' = Check_lfr.make_env sg omega_u in
        Check_meta.check_msub env' theta (omega_u @ omega_u) |> ignore;
        ());
  ]

let suites =
  [
    ("meta.msub", msub_tests);
    ( "meta.renaming",
      List.map QCheck_alcotest.to_alcotest
        [ prop_rename_moves_exactly; prop_rename_back; prop_rename_zero_phys ] );
    ("meta.sorting", sorting_tests);
  ]
