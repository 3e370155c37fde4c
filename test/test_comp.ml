(** End-to-end tests for the computation level: the §2 development
    (aeq-refl / aeq-sym / aeq-trans / ceq) sort-checks, its erasure
    type-checks (conservativity, Thm 3.2.2 at the computation level), and
    the proofs {e run} as programs producing checkable derivations. *)

open Belr_support
open Belr_syntax
open Belr_core
open Belr_comp
open Belr_kits
open Lf

(** The §2 development, loaded from source; its constants by name. *)
let dev = lazy (Surface.load ())

let c name = mk_const (Lookup.find_const (Lazy.force dev) name)

let r name = Comp.RecConst (Lookup.find_rec (Lazy.force dev) name)

let aeq () = Lookup.find_srt (Lazy.force dev) "aeq"

(** The identity λ-term [lam \x. x]. *)
let id_tm () = mk_root (c "lam") [ mk_lam "x" (mk_root (mk_bvar 1) []) ]

(** The context [b : xeW] of one block of the refined schema [xaG]. *)
let xa_sctx1 () =
  match Belr_parser.Elab.find_world (Lazy.force dev) "xeW" with
  | Some (Belr_parser.Elab.Wsort f) ->
      Ctxs.sctx_push Ctxs.empty_sctx (Ctxs.SCBlock ("b", f, []))
  | _ -> Alcotest.fail "xeW not found"

let ok name thunk = Alcotest.test_case name `Quick thunk

let fails name thunk =
  Alcotest.test_case name `Quick (fun () ->
      match thunk () with
      | exception Error.Belr_error _ -> ()
      | exception Error.Violation _ -> ()
      | _ -> Alcotest.failf "%s: expected failure" name)

let hat_empty = { Meta.hat_var = None; Meta.hat_names = [] }

let empty_sctx = Ctxs.empty_sctx

(* Closed terms and derivations over the §2 signature *)

let build_tests =
  [
    ok "the full §2 development sort-checks and erases (conservativity)"
      (fun () -> ignore (Lazy.force dev));
    ok "the type-level run gives every referenced function its erased type"
      (fun () ->
        let sg = Lazy.force dev in
        let id = Lookup.find_rec sg "aeq-refl" in
        let re = Belr_lf.Sign.rec_entry sg id in
        let body =
          match re.Belr_lf.Sign.r_body with
          | Some b -> Erase.exp sg b
          | None -> Alcotest.fail "aeq-refl has no body"
        in
        Alcotest.(check bool)
          "aeq-refl references itself" true
          (List.mem id (Embed_t.rec_refs body));
        Embed_t.check_exp_t sg [] [] body re.Belr_lf.Sign.r_typ;
        (* without the erased types the recursive call synthesizes its
           sort, and the type-level run rejects it *)
        match
          Check_comp.check_exp
            (Check_comp.make_env sg [] [])
            (Embed_t.exp_t sg body)
            (Embed_t.ctyp_t sg re.Belr_lf.Sign.r_typ)
        with
        | exception Error.Belr_error _ -> ()
        | () -> Alcotest.fail "the sort of aeq-refl passed for its type");
  ]

(* helper: apply a rec function to a context and meta-objects, then boxes *)
let mapps f args = List.fold_left (fun e a -> Comp.MApp (e, a)) f args

let apps f args = List.fold_left (fun e a -> Comp.App (e, a)) f args

let run_tests =
  [
    ok "running aeq-refl on (app id id) yields a checkable aeq derivation"
      (fun () ->
        let sg = Lazy.force dev in
        let idt = id_tm () in
        let t = mk_root (c "app") [ idt; idt ] in
        let call =
          mapps
            (r "aeq-refl")
            [ Meta.MOCtx empty_sctx; Meta.MOTerm (hat_empty, t) ]
        in
        let v = Eval.eval (Eval.make_env sg) call in
        let res =
          match Eval.as_box v with
          | Meta.MOTerm (_, m) -> m
          | _ -> Alcotest.fail "expected a boxed term"
        in
        (* the result is a genuine aeq derivation *)
        let env = Check_lfr.make_env sg [] in
        ignore
          (Check_lfr.check_normal env empty_sctx res
             ((mk_satom (aeq ()) ([ t; t ])))));
    ok "running ceq on (e-trans (e-refl id) (e-sym (e-refl id)))" (fun () ->
        let sg = Lazy.force dev in
        let idt = id_tm () in
        let refl = (mk_root (c "e-refl") ([ idt ])) in
        let sym = (mk_root (c "e-sym") ([ idt; idt; refl ])) in
        let dtrans =
          (mk_root (c "e-trans") ([ idt; idt; idt; refl; sym ]))
        in
        let call =
          Comp.App
            ( mapps
                (r "ceq")
                [
                  Meta.MOCtx empty_sctx;
                  Meta.MOTerm (hat_empty, idt);
                  Meta.MOTerm (hat_empty, idt);
                ],
              Comp.Box (Meta.MOTerm (hat_empty, dtrans)) )
        in
        let v = Eval.eval (Eval.make_env sg) call in
        let res =
          match Eval.as_box v with
          | Meta.MOTerm (_, m) -> m
          | _ -> Alcotest.fail "expected a boxed term"
        in
        let env = Check_lfr.make_env sg [] in
        ignore
          (Check_lfr.check_normal env empty_sctx res
             ((mk_satom (aeq ()) ([ idt; idt ])))));
    ok "running ceq through a binder (e-lam with e-sym under it)" (fun () ->
        let sg = Lazy.force dev in
        (* deq (lam \x.x) (lam \x.x) via e-lam, whose body uses e-sym on
           the variable's equality assumption: exercises context
           extension, promotion, and the parameter-variable case *)
        let idf = (mk_lam "x" ((mk_root ((mk_bvar 1)) []))) in
        let body =
          (* λx.λu. e-sym x x u *)
          (mk_lam "x" ((mk_lam "u" ((mk_root (c "e-sym") ([ (mk_root ((mk_bvar 2)) []); (mk_root ((mk_bvar 2)) []);
                        (mk_root ((mk_bvar 1)) []) ]))))))
        in
        let dlam = (mk_root (c "e-lam") ([ idf; idf; body ])) in
        let idt = id_tm () in
        let call =
          Comp.App
            ( mapps
                (r "ceq")
                [
                  Meta.MOCtx empty_sctx;
                  Meta.MOTerm (hat_empty, idt);
                  Meta.MOTerm (hat_empty, idt);
                ],
              Comp.Box (Meta.MOTerm (hat_empty, dlam)) )
        in
        let v = Eval.eval (Eval.make_env sg) call in
        let res =
          match Eval.as_box v with
          | Meta.MOTerm (_, m) -> m
          | _ -> Alcotest.fail "expected a boxed term"
        in
        let env = Check_lfr.make_env sg [] in
        ignore
          (Check_lfr.check_normal env empty_sctx res
             ((mk_satom (aeq ()) ([ idt; idt ])))));
    ok "running aeq-sym in a non-empty context" (fun () ->
        let sg = Lazy.force dev in
        (* Ψ = b : xeW; run aeq-sym on [Ψ ⊢ b.2] *)
        let psi1 = xa_sctx1 () in
        let h = Meta.hat_of_sctx psi1 in
        let b1 = (mk_root ((mk_proj ((mk_bvar 1)) 1)) []) in
        let b2 = (mk_root ((mk_proj ((mk_bvar 1)) 2)) []) in
        let call =
          Comp.App
            ( mapps
                (r "aeq-sym")
                [
                  Meta.MOCtx psi1;
                  Meta.MOTerm (h, b1);
                  Meta.MOTerm (h, b1);
                ],
              Comp.Box (Meta.MOTerm (h, b2)) )
        in
        let v = Eval.eval (Eval.make_env sg) call in
        let res =
          match Eval.as_box v with
          | Meta.MOTerm (_, m) -> m
          | _ -> Alcotest.fail "expected a boxed term"
        in
        let env = Check_lfr.make_env sg [] in
        ignore
          (Check_lfr.check_normal env psi1 res
             ((mk_satom (aeq ()) ([ b1; b1 ])))));
    fails "ill-sorted bodies are rejected by the comp checker" (fun () ->
        let sg = Lazy.force dev in
        (* claim [· ⊢ aeq id id] by boxing an e-refl derivation: e-refl
           has no aeq sort, so this must fail *)
        let idt = id_tm () in
        let bad = (mk_root (c "e-refl") ([ idt ])) in
        let env = Check_comp.make_env sg [] [] in
        Check_comp.check_exp env
          (Comp.Box (Meta.MOTerm (hat_empty, bad)))
          (Comp.CBox
             (Meta.MSTerm (empty_sctx, (mk_satom (aeq ()) ([ idt; idt ]))))));
    ok "apps helper is exercised" (fun () -> ignore apps);
  ]

let suites = [ ("comp.build", build_tests); ("comp.run", run_tests) ]
