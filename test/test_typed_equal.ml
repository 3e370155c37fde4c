(** The typed benchmark: parameterized refinement-schema worlds.  The
    refinement schema's elements have Π-parameters ([{A : tp} block …]),
    context extensions instantiate them explicitly, and the projections'
    sorts depend on the instantiation. *)

open Belr_syntax
open Belr_core
open Belr_comp
open Belr_kits
open Lf

let tsg = lazy (Typed_equal.load ())

let ok name thunk = Alcotest.test_case name `Quick thunk

let tests =
  [
    ok "the typed development checks" (fun () -> ignore (Lazy.force tsg));
    ok "the refinement schema's world is parameterized" (fun () ->
        let sg = Lazy.force tsg in
        match Belr_parser.Elab.find_world sg "xeW" with
        | Some (Belr_parser.Elab.Wsort f) ->
            Alcotest.(check int) "one parameter" 1
              (List.length f.Ctxs.f_params)
        | _ -> Alcotest.fail "xeW not found");
    ok "projections depend on the world instantiation" (fun () ->
        let sg = Lazy.force tsg in
        let xeW =
          match Belr_parser.Elab.find_world sg "xeW" with
          | Some (Belr_parser.Elab.Wsort f) -> f
          | _ -> Alcotest.fail "xeW not found"
        in
        let i = (mk_root ((mk_const (Lookup.find_const sg "i"))) []) in
        let arr =
          (mk_root ((mk_const (Lookup.find_const sg "arr"))) ([ i; i ]))
        in
        let psi =
          Ctxs.sctx_push
            (Ctxs.sctx_push Ctxs.empty_sctx (Ctxs.SCBlock ("f", xeW, [ arr ])))
            (Ctxs.SCBlock ("y", xeW, [ i ]))
        in
        (* y = 1 at type i, f = 2 at type i → i *)
        let s_y = Sctxops.srt_of_proj sg psi 1 2 in
        let s_f = Sctxops.srt_of_proj sg psi 2 2 in
        let aeq = Lookup.find_srt sg "aeq" in
        (match s_y with
        | SAtom (s, [ _; _; ty ]) when s = aeq ->
            Alcotest.(check bool) "y at i" true (Equal.normal ty i)
        | _ -> Alcotest.fail "unexpected sort for y.2");
        match s_f with
        | SAtom (s, [ _; _; ty ]) when s = aeq ->
            Alcotest.(check bool) "f at arr i i" true
              (Equal.normal ty (Belr_lf.Hsub.sub_normal (mk_shift 2) arr))
        | _ -> Alcotest.fail "unexpected sort for f.2");
    ok "typed aeq-sym runs in a parameterized context" (fun () ->
        let sg = Lazy.force tsg in
        let xeW =
          match Belr_parser.Elab.find_world sg "xeW" with
          | Some (Belr_parser.Elab.Wsort f) -> f
          | _ -> Alcotest.fail "xeW not found"
        in
        let i = (mk_root ((mk_const (Lookup.find_const sg "i"))) []) in
        let psi =
          Ctxs.sctx_push Ctxs.empty_sctx (Ctxs.SCBlock ("b", xeW, [ i ]))
        in
        let sym = Lookup.find_rec sg "aeq-sym" in
        let h = Meta.hat_of_sctx psi in
        let b1 = (mk_root ((mk_proj ((mk_bvar 1)) 1)) []) in
        let b2 = (mk_root ((mk_proj ((mk_bvar 1)) 2)) []) in
        let mapps f args =
          List.fold_left (fun e a -> Comp.MApp (e, a)) f args
        in
        let call =
          Comp.App
            ( mapps (Comp.RecConst sym)
                [
                  Meta.MOCtx psi;
                  Meta.MOTerm (h, b1);
                  Meta.MOTerm (h, b1);
                  Meta.MOTerm (h, Belr_lf.Hsub.sub_normal (mk_shift 1) i);
                ],
              Comp.Box (Meta.MOTerm (h, b2)) )
        in
        let res =
          match Eval.as_box (Eval.eval (Eval.make_env sg) call) with
          | Meta.MOTerm (_, m) -> m
          | _ -> Alcotest.fail "expected a boxed term"
        in
        let aeq = Lookup.find_srt sg "aeq" in
        ignore
          (Check_lfr.check_normal (Check_lfr.make_env sg []) psi res
             ((mk_satom aeq ([ b1; b1; Belr_lf.Hsub.sub_normal (mk_shift 1) i ])))));
    ok "typed aeq-sym terminates and is covered" (fun () ->
        let sg = Lazy.force tsg in
        let sym = Lookup.find_rec sg "aeq-sym" in
        Alcotest.(check bool)
          "covered" true
          (List.for_all (( = ) Coverage.DCovered)
             (Coverage.deep_check_rec sg sym));
        let r =
          Totality.run sg (Belr_analysis.Facts.make sg)
            (Belr_support.Diagnostics.sink ())
        in
        match
          List.find_opt
            (fun f -> f.Totality.fv_name = "aeq-sym")
            r.Totality.tr_fns
        with
        | Some f ->
            Alcotest.(check bool) "terminating" true (Totality.terminating f)
        | None -> Alcotest.fail "aeq-sym not analyzed");
  ]

let suites = [ ("typed_equal", tests) ]
