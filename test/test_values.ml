(** Tests for the values case study: sort-kinded refinement families
    (proper sorts in refinement kinds), value datasorts, and running the
    two versions of the result-is-a-value theorem. *)

open Belr_support
open Belr_syntax
open Belr_lf
open Belr_core
open Belr_comp
open Belr_kits
open Lf

let vsg = lazy (Values.load ())

let ok name thunk = Alcotest.test_case name `Quick thunk

let fails name thunk =
  Alcotest.test_case name `Quick (fun () ->
      match thunk () with
      | exception Error.Belr_error _ -> ()
      | exception Error.Violation _ -> ()
      | _ -> Alcotest.failf "%s: expected failure" name)

let hat0 = { Meta.hat_var = None; Meta.hat_names = [] }

let mapps f args = List.fold_left (fun e a -> Comp.MApp (e, a)) f args

let tests =
  [
    ok "the values development checks (sorts in refinement kinds)" (fun () ->
        ignore (Lazy.force vsg));
    ok "lam is a value, app is not" (fun () ->
        let sg = Lazy.force vsg in
        let lam = Lookup.find_const sg "lam" and app = Lookup.find_const sg "app" in
        let vs = Lookup.find_srt sg "val" in
        let idt = (mk_root ((mk_const lam)) ([ (mk_lam "x" ((mk_root ((mk_bvar 1)) []))) ])) in
        let env = Check_lfr.make_env sg [] in
        ignore (Check_lfr.check_normal env Ctxs.empty_sctx idt ((mk_satom vs [])));
        match
          Error.protect (fun () ->
              Check_lfr.check_normal env Ctxs.empty_sctx
                ((mk_root ((mk_const app)) ([ idt; idt ])))
                ((mk_satom vs [])))
        with
        | Ok _ -> Alcotest.fail "app should not be a value"
        | Error _ -> ());
    ok "evalv's refinement kind has a proper sort domain" (fun () ->
        let sg = Lazy.force vsg in
        let evalv = Lookup.find_srt sg "evalv" in
        match (Sign.srt_entry sg evalv).Sign.s_kind with
        | Kspi (_, SEmbed _, Kspi (_, SAtom _, Ksort)) -> ()
        | _ -> Alcotest.fail "unexpected refinement kind");
    ok "running both theorems on ((\\x.x) (\\x.x)) gives value results"
      (fun () ->
        let sg = Lazy.force vsg in
        let lam = Lookup.find_const sg "lam"
        and app = Lookup.find_const sg "app"
        and ev_lam = Lookup.find_const sg "ev-lam"
        and ev_app = Lookup.find_const sg "ev-app" in
        let idf = (mk_lam "x" ((mk_root ((mk_bvar 1)) []))) in
        let idt = (mk_root ((mk_const lam)) ([ idf ])) in
        let appt = (mk_root ((mk_const app)) ([ idt; idt ])) in
        (* eval (app id id) id: D1 = ev-lam, D2 = ev-lam, D3 = ev-lam for
           the body (x[id/x] = id) *)
        let ev_id = (mk_root ((mk_const ev_lam)) ([ idf ])) in
        let d =
          (mk_root ((mk_const ev_app)) ([ idt; idf; idt; idt; idt; ev_id; ev_id; ev_id ]))
        in
        let env = Check_lfr.make_env sg [] in
        let eval_a = Lookup.find_typ sg "eval" in
        ignore
          (Check_lfr.check_normal env Ctxs.empty_sctx d
             ((mk_sembed eval_a ([ appt; idt ]))));
        (* conventional: isval V *)
        let rv = Lookup.find_rec sg "result-val" in
        let call1 =
          Comp.App
            ( mapps (Comp.RecConst rv)
                [ Meta.MOTerm (hat0, appt); Meta.MOTerm (hat0, idt) ],
              Comp.Box (Meta.MOTerm (hat0, d)) )
        in
        (match Eval.as_box (Eval.eval (Eval.make_env sg) call1) with
        | Meta.MOTerm (_, Root (Const c, _)) ->
            Alcotest.(check string)
              "v-lam" "v-lam"
              (Sign.const_entry sg c).Sign.c_name
        | _ -> Alcotest.fail "expected a v-lam derivation");
        (* refinement: evalv M V with the result checked at the sort *)
        let st = Lookup.find_rec sg "strengthen" in
        let call2 =
          Comp.App
            ( mapps (Comp.RecConst st)
                [ Meta.MOTerm (hat0, appt); Meta.MOTerm (hat0, idt) ],
              Comp.Box (Meta.MOTerm (hat0, d)) )
        in
        let res =
          match Eval.as_box (Eval.eval (Eval.make_env sg) call2) with
          | Meta.MOTerm (_, m) -> m
          | _ -> Alcotest.fail "expected a boxed term"
        in
        let evalv = Lookup.find_srt sg "evalv" in
        ignore
          (Check_lfr.check_normal env Ctxs.empty_sctx res
             ((mk_satom evalv ([ appt; idt ])))));
    ok "the refinement statement is smaller than the predicate one"
      (fun () ->
        let sg = Lazy.force vsg in
        let s1 = Stats.rec_stats sg (Lookup.find_rec sg "strengthen") in
        let s2 = Stats.rec_stats sg (Lookup.find_rec sg "result-val") in
        (* same inductive structure; no extra predicate declaration is the
           point — statements have comparable size *)
        Alcotest.(check bool)
          "comparable" true
          (s1.Stats.rs_args = s2.Stats.rs_args));
    fails "an ill-kinded refinement application is rejected" (fun () ->
        let sg = Lazy.force vsg in
        let evalv = Lookup.find_srt sg "evalv" in
        let app = Lookup.find_const sg "app" in
        let lam = Lookup.find_const sg "lam" in
        let idt = (mk_root ((mk_const lam)) ([ (mk_lam "x" ((mk_root ((mk_bvar 1)) []))) ])) in
        let appt = (mk_root ((mk_const app)) ([ idt; idt ])) in
        (* evalv _ (app …): the second index must be a value *)
        Check_lfr.wf_srt (Check_lfr.make_env sg []) Ctxs.empty_sctx
          ((mk_satom evalv ([ idt; appt ]))));
  ]

let suites = [ ("values", tests) ]
