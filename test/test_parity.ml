(** Mutually recursive datasorts (even/odd) and totality of [half]. *)

open Belr_support
open Belr_syntax
open Belr_lf
open Belr_core
open Belr_comp
open Belr_kits
open Lf

let psg = lazy (Parity.load ())

let ok name thunk = Alcotest.test_case name `Quick thunk

let fails name thunk =
  Alcotest.test_case name `Quick (fun () ->
      match thunk () with
      | exception Error.Belr_error _ -> ()
      | exception Error.Violation _ -> ()
      | _ -> Alcotest.failf "%s: expected failure" name)

let church sg k =
  let z = Lookup.find_const sg "z" and s = Lookup.find_const sg "s" in
  let rec go k = if k = 0 then (mk_root ((mk_const z)) []) else (mk_root ((mk_const s)) ([ go (k - 1) ])) in
  go k

let tests =
  [
    ok "mutual refinement group checks" (fun () -> ignore (Lazy.force psg));
    ok "s has a sort in both families" (fun () ->
        let sg = Lazy.force psg in
        let s = Lookup.find_const sg "s" in
        let even = Lookup.find_srt sg "even" and odd = Lookup.find_srt sg "odd" in
        Alcotest.(check bool)
          "even" true
          (Sign.csort sg ~const:s ~family:even <> None);
        Alcotest.(check bool)
          "odd" true
          (Sign.csort sg ~const:s ~family:odd <> None));
    ok "4 is even, 3 is odd" (fun () ->
        let sg = Lazy.force psg in
        let env = Check_lfr.make_env sg [] in
        ignore
          (Check_lfr.check_normal env Ctxs.empty_sctx (church sg 4)
             ((mk_satom (Lookup.find_srt sg "even") [])));
        ignore
          (Check_lfr.check_normal env Ctxs.empty_sctx (church sg 3)
             ((mk_satom (Lookup.find_srt sg "odd") []))));
    fails "3 is not even" (fun () ->
        let sg = Lazy.force psg in
        Check_lfr.check_normal (Check_lfr.make_env sg []) Ctxs.empty_sctx
          (church sg 3)
          ((mk_satom (Lookup.find_srt sg "even") [])));
    ok "half 6 = 3 (runs)" (fun () ->
        let sg = Lazy.force psg in
        let half = Lookup.find_rec sg "half" in
        let hat0 = { Meta.hat_var = None; Meta.hat_names = [] } in
        let call =
          Comp.App
            (Comp.RecConst half, Comp.Box (Meta.MOTerm (hat0, church sg 6)))
        in
        match Eval.as_box (Eval.eval (Eval.make_env sg) call) with
        | Meta.MOTerm (_, m) ->
            Alcotest.(check bool) "three" true (Equal.normal m (church sg 3))
        | _ -> Alcotest.fail "expected a boxed term");
    ok "both matches of half are covered (even: z+s, odd: s only)"
      (fun () ->
        let sg = Lazy.force psg in
        let half = Lookup.find_rec sg "half" in
        Alcotest.(check bool)
          "every case covered" true
          (List.for_all (( = ) Coverage.DCovered)
             (Coverage.deep_check_rec sg half)));
    ok "conservativity: even/odd derivations erase to nat" (fun () ->
        let sg = Lazy.force psg in
        let env = Check_lfr.make_env sg [] in
        let a =
          Check_lfr.check_normal env Ctxs.empty_sctx (church sg 8)
            ((mk_satom (Lookup.find_srt sg "even") []))
        in
        Check_lf.check_normal (Check_lf.make_env sg []) Ctxs.empty_ctx
          (church sg 8) a);
  ]

let suites = [ ("parity", tests) ]
