(** Tests for the conservative coverage checker (the paper's §6.1
    extension, {!Belr_comp.Coverage.deep_check_rec}): refinements shrink
    coverage obligations. *)

open Belr_comp
open Belr_kits

let ok name thunk = Alcotest.test_case name `Quick thunk

let pred_program =
  {bel|
LF nat : type =
| z : nat
| s : nat -> nat;

LFR pos <| nat : sort =
| s : nat -> pos;

rec pred-pos : [ |- pos] -> [ |- nat] =
fn d => case d of
| {N : [ |- nat]}
  [ |- s N] => [ |- N];

rec pred-nat : [ |- nat] -> [ |- nat] =
fn d => case d of
| {N : [ |- nat]}
  [ |- s N] => [ |- N];
|bel}

(** Per-[case] deep verdicts of a function, as counts. *)
let verdicts sg n =
  let ds = Coverage.deep_check_rec sg (Lookup.find_rec sg n) in
  let count p = List.length (List.filter p ds) in
  ( count (( = ) Coverage.DCovered),
    count (function Coverage.DUncovered _ -> true | _ -> false) )

let tests =
  [
    ok "pred is covered at sort pos (z has no sort there)" (fun () ->
        let sg = Belr_parser.Process.program pred_program in
        match Coverage.deep_check_rec sg (Lookup.find_rec sg "pred-pos") with
        | [ Coverage.DCovered ] -> ()
        | _ -> Alcotest.fail "expected full coverage");
    ok "the same match is uncovered at type nat (missing z)" (fun () ->
        let sg = Belr_parser.Process.program pred_program in
        match Coverage.deep_check_rec sg (Lookup.find_rec sg "pred-nat") with
        | [ Coverage.DUncovered missing ] ->
            Alcotest.(check bool) "z missing" true (List.mem "z" missing)
        | _ -> Alcotest.fail "expected exactly one uncovered match");
    ok "the §2 ceq covers all six candidates" (fun () ->
        let sg = Surface.load () in
        let covered, uncovered = verdicts sg "ceq" in
        Alcotest.(check bool) "some case" true (covered > 0);
        Alcotest.(check int) "no issues" 0 uncovered);
    ok "aeq-refl and aeq-sym are covered" (fun () ->
        let sg = Surface.load () in
        Alcotest.(check int) "refl" 0 (snd (verdicts sg "aeq-refl"));
        Alcotest.(check int) "sym" 0 (snd (verdicts sg "aeq-sym")));
    ok
      "aeq-trans's inner matches are conservatively flagged (their variable \
       cases are impossible but need unification to dismiss)"
      (fun () ->
        let sg = Surface.load () in
        (* two inner case expressions, each with an impossible variable
           candidate the conservative analysis cannot dismiss *)
        Alcotest.(check int) "two flags" 2 (snd (verdicts sg "aeq-trans")));
  ]

let suites = [ ("coverage", tests) ]
