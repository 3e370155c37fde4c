(** Tests for the totality analyzer (DESIGN.md §S22): size-change
    termination over the call graph, deep refinement-aware coverage, and
    the [belr-total/1] report.  The fixture corpus is chosen to stress
    size-change: recursion schemes a guardedness check (some recursive
    argument is a pattern variable) would reject but size-change
    accepts, and diverging cycles size-change must reject with a
    call-path witness. *)

open Belr_support
open Belr_lf
open Belr_comp
open Belr_kits
module Callgraph = Belr_analysis.Callgraph

let ok name thunk = Alcotest.test_case name `Quick thunk

let contains affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let total_run ?depth ?budget sg =
  let sink = Diagnostics.sink () in
  let r = Totality.run ?depth ?budget sg (Belr_analysis.Facts.make sg) sink in
  (sink, r)

(** The belr-total/1 report of totality-checking [sg] through the
    analysis registry. *)
let total_report ~files sg =
  let sink = Diagnostics.sink () in
  let a = Belr_parser.Driver.total_analysis () in
  let o = Belr_parser.Driver.run_analysis a sink sg in
  Belr_parser.Driver.report_json ~files sink a o

let verdict_of r n =
  match
    List.find_opt (fun f -> f.Totality.fv_name = n) r.Totality.tr_fns
  with
  | Some f -> f
  | None -> Alcotest.failf "%s not analyzed" n

let nat_sig = {bel|
LF nat : type =
| z : nat
| s : nat -> nat;
|bel}

(* flip peels its first argument and swaps through flop; neither flop
   call passes a pattern variable *)
let flip_flop_src =
  nat_sig
  ^ {bel|
rec flip : {M : [ |- nat]} {N : [ |- nat]} [ |- nat] =
mlam M => mlam N => case [ |- M] of
| [ |- z] => [ |- N]
| {M' : [ |- nat]}
  [ |- s M'] => flop [ |- N] [ |- M']
and flop : {M : [ |- nat]} {N : [ |- nat]} [ |- nat] =
mlam M => mlam N => flip [ |- M] [ |- N];
|bel}

(* lexicographic descent on (M, N); both recursive calls launder their
   arguments through let-box binders, defeating guardedness *)
let lexlb_src =
  nat_sig
  ^ {bel|
rec lexlb : {M : [ |- nat]} {N : [ |- nat]} [ |- nat] =
mlam M => mlam N => case [ |- M] of
| [ |- z] => [ |- z]
| {M' : [ |- nat]}
  [ |- s M'] =>
    case [ |- N] of
    | [ |- z] => let [K] = [ |- M'] in lexlb [ |- K] [ |- s K]
    | {N' : [ |- nat]}
      [ |- s N'] => let [K] = [ |- N'] in lexlb [ |- M] [ |- K];
|bel}

let ack_src =
  nat_sig
  ^ {bel|
rec ack : {M : [ |- nat]} {N : [ |- nat]} [ |- nat] =
mlam M => mlam N => case [ |- M] of
| [ |- z] => [ |- s N]
| {M' : [ |- nat]}
  [ |- s M'] =>
    case [ |- N] of
    | [ |- z] => ack [ |- M'] [ |- s z]
    | {N' : [ |- nat]}
      [ |- s N'] => let [D] = ack [ |- M] [ |- N'] in ack [ |- M'] [ |- D];
|bel}

let loop_src =
  nat_sig ^ {bel|
rec loop : [ |- nat] -> [ |- nat] = fn d => loop d;
|bel}

let up_src =
  nat_sig
  ^ {bel|
rec up : {N : [ |- nat]} [ |- nat] = mlam N => up [ |- s N];
|bel}

(* a diverging mutual cycle: both calls pass their argument unchanged *)
let ping_pong_src =
  nat_sig
  ^ {bel|
rec ping : {N : [ |- nat]} [ |- nat] = mlam N => pong [ |- N]
and pong : {N : [ |- nat]} [ |- nat] = mlam N => ping [ |- N];
|bel}

let sct_tests =
  [
    ok "argument-swapping mutual recursion: size-change accepts the group"
      (fun () ->
        let sg = Belr_parser.Process.program flip_flop_src in
        let _, r = total_run sg in
        Alcotest.(check bool) "flip terminating" true
          (Totality.terminating (verdict_of r "flip"));
        Alcotest.(check bool) "flop terminating" true
          (Totality.terminating (verdict_of r "flop"));
        Alcotest.(check (list string))
          "one SCC" [ "flip"; "flop" ] (verdict_of r "flip").Totality.fv_group);
    ok "lexicographic descent: size-change accepts lexlb" (fun () ->
        let sg = Belr_parser.Process.program lexlb_src in
        let sink, r = total_run sg in
        Alcotest.(check bool) "terminating" true
          (Totality.terminating (verdict_of r "lexlb"));
        Alcotest.(check bool) "covered" true
          (Totality.covered (verdict_of r "lexlb"));
        Alcotest.(check int) "clean" 0 (Diagnostics.error_count sink));
    ok "ack is accepted by size-change" (fun () ->
        let sg = Belr_parser.Process.program ack_src in
        let _, r = total_run sg in
        Alcotest.(check bool) "terminating" true
          (Totality.terminating (verdict_of r "ack")));
    ok "a trivial loop is rejected with a call-path witness" (fun () ->
        let sg = Belr_parser.Process.program loop_src in
        let sink, r = total_run sg in
        (match (verdict_of r "loop").Totality.fv_term with
        | Totality.TDiverging _ -> ()
        | _ -> Alcotest.fail "expected a diverging verdict");
        let e0710 =
          List.filter
            (fun d -> d.Diagnostics.d_code = "E0710")
            (Diagnostics.all sink)
        in
        (match e0710 with
        | [ d ] ->
            Alcotest.(check bool)
              "witness names the cycle" true
              (contains "loop -> loop" d.Diagnostics.d_message)
        | _ -> Alcotest.fail "expected exactly one E0710");
        Alcotest.(check int) "exit code 1" 1 (Diagnostics.exit_code sink));
    ok "a count-up over its own argument is rejected" (fun () ->
        let sg = Belr_parser.Process.program up_src in
        let sink, r = total_run sg in
        (match (verdict_of r "up").Totality.fv_term with
        | Totality.TDiverging _ -> ()
        | _ -> Alcotest.fail "expected a diverging verdict");
        Alcotest.(check int) "one error" 1 (Diagnostics.error_count sink));
    ok "a diverging mutual cycle is rejected across functions" (fun () ->
        let sg = Belr_parser.Process.program ping_pong_src in
        let sink, r = total_run sg in
        (match (verdict_of r "ping").Totality.fv_term with
        | Totality.TDiverging _ -> ()
        | _ -> Alcotest.fail "expected a diverging verdict");
        let e0710 =
          List.filter
            (fun d -> d.Diagnostics.d_code = "E0710")
            (Diagnostics.all sink)
        in
        match e0710 with
        | [ d ] ->
            Alcotest.(check bool)
              "witness crosses the group" true
              (contains "ping" d.Diagnostics.d_message
              && contains "pong" d.Diagnostics.d_message)
        | _ -> Alcotest.fail "expected exactly one E0710");
    ok "an exhausted composition budget reports W0712, not a verdict"
      (fun () ->
        let sg = Belr_parser.Process.program ack_src in
        let sink, r = total_run ~budget:1 sg in
        (match (verdict_of r "ack").Totality.fv_term with
        | Totality.TGaveUp -> ()
        | _ -> Alcotest.fail "expected a gave-up verdict");
        Alcotest.(check bool) "W0712 reported" true
          (List.exists
             (fun d -> d.Diagnostics.d_code = "W0712")
             (Diagnostics.all sink));
        Alcotest.(check int) "no errors" 0 (Diagnostics.error_count sink));
    ok "every function of the shipped developments terminates" (fun () ->
        List.iter
          (fun sg ->
            let _, r = total_run sg in
            List.iter
              (fun (_, name) ->
                Alcotest.(check bool)
                  (name ^ " terminating") true
                  (Totality.terminating (verdict_of r name)))
              (Callgraph.analyze sg).Callgraph.cg_recs)
          [
            Belr_kits.Surface.load ();
            Belr_kits.Values.load ();
            Belr_kits.Parity.load ();
            Belr_parser.Process.program flip_flop_src;
            Belr_parser.Process.program ack_src;
          ]);
  ]

(* --- deep coverage ------------------------------------------------------ *)

let skip_src =
  nat_sig
  ^ {bel|
rec skip : [ |- nat] -> [ |- nat] =
fn d => case d of
| [ |- z] => [ |- z]
| {M : [ |- nat]}
  [ |- s (s M)] => [ |- M];
|bel}

let skip_full_src =
  nat_sig
  ^ {bel|
rec skip : [ |- nat] -> [ |- nat] =
fn d => case d of
| [ |- z] => [ |- z]
| [ |- s z] => [ |- z]
| {M : [ |- nat]}
  [ |- s (s M)] => [ |- M];
|bel}

let coverage_tests =
  [
    ok "a nested gap invisible to a head-only check is found" (fun () ->
        let sg = Belr_parser.Process.program skip_src in
        (* both head constants appear, so comparing heads is fooled *)
        match Coverage.deep_check_rec sg (Lookup.find_rec sg "skip") with
        | [ Coverage.DUncovered ms ] ->
            Alcotest.(check bool) "missing (s z)" true (List.mem "(s z)" ms)
        | _ -> Alcotest.fail "expected one uncovered case");
    ok "the patched match is covered at depth" (fun () ->
        let sg = Belr_parser.Process.program skip_full_src in
        match Coverage.deep_check_rec sg (Lookup.find_rec sg "skip") with
        | [ Coverage.DCovered ] -> ()
        | _ -> Alcotest.fail "expected full coverage");
    ok "an insufficient split depth gives up (W0712), never lies" (fun () ->
        let sg = Belr_parser.Process.program skip_full_src in
        (match Coverage.deep_check_rec ~depth:1 sg (Lookup.find_rec sg "skip") with
        | [ Coverage.DGaveUp ] -> ()
        | _ -> Alcotest.fail "expected a gave-up verdict");
        let sink, r = total_run ~depth:1 sg in
        Alcotest.(check bool) "W0712 reported" true
          (List.exists
             (fun d -> d.Diagnostics.d_code = "W0712")
             (Diagnostics.all sink));
        Alcotest.(check bool) "not covered" false
          (Totality.covered (verdict_of r "skip")));
    ok "refinements still prune impossible candidates at depth" (fun () ->
        (* the pred-pos/pred-nat pair of test_coverage *)
        let sg =
          Belr_parser.Process.program
            (nat_sig
           ^ {bel|
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
|bel})
        in
        (match Coverage.deep_check_rec sg (Lookup.find_rec sg "pred-pos") with
        | [ Coverage.DCovered ] -> ()
        | _ -> Alcotest.fail "pred-pos should be covered at sort pos");
        match Coverage.deep_check_rec sg (Lookup.find_rec sg "pred-nat") with
        | [ Coverage.DUncovered ms ] ->
            Alcotest.(check bool) "z missing" true (List.mem "z" ms)
        | _ -> Alcotest.fail "pred-nat should miss z");
  ]

(* --- the report --------------------------------------------------------- *)

let report_tests =
  [
    ok "the belr-total/1 report carries verdicts, callgraph, and summary"
      (fun () ->
        let sg = Belr_parser.Process.program flip_flop_src in
        let j = total_report ~files:[ "flipflop.blr" ] sg in
        (match Json.member "schema" j with
        | Some (Json.String s) ->
            Alcotest.(check string) "schema" "belr-total/1" s
        | _ -> Alcotest.fail "missing schema");
        (match Option.bind (Json.member "functions" j) Json.to_list with
        | Some fns -> Alcotest.(check int) "two functions" 2 (List.length fns)
        | None -> Alcotest.fail "missing functions");
        (match Json.member "callgraph" j with
        | Some cg ->
            (match Json.member "sccs" cg with
            | Some (Json.Int n) ->
                Alcotest.(check bool) "some SCC" true (n >= 1)
            | _ -> Alcotest.fail "missing sccs")
        | None -> Alcotest.fail "missing callgraph");
        (match Json.member "summary" j with
        | Some _ -> ()
        | None -> Alcotest.fail "missing summary");
        match Json.member "exit_code" j with
        | Some (Json.Int 0) -> ()
        | _ -> Alcotest.fail "expected exit code 0");
    ok "a diverging cycle drives the report's exit code to 1" (fun () ->
        let sg = Belr_parser.Process.program loop_src in
        let j = total_report ~files:[ "loop.blr" ] sg in
        (match Json.member "exit_code" j with
        | Some (Json.Int 1) -> ()
        | _ -> Alcotest.fail "expected exit code 1");
        match Option.bind (Json.member "findings" j) Json.to_list with
        | Some fs ->
            Alcotest.(check bool) "an E0710 finding" true
              (List.exists
                 (fun f ->
                   Json.member "code" f = Some (Json.String "E0710"))
                 fs)
        | None -> Alcotest.fail "missing findings");
  ]

(* --- the call graph itself --------------------------------------------- *)

let callgraph_tests =
  [
    ok "call sites carry strict edges from pattern subterms" (fun () ->
        let sg = Belr_parser.Process.program flip_flop_src in
        let cg = Callgraph.analyze sg in
        let flip = Lookup.find_rec sg "flip" and flop = Lookup.find_rec sg "flop" in
        let site =
          match
            List.find_opt
              (fun s -> s.Callgraph.cs_caller = flip)
              cg.Callgraph.cg_sites
          with
          | Some s -> s
          | None -> Alcotest.fail "no flip call site"
        in
        Alcotest.(check bool) "calls flop" true
          (site.Callgraph.cs_callee = flop);
        (* flip x y calls flop y x': position 0 flows Le into 1, and the
           pattern subterm M' flows Lt into position 1 -> 0 is absent,
           1 -> 1 Le 0 -> ... assert the strict edge into slot 1 *)
        Alcotest.(check bool) "has a strict edge" true
          (List.exists
             (fun e ->
               e.Callgraph.e_rel = Callgraph.Lt && e.Callgraph.e_dst = 1)
             site.Callgraph.cs_edges));
    ok "the SCC decomposition groups the mutual pair" (fun () ->
        let sg = Belr_parser.Process.program flip_flop_src in
        let cg = Callgraph.analyze sg in
        let flip = Lookup.find_rec sg "flip" and flop = Lookup.find_rec sg "flop" in
        Alcotest.(check bool) "one mutual SCC" true
          (List.exists
             (fun scc -> List.mem flip scc && List.mem flop scc)
             (Callgraph.sccs cg)));
    ok "rec groups are recorded in the signature" (fun () ->
        let sg = Belr_parser.Process.program flip_flop_src in
        let flip = Lookup.find_rec sg "flip" and flop = Lookup.find_rec sg "flop" in
        Alcotest.(check bool) "flip's group lists both" true
          (Sign.rec_group sg flip = [ flip; flop ]);
        Alcotest.(check bool) "flop's group lists both" true
          (Sign.rec_group sg flop = [ flip; flop ]);
        let sg2 = Belr_parser.Process.program loop_src in
        let loop = Lookup.find_rec sg2 "loop" in
        Alcotest.(check bool) "singletons default" true
          (Sign.rec_group sg2 loop = [ loop ]));
  ]

let suites =
  [
    ("totality.sct", sct_tests);
    ("totality.coverage", coverage_tests);
    ("totality.report", report_tests);
    ("totality.callgraph", callgraph_tests);
  ]
