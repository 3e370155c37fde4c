(** The regular-worlds + strictness analyzer (DESIGN.md §S25): context
    extensions must be subsumed by the declared [%worlds] of every
    family they can reach (E0720/W0721), up to refinement subsorting and
    subordination strengthening, and every pattern meta-variable must
    occur strictly somewhere in its clause (W0722).  Fixtures are
    accept/reject pairs per code; the property tests pin the shipped
    kits and example corpus worlds-clean. *)

open Belr_support
open Belr_parser
module Sign = Belr_lf.Sign
module J = Json

let test name f = Alcotest.test_case name `Quick f

let contains affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let codes sink =
  List.map (fun (d : Diagnostics.t) -> d.Diagnostics.d_code)
    (Diagnostics.all sink)

let count code sink =
  List.length (List.filter (String.equal code) (codes sink))

let messages_of code sink =
  List.filter_map
    (fun (d : Diagnostics.t) ->
      if d.Diagnostics.d_code = code then Some d.Diagnostics.d_message
      else None)
    (Diagnostics.all sink)

(** Check [src], then worlds-check the resulting signature through the
    analysis registry. *)
let worlds_outcome ?check_strict src =
  let sink = Diagnostics.sink () in
  let sg = Driver.check_sources sink [ ("test.bel", src) ] in
  Alcotest.(check int) "fixture checks cleanly" 0
    (Diagnostics.error_count sink);
  let a = Driver.worlds_analysis ?check_strict () in
  (sink, sg, a, Driver.run_analysis a sink sg)

(** Worlds-check [sg]; the result is the outcome's report sections, as
    one JSON object. *)
let run_worlds sink sg =
  let o = Driver.run_analysis (Driver.worlds_analysis ()) sink sg in
  J.Obj (Lazy.force o.Driver.sections)

let worlds_src ?check_strict src =
  let sink, sg, _, o = worlds_outcome ?check_strict src in
  (sink, sg, J.Obj (Lazy.force o.Driver.sections))

(** The belr-worlds/1 report of [worlds_outcome]. *)
let worlds_report src =
  let sink, _, a, o = worlds_outcome src in
  (sink, Driver.report_json ~files:[ "test.bel" ] sink a o)

let field k j =
  match J.member k j with
  | Some v -> v
  | None -> Alcotest.failf "report lacks %S" k

let num k j =
  match field k j with J.Int n -> n | _ -> Alcotest.failf "%S is no int" k

let flag k j =
  match field k j with J.Bool b -> b | _ -> Alcotest.failf "%S is no bool" k

let name_of f =
  match field "name" f with
  | J.String s -> s
  | _ -> Alcotest.fail "name is no string"

let functions r = Option.value (J.to_list (field "functions" r)) ~default:[]
let signature k r = num k (field "signature" r)

let fn_report r name =
  match List.find_opt (fun f -> name_of f = name) (functions r) with
  | Some f -> f
  | None -> Alcotest.failf "%s not analyzed" name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- fixtures ----------------------------------------------------------- *)

(* The §2 signature skeleton: HOAS terms, declarative equality, and the
   algorithmic refinement, with the block/world declarations split off so
   each fixture can vary them. *)
let sig_src =
  {bel|
LF tm : type =
| lam : (tm -> tm) -> tm
| app : tm -> tm -> tm;

LF deq : tm -> tm -> type =
| e-lam : ({x : tm} deq x x -> deq (M x) (N x)) -> deq (lam M) (lam N)
| e-app : deq M1 N1 -> deq M2 N2 -> deq (app M1 M2) (app N1 N2)
| e-refl : {M : tm} deq M M;

LFR aeq <| deq : tm -> tm -> sort =
| e-lam : ({x : tm} aeq x x -> aeq (M x) (N x)) -> aeq (lam M) (lam N)
| e-app : aeq M1 N1 -> aeq M2 N2 -> aeq (app M1 M2) (app N1 N2);

schema xdG = | xeW : block (x : tm, u : deq x x);
schema xaG <| xdG = | xeW : block (x : tm, u : aeq x x);
|bel}

let good_decls = {bel|
%block xbW = block (x : tm, u : deq x x);
%worlds (xbW) tm deq;
|bel}

(* the declared block is too small: it lacks the deq assumption the
   schema element (and the e-lam appeal) introduces *)
let bad_decls = {bel|
%block xbW = block (x : tm);
%worlds (xbW) tm deq;
|bel}

let refl_src =
  {bel|
rec aeq-refl : (Psi : xaG) (M : [Psi |- tm]) [Psi |- aeq M M] =
mlam Psi => mlam M =>
case [Psi |- M] of
| {#b : #[Psi |- xeW]}
  [Psi |- #b.1] => [Psi |- #b.2]
| {M' : [Psi, x : tm |- tm]}
  [Psi |- lam (\x. M')] =>
    let [E] = aeq-refl [Psi, b : xeW] [Psi, b : xeW |- M'[.., b.1]] in
    [Psi |- e-lam (\x. M') (\x. M') (\x. \u. E[.., <x ; u>])]
| {M1 : [Psi |- tm]} {M2 : [Psi |- tm]}
  [Psi |- app M1 M2] =>
    let [E1] = aeq-refl [Psi] [Psi |- M1] in
    let [E2] = aeq-refl [Psi] [Psi |- M2] in
    [Psi |- e-app M1 M1 M2 M2 E1 E2];
|bel}

(* boxes only tm under the mixed (tm, deq) schema context: accepting it
   under a tm-only world needs the deq entry strengthened away *)
let tm_only_src =
  {bel|
%block xtW = block (x : tm);
%worlds (xtW) tm;

rec idtm : (Psi : xdG) (M : [Psi |- tm]) [Psi |- tm] =
mlam Psi => mlam M => [Psi |- M];
|bel}

(* M occurs only as another variable's instantiation target, never at
   the head of a spine of distinct bound variables *)
let nonstrict_src =
  {bel|
LF nat : type =
| z : nat
| s : nat -> nat;

rec leak : [ |- nat] -> [ |- nat] =
fn d => case d of
| {N : [ |- nat]}
  [ |- s (s N)] => [ |- N]
| {N : [ |- nat]} {M : [ |- nat]}
  [ |- s N] => [ |- M]
| [ |- z] => [ |- z];
|bel}

(* --- subsumption: accept / reject --------------------------------------- *)

let subsumption_tests =
  [
    test "the declared world accepts the §2 reflexivity proof" (fun () ->
        let sink, _, r = worlds_src (sig_src ^ good_decls ^ refl_src) in
        Alcotest.(check int) "no E0720" 0 (count "E0720" sink);
        Alcotest.(check int) "no W0721" 0 (count "W0721" sink);
        Alcotest.(check int) "no W0722" 0 (count "W0722" sink);
        let f = fn_report r "aeq-refl" in
        Alcotest.(check bool) "clean" true (flag "clean" f);
        Alcotest.(check bool) "extensions were collected" true
          ((num "extensions" f) > 0);
        Alcotest.(check bool) "pairs were checked" true
          ((num "families" f) > 0);
        Alcotest.(check int) "one block" 1 (signature "blocks" r);
        (* %worlds (xbW) tm deq counts once per bounded family *)
        Alcotest.(check int) "two world declarations" 2 (signature "worlds" r));
    test "a family appealed to without a %worlds declaration is W0721, \
          with the appeal path" (fun () ->
        let sink, _, r = worlds_src (sig_src ^ refl_src) in
        Alcotest.(check int) "no E0720" 0 (count "E0720" sink);
        Alcotest.(check bool) "W0721 reported" true (count "W0721" sink > 0);
        let f = fn_report r "aeq-refl" in
        Alcotest.(check bool) "undeclared counted" true
          ((num "undeclared" f) > 0);
        Alcotest.(check bool) "not clean" false (flag "clean" f);
        List.iter
          (fun m ->
            Alcotest.(check bool) "witness path present" true
              (contains "appeal path:" m))
          (messages_of "W0721" sink));
    test "a declared world too small for the extension is E0720" (fun () ->
        let sink, _, r = worlds_src (sig_src ^ bad_decls ^ refl_src) in
        Alcotest.(check bool) "E0720 reported" true (count "E0720" sink > 0);
        let f = fn_report r "aeq-refl" in
        Alcotest.(check bool) "violations counted" true
          ((num "violations" f) > 0);
        List.iter
          (fun m ->
            Alcotest.(check bool) "names the world" true
              (contains "xbW" m || contains "declared worlds" m))
          (messages_of "E0720" sink);
        (* the analysis is per-function recovery, never an abort *)
        Alcotest.(check int) "no bugs" 0 (Diagnostics.bug_count sink));
    test "subordination strengthening drops entries irrelevant to the \
          boxed family" (fun () ->
        (* the xdG element extends with (x : tm, u : deq x x) but idtm
           only ever boxes tm-terms; deq is not subordinate to tm, so the
           tm-only declared world must suffice *)
        let sink, _, r = worlds_src (sig_src ^ tm_only_src) in
        Alcotest.(check int) "no E0720" 0 (count "E0720" sink);
        Alcotest.(check int) "no W0721" 0 (count "W0721" sink);
        Alcotest.(check bool) "clean" true
          (flag "clean" (fn_report r "idtm")));
    test "refinement subsorting lets one deq-level block cover the aeq \
          schema" (fun () ->
        (* xaG's element carries an aeq assumption; the declared block
           carries deq.  aeq <| deq, so the erased skeletons agree and
           the single block must cover both schemas *)
        let sink, _, _ = worlds_src (sig_src ^ good_decls ^ refl_src) in
        Alcotest.(check (list string)) "no findings at all" []
          (List.filter
             (fun c -> c = "E0720" || c = "W0721" || c = "W0722")
             (codes sink)));
  ]

(* --- strictness ---------------------------------------------------------- *)

let strict_tests =
  [
    test "a pattern variable with no strict occurrence is W0722" (fun () ->
        let sink, _, r = worlds_src nonstrict_src in
        Alcotest.(check int) "one W0722" 1 (count "W0722" sink);
        let f = fn_report r "leak" in
        Alcotest.(check int) "one non-strict variable" 1
          (num "nonstrict" f);
        List.iter
          (fun m ->
            Alcotest.(check bool) "names the variable" true (contains "M" m))
          (messages_of "W0722" sink));
    test "--no-strict suppresses the strictness pass" (fun () ->
        let sink, _, r = worlds_src ~check_strict:false nonstrict_src in
        Alcotest.(check int) "no W0722" 0 (count "W0722" sink);
        Alcotest.(check int) "not counted either" 0
          (num "nonstrict" (fn_report r "leak")));
    test "index-determined variables are strict through other sorts"
      (fun () ->
        (* N never occurs in the branch body, but it heads a
           distinct-variable spine inside M's declared sort, which pins
           it — no W0722 *)
        let src =
          {bel|
LF nat : type =
| z : nat
| s : nat -> nat;

LF le : nat -> nat -> type =
| le-z : {N : nat} le z N
| le-s : le M N -> le (s M) (s N);

rec weaken : [ |- nat] -> [ |- nat] =
fn d => case d of
| {N : [ |- nat]}
  [ |- s N] => [ |- N]
| [ |- z] => [ |- z];
|bel}
        in
        let sink, _, _ = worlds_src src in
        Alcotest.(check int) "no W0722" 0 (count "W0722" sink));
  ]

(* --- the shipped corpus stays worlds-clean ------------------------------- *)

let corpus_tests =
  [
    test "every shipped kit is worlds-clean" (fun () ->
        List.iter
          (fun (name, load) ->
            let sg = load () in
            let sink = Diagnostics.sink () in
            let r = run_worlds sink sg in
            Alcotest.(check int) (name ^ ": no errors") 0
              (Diagnostics.error_count sink);
            Alcotest.(check int) (name ^ ": no warnings") 0
              (Diagnostics.warning_count sink);
            List.iter
              (fun f ->
                Alcotest.(check bool)
                  (name ^ ": " ^ name_of f ^ " clean")
                  true (flag "clean" f))
              (functions r))
          [
            ("surface", Belr_kits.Surface.load);
            ("values", Belr_kits.Values.load);
            ("parity", Belr_kits.Parity.load);
            ("typed_equal", Belr_kits.Typed_equal.load);
          ]);
    test "the example corpus is worlds-clean" (fun () ->
        let sources =
          List.map
            (fun f -> (f, read_file ("../examples/" ^ f)))
            [ "quickstart.blr"; "totality.blr"; "equal.bel" ]
        in
        let sink = Diagnostics.sink () in
        let sg = Driver.check_sources sink sources in
        Alcotest.(check int) "corpus checks" 0 (Diagnostics.error_count sink);
        ignore (run_worlds sink sg);
        Alcotest.(check int) "no errors" 0 (Diagnostics.error_count sink);
        Alcotest.(check int) "no warnings" 0
          (Diagnostics.warning_count sink));
  ]

(* --- the belr-worlds/1 report ------------------------------------------- *)

let report_tests =
  [
    test "report_json has the belr-worlds/1 shape" (fun () ->
        let _, j = worlds_report (sig_src ^ good_decls ^ refl_src) in
        Alcotest.(check bool) "schema" true
          (J.member "schema" j = Some (J.String "belr-worlds/1"));
        (match Option.bind (J.member "functions" j) J.to_list with
        | Some [ f ] ->
            Alcotest.(check bool) "name" true
              (J.member "name" f = Some (J.String "aeq-refl"));
            Alcotest.(check bool) "clean" true
              (J.member "clean" f = Some (J.Bool true))
        | _ -> Alcotest.fail "expected one functions entry");
        (match J.member "signature" j with
        | Some s ->
            Alcotest.(check bool) "blocks" true
              (J.member "blocks" s = Some (J.Int 1));
            Alcotest.(check bool) "worlds" true
              (J.member "worlds" s = Some (J.Int 2))
        | None -> Alcotest.fail "no signature section");
        (match Option.bind (J.member "findings" j) J.to_list with
        | Some [] -> ()
        | _ -> Alcotest.fail "expected an empty findings array");
        Alcotest.(check bool) "exit code" true
          (J.member "exit_code" j = Some (J.Int 0)));
    test "violations land in the report's findings and exit code" (fun () ->
        let _, j = worlds_report (sig_src ^ bad_decls ^ refl_src) in
        (match Option.bind (J.member "findings" j) J.to_list with
        | Some (_ :: _ as fs) ->
            Alcotest.(check bool) "an E0720 finding" true
              (List.exists
                 (fun f -> J.member "code" f = Some (J.String "E0720"))
                 fs)
        | _ -> Alcotest.fail "expected findings");
        Alcotest.(check bool) "exit code 1" true
          (J.member "exit_code" j = Some (J.Int 1)));
  ]

let suites =
  [
    ("worlds subsumption", subsumption_tests);
    ("worlds strictness", strict_tests);
    ("worlds corpus", corpus_tests);
    ("worlds report", report_tests);
  ]
