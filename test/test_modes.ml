(** The mode & uniqueness analyzer (DESIGN.md §S27): [%mode]
    declarations assign input/output polarities, the groundness dataflow
    rejects clauses that cannot schedule their premises (E0730) or
    ground their outputs (E0731), W0732 nags families reachable without
    a mode, and W0733 flags input-overlapping clauses with divergent
    rigid outputs.  Fixtures are accept/reject pairs per code; the
    corpus tests pin the shipped kits and examples mode-clean. *)

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

let modes = Driver.modes_analysis ()

(** Check [src], then mode-check the resulting signature through the
    analysis registry. *)
let modes_outcome src =
  let sink = Diagnostics.sink () in
  let sg = Driver.check_sources sink [ ("test.bel", src) ] in
  Alcotest.(check int) "fixture checks cleanly" 0
    (Diagnostics.error_count sink);
  (sink, sg, Driver.run_analysis modes sink sg)

(** Mode-check [sg]; the result is the outcome's report sections, as
    one JSON object. *)
let run_modes sink sg =
  let o = Driver.run_analysis modes sink sg in
  J.Obj (Lazy.force o.Driver.sections)

let modes_src src =
  let sink, sg, o = modes_outcome src in
  (sink, sg, J.Obj (Lazy.force o.Driver.sections))

(** The belr-modes/1 report of [modes_outcome]. *)
let modes_report src =
  let sink, _, o = modes_outcome src in
  (sink, Driver.report_json ~files:[ "test.bel" ] sink modes o)

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

let families r = Option.value (J.to_list (field "families" r)) ~default:[]
let signature k r = num k (field "signature" r)

let fam_report r name =
  match List.find_opt (fun f -> name_of f = name) (families r) with
  | Some f -> f
  | None -> Alcotest.failf "%s not analyzed" name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- fixtures ------------------------------------------------------------ *)

let base = {bel|
LF d : type =
| k : d
| j : d -> d;
|bel}

(* the premise's second argument X never becomes ground: no input
   mentions it and nothing produces it *)
let illmoded_src =
  base
  ^ {bel|
LF f : d -> d -> type =
| c : f N X -> f N N;
%mode f +M +N;
|bel}

(* same shape, but the premise only consumes what the head supplies *)
let wellmoded_src =
  base
  ^ {bel|
LF f : d -> d -> type =
| c : f N N -> f (j N) (j N);
%mode f +M +N;
|bel}

(* the conclusion's output N is never produced: no premises at all *)
let ungrounded_src =
  base
  ^ {bel|
LF f : d -> d -> type =
| c : f M N;
%mode f +M -N;
|bel}

(* every output flows out of a scheduled premise *)
let grounded_src =
  base
  ^ {bel|
LF f : d -> d -> type =
| cz : f k k
| cj : f M N -> f (j M) (j N);
%mode f +M -N;
|bel}

(* f's clauses appeal to unmoded g (twice — the warning deduplicates) *)
let missing_src =
  base
  ^ {bel|
LF g : d -> type =
| gk : g k;
LF f : d -> type =
| c1 : g X -> f X
| c2 : g X -> f (j X);
%mode f +M;
|bel}

(* identical inputs, rigidly different outputs *)
let nonunique_src =
  base
  ^ {bel|
LF f : d -> d -> type =
| c1 : f k k
| c2 : f k (j k);
%mode f +M -N;
|bel}

(* --- groundness: accept / reject ----------------------------------------- *)

let groundness_tests =
  [
    test "a premise whose input is never ground is E0730, with the stuck \
          variable as witness" (fun () ->
        let sink, _, r = modes_src illmoded_src in
        Alcotest.(check int) "one E0730" 1 (count "E0730" sink);
        Alcotest.(check int) "no E0731 cascade" 0 (count "E0731" sink);
        let f = fam_report r "f" in
        Alcotest.(check int) "illmoded counted" 1 (num "illmoded" f);
        Alcotest.(check bool) "not clean" false (flag "clean" f);
        List.iter
          (fun m ->
            Alcotest.(check bool) "names the clause" true (contains "c" m);
            Alcotest.(check bool) "names the witness" true (contains "X" m))
          (messages_of "E0730" sink);
        Alcotest.(check int) "exit 1" 1 (Diagnostics.exit_code sink));
    test "a schedulable premise chain is accepted" (fun () ->
        let sink, _, r = modes_src wellmoded_src in
        Alcotest.(check int) "no E0730" 0 (count "E0730" sink);
        Alcotest.(check int) "no E0731" 0 (count "E0731" sink);
        let f = fam_report r "f" in
        Alcotest.(check bool) "clean" true (flag "clean" f);
        Alcotest.(check int) "two inputs" 2 (num "inputs" f);
        Alcotest.(check int) "no outputs" 0 (num "outputs" f);
        Alcotest.(check int) "one clause" 1 (num "clauses" f);
        Alcotest.(check int) "exit 0" 0 (Diagnostics.exit_code sink));
    test "an output no premise produces is E0731, with the position and \
          the free variable" (fun () ->
        let sink, _, r = modes_src ungrounded_src in
        Alcotest.(check int) "one E0731" 1 (count "E0731" sink);
        Alcotest.(check int) "no E0730" 0 (count "E0730" sink);
        let f = fam_report r "f" in
        Alcotest.(check int) "ungrounded counted" 1 (num "ungrounded" f);
        List.iter
          (fun m ->
            Alcotest.(check bool) "names the position" true
              (contains "output argument 2" m);
            Alcotest.(check bool) "names the variable" true (contains "N" m))
          (messages_of "E0731" sink);
        Alcotest.(check int) "exit 1" 1 (Diagnostics.exit_code sink));
    test "outputs produced by scheduled premises are accepted" (fun () ->
        let sink, _, r = modes_src grounded_src in
        Alcotest.(check (list string)) "no findings" [] (codes sink);
        let f = fam_report r "f" in
        Alcotest.(check bool) "clean" true (flag "clean" f);
        Alcotest.(check int) "one input, one output" 1 (num "inputs" f);
        Alcotest.(check int) "one output" 1 (num "outputs" f);
        Alcotest.(check int) "two clauses" 2 (num "clauses" f));
  ]

(* --- the missing-%mode warning ------------------------------------------- *)

let missing_tests =
  [
    test "an unmoded premise family is W0732, once per family" (fun () ->
        let sink, _, r = modes_src missing_src in
        Alcotest.(check int) "one W0732 (deduplicated)" 1
          (count "W0732" sink);
        Alcotest.(check int) "counted in the result" 1 (signature "missing" r);
        Alcotest.(check int) "no errors" 0 (Diagnostics.error_count sink);
        List.iter
          (fun m ->
            Alcotest.(check bool) "blames the appealing clause" true
              (contains "of f appeals to g" m))
          (messages_of "W0732" sink);
        (* lenient: the moded family itself still checks clean *)
        Alcotest.(check bool) "f clean" true
          (flag "clean" (fam_report r "f"));
        Alcotest.(check int) "exit 0 (warning only)" 0
          (Diagnostics.exit_code sink));
    test "a family a rec appeals to without a %mode is W0732" (fun () ->
        let src =
          base
          ^ {bel|
LF f : d -> type =
| c : f k;
%mode f +M;
LF g : d -> type =
| gk : g k;
rec use : [ |- g k] -> [ |- g k] =
fn x => x;
|bel}
        in
        let sink, _, r = modes_src src in
        Alcotest.(check int) "one W0732" 1 (count "W0732" sink);
        Alcotest.(check int) "counted" 1 (signature "missing" r);
        List.iter
          (fun m ->
            Alcotest.(check bool) "blames the rec" true
              (contains "rec use" m))
          (messages_of "W0732" sink));
    test "signatures with no %mode at all are never nagged" (fun () ->
        let src =
          base
          ^ {bel|
LF g : d -> type =
| gk : g k;
rec use : [ |- g k] -> [ |- g k] =
fn x => x;
|bel}
        in
        let sink, _, r = modes_src src in
        Alcotest.(check int) "no W0732" 0 (count "W0732" sink);
        Alcotest.(check int) "nothing analyzed" 0 (List.length (families r)));
    test "W0732 renders byte-for-byte, once per family, from a clause or a \
          rec"
      (fun () ->
        (* c2 and the rec appeal to g again: already warned, so silent *)
        let sink, _, _ =
          modes_src
            (missing_src
           ^ {bel|LF h : d -> type =
| hk : h k;
rec use : [ |- h k] -> [ |- g k] -> [ |- h k] =
fn x => fn y => x;
|bel})
        in
        Alcotest.(check (list string))
          "rendered findings"
          [
            "test.bel:9.2-4: warning[W0732]: clause c1 of f appeals to g, \
             which has no %mode declaration; its arguments are assumed \
             ground";
            "test.bel:14.4-7: warning[W0732]: rec use appeals to h, which \
             has no %mode declaration; its arguments are assumed ground";
          ]
          (List.map (Fmt.str "%a" Diagnostics.pp) (Diagnostics.all sink)));
  ]

(* --- uniqueness ----------------------------------------------------------- *)

let uniqueness_tests =
  [
    test "overlapping inputs with divergent rigid outputs are W0733"
      (fun () ->
        let sink, _, r = modes_src nonunique_src in
        Alcotest.(check int) "one W0733" 1 (count "W0733" sink);
        let f = fam_report r "f" in
        Alcotest.(check int) "nonunique counted" 1 (num "nonunique" f);
        Alcotest.(check bool) "not clean" false (flag "clean" f);
        List.iter
          (fun m ->
            Alcotest.(check bool) "names both clauses" true
              (contains "c1 and c2" m))
          (messages_of "W0733" sink);
        Alcotest.(check int) "exit 0 (warning)" 0
          (Diagnostics.exit_code sink));
    test "the same clauses are fine when every position is an input"
      (fun () ->
        (* with +M +N the divergent position is an input: the clauses
           simply do not overlap, so uniqueness is vacuous *)
        let src =
          base
          ^ {bel|
LF f : d -> d -> type =
| c1 : f k k
| c2 : f k (j k);
%mode f +M +N;
|bel}
        in
        let sink, _, r = modes_src src in
        Alcotest.(check int) "no W0733" 0 (count "W0733" sink);
        Alcotest.(check bool) "clean" true (flag "clean" (fam_report r "f")));
    test "rigidly clashing inputs never overlap" (fun () ->
        let sink, _, _ = modes_src grounded_src in
        Alcotest.(check int) "no W0733" 0 (count "W0733" sink));
  ]

(* --- sort-level modes ----------------------------------------------------- *)

let sort_src =
  base
  ^ {bel|
LF q : d -> type =
| qc : q X
| qj : q X -> q (j X);
LFR r <| q : d -> sort =
| qj : r X -> r (j X);
|bel}

let sorted_tests =
  [
    test "a type-level mode checks every constructor: qc cannot ground \
          its output" (fun () ->
        let sink, _, _ = modes_src (sort_src ^ "%mode q -M;\n") in
        Alcotest.(check int) "one E0731" 1 (count "E0731" sink));
    test "the same mode on the refinement checks only the sort's sharper \
          clause set" (fun () ->
        let sink, _, r = modes_src (sort_src ^ "%mode r -M;\n") in
        Alcotest.(check (list string)) "no findings" [] (codes sink);
        let f = fam_report r "r" in
        Alcotest.(check bool) "keyed as a sort" true (flag "sorted" f);
        Alcotest.(check int) "only the refined clause" 1 (num "clauses" f);
        Alcotest.(check bool) "clean" true (flag "clean" f));
  ]

(* --- %mode processing errors ---------------------------------------------- *)

let process_src src =
  let sink = Diagnostics.sink () in
  let _sg = Driver.check_sources sink [ ("test.bel", src) ] in
  sink

let process_tests =
  [
    test "an arity mismatch is a declaration error" (fun () ->
        let sink =
          process_src
            (base ^ "LF f : d -> type = | c : f k;\n%mode f +M +N;\n")
        in
        Alcotest.(check int) "one E0201" 1 (count "E0201" sink);
        Alcotest.(check bool) "explains the mismatch" true
          (List.exists
             (contains "declares 2 argument position(s)")
             (messages_of "E0201" sink)));
    test "an unknown family is a declaration error" (fun () ->
        let sink = process_src (base ^ "%mode nosuch +M;\n") in
        Alcotest.(check int) "one E0201" 1 (count "E0201" sink);
        Alcotest.(check bool) "names the problem" true
          (List.exists
             (contains "does not name a type or sort family")
             (messages_of "E0201" sink)));
    test "a second %mode for the same family is rejected" (fun () ->
        let sink =
          process_src
            (base ^ "LF f : d -> type = | c : f k;\n\
                     %mode f +M;\n%mode f +M;\n")
        in
        Alcotest.(check int) "one E0201" 1 (count "E0201" sink);
        Alcotest.(check bool) "says it is a duplicate" true
          (List.exists
             (contains "already declared")
             (messages_of "E0201" sink)));
    test "a sort's mode keys under the refined family: a duplicate via \
          the refinement is rejected too" (fun () ->
        let sink =
          process_src (sort_src ^ "%mode q -M;\n%mode r -M;\n")
        in
        Alcotest.(check int) "one E0201" 1 (count "E0201" sink));
  ]

(* --- the shipped corpus stays mode-clean ---------------------------------- *)

let corpus_tests =
  [
    test "every shipped kit is mode-clean" (fun () ->
        List.iter
          (fun (name, load, n_modes) ->
            let sg = load () in
            let sink = Diagnostics.sink () in
            let r = run_modes sink sg in
            Alcotest.(check int) (name ^ ": mode declarations") n_modes
              (signature "modes" r);
            Alcotest.(check int) (name ^ ": no errors") 0
              (Diagnostics.error_count sink);
            Alcotest.(check int) (name ^ ": no warnings") 0
              (Diagnostics.warning_count sink);
            List.iter
              (fun f ->
                Alcotest.(check bool)
                  (name ^ ": " ^ name_of f ^ " clean")
                  true (flag "clean" f))
              (families r))
          [
            ("surface", Belr_kits.Surface.load, 1);
            ("values", Belr_kits.Values.load, 2);
            ("parity", Belr_kits.Parity.load, 1);
            ("typed_equal", Belr_kits.Typed_equal.load, 1);
          ]);
    test "the shipped aeq mode is sort-level with both terms as inputs"
      (fun () ->
        let sg = Belr_kits.Surface.load () in
        let sink = Diagnostics.sink () in
        let r = run_modes sink sg in
        let f = fam_report r "aeq" in
        Alcotest.(check bool) "sorted" true (flag "sorted" f);
        Alcotest.(check int) "inputs" 2 (num "inputs" f);
        Alcotest.(check int) "outputs" 0 (num "outputs" f);
        (* only the refinement's two congruence clauses are checked:
           e-refl/e-sym/e-trans live in declarative deq only *)
        Alcotest.(check int) "clauses" 2 (num "clauses" f));
    test "typed_equal synthesizes its classifying type as an output"
      (fun () ->
        let sg = Belr_kits.Typed_equal.load () in
        let sink = Diagnostics.sink () in
        let r = run_modes sink sg in
        let f = fam_report r "aeq" in
        Alcotest.(check int) "inputs" 2 (num "inputs" f);
        Alcotest.(check int) "outputs" 1 (num "outputs" f);
        Alcotest.(check bool) "clean" true (flag "clean" f));
    test "the example corpus is mode-clean" (fun () ->
        let sources =
          List.map
            (fun f -> (f, read_file ("../examples/" ^ f)))
            [ "quickstart.blr"; "totality.blr"; "equal.bel" ]
        in
        let sink = Diagnostics.sink () in
        let sg = Driver.check_sources sink sources in
        Alcotest.(check int) "corpus checks" 0
          (Diagnostics.error_count sink);
        let r = run_modes sink sg in
        Alcotest.(check int) "no errors" 0 (Diagnostics.error_count sink);
        Alcotest.(check int) "no warnings" 0
          (Diagnostics.warning_count sink);
        Alcotest.(check int) "two modes (nat, aeq)" 2 (signature "modes" r));
  ]

(* --- telemetry ------------------------------------------------------------ *)

let telemetry_tests =
  [
    test "the phases appear as modes:<pass> telemetry spans" (fun () ->
        Telemetry.reset ();
        Telemetry.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Telemetry.set_enabled false)
          (fun () ->
            let _ = modes_src grounded_src in
            let names =
              List.map (fun e -> e.Telemetry.ev_name) (Telemetry.events ())
            in
            List.iter
              (fun p ->
                Alcotest.(check bool) (p ^ " span recorded") true
                  (List.mem p names))
              [
                "modes"; "modes:subord"; "modes:clauses";
                "modes:groundness"; "modes:unique"; "modes:recs";
              ]));
  ]

(* --- the belr-modes/1 report ---------------------------------------------- *)

let report_tests =
  [
    test "report_json has the belr-modes/1 shape" (fun () ->
        let _, j = modes_report grounded_src in
        Alcotest.(check bool) "schema" true
          (J.member "schema" j = Some (J.String "belr-modes/1"));
        (match Option.bind (J.member "families" j) J.to_list with
        | Some [ f ] ->
            Alcotest.(check bool) "name" true
              (J.member "name" f = Some (J.String "f"));
            Alcotest.(check bool) "clean" true
              (J.member "clean" f = Some (J.Bool true));
            Alcotest.(check bool) "clauses" true
              (J.member "clauses" f = Some (J.Int 2))
        | _ -> Alcotest.fail "expected one families entry");
        (match J.member "signature" j with
        | Some s ->
            Alcotest.(check bool) "modes" true
              (J.member "modes" s = Some (J.Int 1));
            Alcotest.(check bool) "missing" true
              (J.member "missing" s = Some (J.Int 0))
        | None -> Alcotest.fail "no signature section");
        (match Option.bind (J.member "findings" j) J.to_list with
        | Some [] -> ()
        | _ -> Alcotest.fail "expected an empty findings array");
        Alcotest.(check bool) "exit code" true
          (J.member "exit_code" j = Some (J.Int 0)));
    test "violations land in the report's findings and exit code" (fun () ->
        let _, j = modes_report illmoded_src in
        (match Option.bind (J.member "findings" j) J.to_list with
        | Some (_ :: _ as fs) ->
            Alcotest.(check bool) "an E0730 finding" true
              (List.exists
                 (fun f -> J.member "code" f = Some (J.String "E0730"))
                 fs)
        | _ -> Alcotest.fail "expected findings");
        Alcotest.(check bool) "exit code 1" true
          (J.member "exit_code" j = Some (J.Int 1)));
  ]

(* --- the registry and its README mirror ----------------------------------- *)

let codes_tests =
  [
    test "the new codes are registered with their documented severities"
      (fun () ->
        List.iter
          (fun (code, sev) ->
            match
              List.find_opt
                (fun c -> c.Diagnostics.cc_code = code)
                Diagnostics.registry
            with
            | Some c ->
                Alcotest.(check string) (code ^ " severity") sev
                  (Diagnostics.severity_label c.Diagnostics.cc_severity)
            | None -> Alcotest.failf "%s not registered" code)
          [
            ("E0730", "error"); ("E0731", "error"); ("W0732", "warning");
            ("W0733", "warning");
          ]);
    test "README embeds the generated diagnostic-codes table verbatim"
      (fun () ->
        (* the README table is the output of [belr codes --markdown];
           regenerate and paste it there whenever the registry changes *)
        let readme = read_file "../README.md" in
        Alcotest.(check bool) "table up to date" true
          (contains (Diagnostics.registry_markdown ()) readme));
  ]

let suites =
  [
    ("modes groundness", groundness_tests);
    ("modes missing", missing_tests);
    ("modes uniqueness", uniqueness_tests);
    ("modes sorted", sorted_tests);
    ("modes process", process_tests);
    ("modes corpus", corpus_tests);
    ("modes telemetry", telemetry_tests);
    ("modes report", report_tests);
    ("modes codes", codes_tests);
  ]
