(** The analysis registry ({!Belr_parser.Driver.analyses}): every entry
    yields a [belr-<name>/1] report in the shared envelope, keeps its own
    sections when the [--max-errors] cap stops it, and several entries in
    one run share the subordination relation and the call graph. *)

open Belr_support
open Belr_parser
module J = Json

let test name f = Alcotest.test_case name `Quick f

let nat = "LF nat : type = | z : nat | s : nat -> nat;\n"

(** A source whose first finding under each analyzer is an error. *)
let tripping =
  [
    ( "lint",
      nat
      ^ "LFR p1 <| nat : sort = | s : nat -> p1;\n\
         LFR p2 <| nat : sort = | s : nat -> p2;\n" );
    ("total", Test_totality.loop_src);
    ( "worlds",
      Test_worlds.sig_src ^ Test_worlds.bad_decls ^ Test_worlds.refl_src );
    ("modes", Test_modes.illmoded_src);
  ]

let report ?max_errors (a : Driver.analysis) src =
  let sink = Diagnostics.sink ?max_errors () in
  let sg = Driver.check_sources sink [ ("test.bel", src) ] in
  let o = Driver.run_analysis a sink sg in
  (sink, o, Driver.report_json ~files:[ "test.bel" ] sink a o)

let keys = function
  | J.Obj fields -> List.map fst fields
  | _ -> Alcotest.fail "the report is not an object"

let fixture (a : Driver.analysis) =
  match List.assoc_opt a.Driver.name tripping with
  | Some src -> src
  | None -> Alcotest.failf "no tripping fixture for %s" a.Driver.name

let registry_tests =
  [
    test "the registry lists lint, total, worlds, modes in order" (fun () ->
        Alcotest.(check (list string))
          "names"
          [ "lint"; "total"; "worlds"; "modes" ]
          (List.map (fun a -> a.Driver.name) Driver.analyses));
    test "every entry's report is belr-<name>/1 in the shared envelope"
      (fun () ->
        List.iter
          (fun (a : Driver.analysis) ->
            let _, o, j = report a (fixture a) in
            Alcotest.(check bool)
              (a.Driver.name ^ ": schema") true
              (J.member "schema" j
              = Some (J.String ("belr-" ^ a.Driver.name ^ "/1")));
            Alcotest.(check (list string))
              (a.Driver.name ^ ": envelope around the own sections")
              ([ "schema"; "files" ]
              @ List.map fst (Lazy.force o.Driver.sections)
              @ [ "findings"; "summary"; "exit_code" ])
              (keys j);
            Alcotest.(check bool)
              (a.Driver.name ^ ": has sections of its own") true
              (Lazy.force o.Driver.sections <> []);
            Alcotest.(check bool)
              (a.Driver.name ^ ": exit code 1") true
              (J.member "exit_code" j = Some (J.Int 1)))
          Driver.analyses);
    test "a --max-errors 1 stop still yields the entry's own sections"
      (fun () ->
        List.iter
          (fun (a : Driver.analysis) ->
            let _, full, _ = report a (fixture a) in
            let sink, o, j = report ~max_errors:1 a (fixture a) in
            Alcotest.(check bool)
              (a.Driver.name ^ ": the cap stopped the run") true
              (List.exists
                 (fun d -> d.Diagnostics.d_code = "E0002")
                 (Diagnostics.all sink));
            Alcotest.(check (list string))
              (a.Driver.name ^ ": same sections")
              (List.map fst (Lazy.force full.Driver.sections))
              (List.map fst (Lazy.force o.Driver.sections));
            List.iter
              (fun (k, _) ->
                Alcotest.(check bool)
                  (a.Driver.name ^ ": report carries " ^ k)
                  true
                  (J.member k j <> None))
              (Lazy.force o.Driver.sections))
          Driver.analyses);
  ]

(** Names of the spans recorded while running [f]. *)
let spans f =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled false)
    (fun () ->
      f ();
      List.map (fun e -> e.Telemetry.ev_name) (Telemetry.events ()))

let count name names = List.length (List.filter (String.equal name) names)

let pick names =
  List.filter (fun a -> List.mem a.Driver.name names) Driver.analyses

let facts_tests =
  [
    test "check --lint --worlds --modes builds subordination once"
      (fun () ->
        let names =
          spans (fun () ->
              let sink = Diagnostics.sink () in
              let sg =
                Driver.check_sources sink
                  [ ("equal.bel", Belr_kits.Surface.signature_src) ]
              in
              ignore
                (Driver.run_analyses
                   (pick [ "lint"; "worlds"; "modes" ])
                   sink sg))
        in
        Alcotest.(check int) "one subord span" 1 (count "subord" names);
        List.iter
          (fun a ->
            Alcotest.(check int) (a ^ " span") 1 (count a names))
          [ "lint"; "worlds"; "modes" ]);
    test "total and worlds share one call graph" (fun () ->
        let names =
          spans (fun () ->
              let sink = Diagnostics.sink () in
              let sg =
                Driver.check_sources sink
                  [ ("equal.bel", Belr_kits.Surface.full_src) ]
              in
              ignore
                (Driver.run_analyses (pick [ "total"; "worlds" ]) sink sg))
        in
        Alcotest.(check int) "one callgraph span" 1 (count "callgraph" names));
    test "a single-analyzer run builds only the facts it reads" (fun () ->
        let names =
          spans (fun () ->
              let sink = Diagnostics.sink () in
              let sg =
                Driver.check_sources sink
                  [ ("equal.bel", Belr_kits.Surface.full_src) ]
              in
              ignore (Driver.run_analysis (Driver.total_analysis ()) sink sg))
        in
        Alcotest.(check int) "one callgraph span" 1 (count "callgraph" names);
        Alcotest.(check int) "no subord span" 0 (count "subord" names));
  ]

let suites =
  [ ("analysis registry", registry_tests); ("analysis facts", facts_tests) ]
