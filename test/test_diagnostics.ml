(** The fault-tolerant checking pipeline: multi-error reporting with
    stable codes, per-declaration recovery without cascades, resource
    guards, and the 0/1/2 exit-code contract. *)

open Belr_support
open Belr_parser

let base = Belr_kits.Surface.signature_src

let check ?max_errors ?werror src =
  let sink = Diagnostics.sink ?max_errors ?werror () in
  let sg = Driver.check_sources sink [ ("test.bel", src) ] in
  (sink, sg)

let codes_of severity sink =
  List.filter_map
    (fun (d : Diagnostics.t) ->
      if d.Diagnostics.d_severity = severity then Some d.Diagnostics.d_code
      else None)
    (Diagnostics.all sink)

let test name f = Alcotest.test_case name `Quick f

(** Restore the global depth budget (and counters) even if the test
    fails. *)
let with_max_depth n f =
  Limits.set_max_depth n;
  Fun.protect
    ~finally:(fun () ->
      Limits.set_max_depth Limits.default_max_depth;
      Limits.reset ())
    f

let multi_error_tests =
  [
    test "a clean file yields no diagnostics and exit code 0" (fun () ->
        let sink, _ = check base in
        Alcotest.(check int) "errors" 0 (Diagnostics.error_count sink);
        Alcotest.(check int) "exit" 0 (Diagnostics.exit_code sink));
    test "three independent bad declarations report exactly three errors"
      (fun () ->
        let sink, _ =
          check
            (base
           ^ "LF bad1 : type = | c1 : missing1;\n\
              LF bad2 : type = | c2 : missing2;\n\
              LF bad3 : type = | c3 : missing3;")
        in
        Alcotest.(check int) "errors" 3 (Diagnostics.error_count sink);
        Alcotest.(check (list string))
          "stable codes" [ "E0201"; "E0201"; "E0201" ]
          (codes_of Diagnostics.Error sink);
        Alcotest.(check int) "exit" 1 (Diagnostics.exit_code sink));
    test "references to a failed declaration note once, with no cascade"
      (fun () ->
        let sink, _ =
          check
            (base
           ^ "LF bad : type = | c : missing;\n\
              LF useA : type = | ua : bad -> useA;\n\
              LF useB : type = | ub : bad -> useB;")
        in
        (* one real error; the two downstream declarations produce a single
           deduplicated E0801 note *)
        Alcotest.(check int) "errors" 1 (Diagnostics.error_count sink);
        Alcotest.(check (list string))
          "notes" [ "E0801" ]
          (codes_of Diagnostics.Note sink);
        Alcotest.(check int) "exit" 1 (Diagnostics.exit_code sink));
    test "recovery preserves good declarations around a failure" (fun () ->
        let sink, sg =
          check
            (base
           ^ "LF good1 : type = | g1 : tm -> good1;\n\
              LF bad : type = | c : missing;\n\
              LF good2 : type = | g2 : good1 -> good2;")
        in
        Alcotest.(check int) "errors" 1 (Diagnostics.error_count sink);
        let declared n =
          match Belr_lf.Sign.lookup_name sg n with
          | Some (Belr_lf.Sign.Sym_typ _) -> true
          | _ -> false
        in
        Alcotest.(check bool) "good1 survives" true (declared "good1");
        Alcotest.(check bool) "good2 checked after the failure" true
          (declared "good2"));
    test "syntax errors resynchronize at declaration boundaries" (fun () ->
        let sink, sg =
          check
            (base
           ^ "LF bad1 : type = | c1 : (tm -> ;\n\
              LF good : type = | g : tm -> good;\n\
              rec bad2 : = fn x => x;")
        in
        Alcotest.(check (list string))
          "two syntax errors" [ "E0101"; "E0101" ]
          (codes_of Diagnostics.Error sink);
        Alcotest.(check bool) "good parsed and checked" true
          (Belr_lf.Sign.lookup_name sg "good" <> None));
    test "the --max-errors cap stops with a final note" (fun () ->
        let sink, _ =
          check ~max_errors:2
            (base
           ^ "LF b1 : type = | c1 : m1;\nLF b2 : type = | c2 : m2;\n\
              LF b3 : type = | c3 : m3;\nLF b4 : type = | c4 : m4;")
        in
        Alcotest.(check int) "capped" 2 (Diagnostics.error_count sink);
        Alcotest.(check bool) "stop note" true
          (List.mem "E0002" (codes_of Diagnostics.Note sink)));
  ]

let exit_code_tests =
  [
    test "warnings alone keep exit code 0" (fun () ->
        let sink = Diagnostics.sink () in
        Diagnostics.emit sink
          (Diagnostics.make ~code:"W0601" Diagnostics.Warning "w");
        Alcotest.(check int) "exit" 0 (Diagnostics.exit_code sink));
    test "--werror promotes warnings to errors (exit 1)" (fun () ->
        let sink = Diagnostics.sink ~werror:true () in
        Diagnostics.emit sink
          (Diagnostics.make ~code:"W0601" Diagnostics.Warning "w");
        Alcotest.(check int) "errors" 1 (Diagnostics.error_count sink);
        Alcotest.(check int) "exit" 1 (Diagnostics.exit_code sink));
    test "a recovered Violation is a bug: exit code 2" (fun () ->
        let sink = Diagnostics.sink () in
        let r =
          Diagnostics.recover sink (fun () -> Error.violation "broken invariant")
        in
        Alcotest.(check bool) "recovered" true (r = None);
        Alcotest.(check int) "bugs" 1 (Diagnostics.bug_count sink);
        Alcotest.(check (list string))
          "code" [ "B0001" ]
          (codes_of Diagnostics.Bug sink);
        Alcotest.(check int) "exit" 2 (Diagnostics.exit_code sink));
    test "bugs dominate user errors in the exit code" (fun () ->
        let sink = Diagnostics.sink () in
        Diagnostics.emit sink
          (Diagnostics.make ~code:"E0201" Diagnostics.Error "user error");
        ignore (Diagnostics.recover sink (fun () -> Error.violation "bug"));
        Alcotest.(check int) "exit" 2 (Diagnostics.exit_code sink));
    test "an unexpected exception is a recovered B0002 bug" (fun () ->
        let sink = Diagnostics.sink () in
        let r = Diagnostics.recover sink (fun () -> raise Not_found) in
        Alcotest.(check bool) "recovered" true (r = None);
        Alcotest.(check (list string))
          "code" [ "B0002" ]
          (codes_of Diagnostics.Bug sink));
    test "a missing file is an E0701 diagnostic, not a crash" (fun () ->
        let sink = Diagnostics.sink () in
        let _sg = Driver.check_files sink [ "/nonexistent/belr/file.bel" ] in
        Alcotest.(check (list string))
          "code" [ "E0701" ]
          (codes_of Diagnostics.Error sink);
        Alcotest.(check int) "exit" 1 (Diagnostics.exit_code sink));
  ]

let resource_tests =
  [
    test "a hereditary-substitution bomb hits the fuel, not the stack"
      (fun () ->
        with_max_depth 500 (fun () ->
            let open Belr_syntax.Lf in
            (* [self/x](x x) where self = λx. x x: diverges *)
            let self = (mk_lam "x" ((mk_root ((mk_bvar 1)) ([ (mk_root ((mk_bvar 1)) []) ])))) in
            let body = (mk_root ((mk_bvar 1)) ([ (mk_root ((mk_bvar 1)) []) ])) in
            match Belr_lf.Hsub.inst_normal body self with
            | _ -> Alcotest.fail "expected Limit_exceeded"
            | exception Limits.Limit_exceeded ("hereditary substitution", _)
              ->
                ()
            | exception Stack_overflow ->
                Alcotest.fail "Stack_overflow escaped the guard"));
    test "guards unwind their counters on user errors" (fun () ->
        with_max_depth 500 (fun () ->
            let c = Limits.counter "test" in
            (try
               Limits.guard c (fun () ->
                   Limits.guard c (fun () -> Error.raise_msg "inner failure"))
             with Error.Belr_error _ -> ());
            Alcotest.(check int) "depth restored" 0 c.Limits.c_depth));
    test "an exhausted depth budget yields E0901 and exit 1" (fun () ->
        with_max_depth 1 (fun () ->
            let sink, _ = check Belr_kits.Surface.full_src in
            Alcotest.(check bool) "has E0901" true
              (List.mem "E0901" (codes_of Diagnostics.Error sink));
            Alcotest.(check int) "exit" 1 (Diagnostics.exit_code sink)));
  ]

let analysis_tests =
  [
    test "--total warnings flow through the sink with stable codes"
      (fun () ->
        let sink = Diagnostics.sink () in
        let sg =
          Driver.check_sources sink [ ("test.bel", Belr_kits.Surface.full_src) ]
        in
        ignore (Driver.run_analysis (Driver.total_analysis ()) sink sg);
        Alcotest.(check int) "no errors" 0 (Diagnostics.error_count sink);
        Alcotest.(check bool) "coverage warnings" true
          (List.mem "W0711" (codes_of Diagnostics.Warning sink));
        Alcotest.(check int) "exit stays 0" 0 (Diagnostics.exit_code sink));
    test "--total with --werror fails the run" (fun () ->
        let sink = Diagnostics.sink ~werror:true () in
        let sg =
          Driver.check_sources sink [ ("test.bel", Belr_kits.Surface.full_src) ]
        in
        ignore (Driver.run_analysis (Driver.total_analysis ()) sink sg);
        Alcotest.(check int) "exit" 1 (Diagnostics.exit_code sink));
  ]

let registry_tests =
  [
    test "the code registry has no duplicate registrations" (fun () ->
        match Diagnostics.check_codes Diagnostics.registry with
        | Ok () -> ()
        | Error msg -> Alcotest.fail msg);
    test "check_codes rejects a duplicated code" (fun () ->
        let dup =
          Diagnostics.registry
          @ [
              {
                Diagnostics.cc_code = "E0201";
                cc_severity = Diagnostics.Error;
                cc_doc = "imposter";
              };
            ]
        in
        match Diagnostics.check_codes dup with
        | Ok () -> Alcotest.fail "duplicate E0201 was accepted"
        | Error msg ->
            let contains affix s =
              let n = String.length affix and m = String.length s in
              let rec go i =
                i + n <= m && (String.sub s i n = affix || go (i + 1))
              in
              go 0
            in
            Alcotest.(check bool) "names the code" true
              (contains "E0201" msg));
    test "every code emitted by the pipeline, lint, and total is registered"
      (fun () ->
        (* codes referenced in this test file + the analysis pass codes *)
        List.iter
          (fun c ->
            Alcotest.(check bool) (c ^ " registered") true
              (Diagnostics.code_class c <> None))
          [
            "E0001"; "E0002"; "E0101"; "E0201"; "E0701"; "E0702"; "E0801";
            "E0901"; "E0902"; "W0601"; "W0602"; "E0710"; "W0711"; "W0712";
            "W0701"; "W0702"; "W0703"; "W0704"; "W0705"; "B0001"; "B0002";
          ]);
    test "registry severities match the lint exit-code contract" (fun () ->
        (* E0702 must be an Error (findings fail the run); W07xx must be
           Warnings (clean exit unless --werror) *)
        let sev c =
          match Diagnostics.code_class c with
          | Some cc -> cc.Diagnostics.cc_severity
          | None -> Alcotest.failf "%s not registered" c
        in
        Alcotest.(check bool) "E0702 is an error" true
          (sev "E0702" = Diagnostics.Error);
        (* a non-terminating cycle must fail the run; coverage gaps and
           resource-bound giveups must stay warnings unless --werror *)
        Alcotest.(check bool) "E0710 is an error" true
          (sev "E0710" = Diagnostics.Error);
        List.iter
          (fun c ->
            Alcotest.(check bool) (c ^ " is a warning") true
              (sev c = Diagnostics.Warning))
          [ "W0701"; "W0702"; "W0703"; "W0704"; "W0705"; "W0711"; "W0712" ]);
  ]

let dump_tests =
  [
    (* regression: [dump] must flush explicitly, or diagnostics sit in the
       Format buffer and interleave wrongly with (or never reach) the
       device when the process exits through [exit]. *)
    test "dump writes every diagnostic and flushes the formatter" (fun () ->
        let buf = Buffer.create 256 in
        let flushed = ref false in
        let ppf =
          Format.formatter_of_out_functions
            {
              Format.out_string =
                (fun s pos len -> Buffer.add_substring buf s pos len);
              out_flush = (fun () -> flushed := true);
              out_newline = (fun () -> Buffer.add_char buf '\n');
              out_spaces = (fun n -> Buffer.add_string buf (String.make n ' '));
              out_indent = (fun n -> Buffer.add_string buf (String.make n ' '));
            }
        in
        let sink, _ = check (base ^ "LF bad : type = | c : missing;") in
        Alcotest.(check int) "one error" 1 (Diagnostics.error_count sink);
        Diagnostics.dump ppf sink;
        Alcotest.(check bool) "formatter flushed" true !flushed;
        Alcotest.(check bool) "diagnostic text reached the device" true
          (Buffer.length buf > 0));
  ]

let suites =
  [
    ("diagnostics.multi-error", multi_error_tests);
    ("diagnostics.exit-codes", exit_code_tests);
    ("diagnostics.resources", resource_tests);
    ("diagnostics.analyses", analysis_tests);
    ("diagnostics.registry", registry_tests);
    ("diagnostics.dump", dump_tests);
  ]
