(** The telemetry layer: span nesting and ordering, counters under error
    recovery, the Chrome-trace and profile renderers (parsed back with the
    in-tree JSON parser), the disabled-mode no-op guarantee, and the JSON
    module itself. *)

open Belr_support
open Belr_parser

let test name f = Alcotest.test_case name `Quick f

(** Run [f] with telemetry freshly enabled, disabling it again even if the
    test fails (telemetry is process-global state). *)
let with_telemetry (f : unit -> 'a) : 'a =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f

let check_sources src =
  let sink = Diagnostics.sink () in
  let sg = Driver.check_sources sink [ ("test.bel", src) ] in
  (sink, sg)

(* a small program that exercises hereditary substitution (dependent
   application) and unification (computation-level pattern matching) *)
let workload =
  {bel|
LF nat : type =
| z : nat
| s : nat -> nat;

LFR pos <| nat : sort =
| s : nat -> pos;

rec pred : [ |- pos] -> [ |- nat] =
fn d => case d of
| {N : [ |- nat]}
  [ |- s N] => [ |- N];
|bel}

(* --- json -------------------------------------------------------------- *)

let roundtrip j =
  match Json.parse (Json.to_string j) with
  | Ok j' -> j'
  | Error msg -> Alcotest.failf "roundtrip parse failed: %s" msg

let json_tests =
  [
    test "roundtrip: nested objects, arrays, scalars" (fun () ->
        let j =
          Json.Obj
            [
              ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]);
              ("b", Json.Obj [ ("t", Json.Bool true); ("f", Json.Bool false) ]);
              ("s", Json.String "plain");
              ("empty_list", Json.List []);
              ("empty_obj", Json.Obj []);
            ]
        in
        Alcotest.(check bool) "equal" true (roundtrip j = j));
    test "roundtrip: strings needing escapes" (fun () ->
        let s = "quote \" backslash \\ newline \n tab \t ctrl \x01 é" in
        Alcotest.(check bool)
          "equal" true
          (roundtrip (Json.String s) = Json.String s));
    test "parse: \\u escapes decode to UTF-8" (fun () ->
        match Json.parse {|"éA"|} with
        | Ok (Json.String s) -> Alcotest.(check string) "decoded" "éA" s
        | Ok _ -> Alcotest.fail "expected a string"
        | Error msg -> Alcotest.failf "parse failed: %s" msg);
    test "parse: numbers" (fun () ->
        Alcotest.(check bool)
          "ints and floats" true
          (Json.parse "[0, -12, 3.5, 1e3, -2.5e-1]"
          = Ok
              (Json.List
                 [
                   Json.Int 0; Json.Int (-12); Json.Float 3.5;
                   Json.Float 1000.; Json.Float (-0.25);
                 ])));
    test "parse: rejects malformed input" (fun () ->
        let bad = [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ] in
        List.iter
          (fun src ->
            match Json.parse src with
            | Ok _ -> Alcotest.failf "accepted malformed %S" src
            | Error _ -> ())
          bad);
    test "emitter degrades non-finite floats to null" (fun () ->
        Alcotest.(check bool)
          "nan is null" true
          (roundtrip (Json.Float Float.nan) = Json.Null));
    test "parse: \\u escapes, invalid code points decode to U+FFFD" (fun () ->
        List.iter
          (fun (src, want) ->
            match Json.parse src with
            | Ok (Json.String s) -> Alcotest.(check string) src want s
            | Ok _ -> Alcotest.failf "%s: expected a string" src
            | Error msg -> Alcotest.failf "%s: %s" src msg)
          [
            ({|"\u0000"|}, "\x00");
            ({|"\u001f "|}, "\x1f ");
            ({|"\u00e9\u00E9"|}, "\xc3\xa9\xc3\xa9");
            ({|"a\u20acb"|}, "a\xe2\x82\xacb");
            ({|"\uffff"|}, "\xef\xbf\xbf");
            ({|"\ud800"|}, "\xef\xbf\xbd");
            ({|"\udfff\ud83d\ude00"|}, "\xef\xbf\xbd\xef\xbf\xbd\xef\xbf\xbd");
            ({|"\"\\\/\b\f\n\r\t"|}, "\"\\/\b\012\n\r\t");
          ]);
    test "parse: the exact error of each malformed string" (fun () ->
        List.iter
          (fun (src, want) ->
            match Json.parse src with
            | Ok _ -> Alcotest.failf "accepted malformed %S" src
            | Error msg -> Alcotest.(check string) src want msg)
          [
            ({|"abc|}, "offset 4: unterminated string");
            ({|["a", "b|}, "offset 8: unterminated string");
            ({|"ab\|}, "offset 4: unterminated escape");
            ({|"a\q"|}, "offset 4: invalid escape \\q");
            ({|"\u12|}, "offset 3: truncated \\u escape");
            ({|"\u12g4"|}, "offset 3: invalid hex digit g");
            ("\"a\x01b\"", "offset 2: unescaped control character in string");
            ("\"a\nb\"", "offset 2: unescaped control character in string");
            ({|{"k": "v"} x|}, "offset 11: trailing garbage after JSON value");
            ({|1 2|}, "offset 2: trailing garbage after JSON value");
            ({|{"k" 1}|}, "offset 5: expected :, found 1");
            ({|[1, 2|}, "offset 5: expected , or ] in array");
            ({|tru|}, "offset 0: invalid literal (expected true)");
            ("", "offset 0: unexpected end of input");
          ]);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        (* quotes, backslashes, every control character, raw bytes and
           multi-byte UTF-8, in runs and alone *)
        (let piece =
           QCheck.Gen.(
             oneof
               [
                 map (String.make 1) char;
                 map (String.make 1) (oneofl [ '"'; '\\'; '/'; '\127' ]);
                 map (fun c -> String.make 1 (Char.chr c)) (int_bound 0x1f);
                 oneofl [ "é"; "€"; "𝔸"; "\xff\xfe"; "\\u0041" ];
                 string_size ~gen:printable (int_bound 40);
               ])
         in
         QCheck.Test.make ~count:500
           ~name:"parse (to_string (String s)) = String s, any bytes"
           QCheck.(
             make ~print:(Printf.sprintf "%S")
               Gen.(map (String.concat "") (list_size (int_bound 12) piece)))
           (fun s ->
             Json.parse (Json.to_string (Json.String s)) = Ok (Json.String s)));
        QCheck.Test.make ~count:500
          ~name:"a \\u escape decodes to its code point, or U+FFFD"
          QCheck.(make ~print:string_of_int Gen.(int_bound 0xffff))
          (fun code ->
            let u =
              if Uchar.is_valid code then Uchar.of_int code else Uchar.rep
            in
            let want = Buffer.create 4 in
            Buffer.add_utf_8_uchar want u;
            Json.parse (Printf.sprintf {|"<\u%04x>"|} code)
            = Ok (Json.String ("<" ^ Buffer.contents want ^ ">")));
      ]

(* --- spans and counters ------------------------------------------------- *)

let span_tests =
  [
    test "spans nest: children complete first, depths recorded" (fun () ->
        with_telemetry (fun () ->
            let r =
              Telemetry.with_span "outer" (fun () ->
                  let x = Telemetry.with_span ~arg:"a" "inner" (fun () -> 1) in
                  let y = Telemetry.with_span ~arg:"b" "inner" (fun () -> 2) in
                  x + y)
            in
            Alcotest.(check int) "result threaded" 3 r;
            match Telemetry.events () with
            | [ e1; e2; e3 ] ->
                Alcotest.(check (list string))
                  "completion order"
                  [ "inner"; "inner"; "outer" ]
                  [ e1.Telemetry.ev_name; e2.Telemetry.ev_name;
                    e3.Telemetry.ev_name ];
                Alcotest.(check (list string))
                  "args" [ "a"; "b" ]
                  [ e1.Telemetry.ev_arg; e2.Telemetry.ev_arg ];
                Alcotest.(check (list int))
                  "depths" [ 1; 1; 0 ]
                  [ e1.Telemetry.ev_depth; e2.Telemetry.ev_depth;
                    e3.Telemetry.ev_depth ];
                (* children lie within the parent interval *)
                let ends e =
                  Int64.add e.Telemetry.ev_start_ns e.Telemetry.ev_dur_ns
                in
                Alcotest.(check bool)
                  "child starts after parent" true
                  (e1.Telemetry.ev_start_ns >= e3.Telemetry.ev_start_ns);
                Alcotest.(check bool)
                  "child ends before parent" true
                  (ends e2 <= ends e3)
            | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)));
    test "a span is closed when its body raises" (fun () ->
        with_telemetry (fun () ->
            (try
               Telemetry.with_span "boom" (fun () -> failwith "no") |> ignore
             with Failure _ -> ());
            match Telemetry.events () with
            | [ e ] ->
                Alcotest.(check string) "recorded" "boom" e.Telemetry.ev_name;
                Alcotest.(check int) "depth restored" 0 e.Telemetry.ev_depth
            | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)));
    test "pipeline spans and kernel counters on a real check" (fun () ->
        with_telemetry (fun () ->
            let sink, _ = check_sources workload in
            Alcotest.(check int) "clean" 0 (Diagnostics.error_count sink);
            let count name =
              List.length
                (List.filter
                   (fun e -> e.Telemetry.ev_name = name)
                   (Telemetry.events ()))
            in
            Alcotest.(check int) "one file span" 1 (count "file");
            Alcotest.(check int) "three decl spans" 3 (count "decl");
            Alcotest.(check int) "one parse span" 1 (count "parse");
            let totals = Telemetry.counter_totals () in
            let total name =
              match List.assoc_opt name totals with
              | Some n -> n
              | None -> Alcotest.failf "counter %s not registered" name
            in
            Alcotest.(check bool)
              "hsub counter nonzero" true
              (total "hsub.instantiations" > 0);
            Alcotest.(check bool)
              "unify counter nonzero" true
              (total "unify.problems" > 0)));
    test "a failed declaration still closes its decl span" (fun () ->
        with_telemetry (fun () ->
            let sink, _ =
              check_sources
                (workload
               ^ "LF bad : type = | c : missing;\n\
                  LF good : type = | g : nat -> good;")
            in
            Alcotest.(check int) "one error" 1 (Diagnostics.error_count sink);
            let decls =
              List.filter
                (fun e -> e.Telemetry.ev_name = "decl")
                (Telemetry.events ())
            in
            (* 3 workload decls + the failed one + the good one *)
            Alcotest.(check int) "all five decl spans closed" 5
              (List.length decls);
            List.iter
              (fun e ->
                Alcotest.(check int) "decl depth under file" 1
                  e.Telemetry.ev_depth)
              decls));
    test "the ring buffer is bounded; aggregates are not" (fun () ->
        with_telemetry (fun () ->
            let n = 70_000 in
            for _ = 1 to n do
              Telemetry.with_span "w" (fun () -> ())
            done;
            Alcotest.(check int) "all recorded" n (Telemetry.events_recorded ());
            Alcotest.(check bool) "some dropped" true
              (Telemetry.events_dropped () > 0);
            Alcotest.(check bool)
              "ring stays bounded" true
              (List.length (Telemetry.events ()) < n);
            match Telemetry.profile_json () with
            | Json.Obj _ as p -> (
                let phases = Option.get (Json.member "phases" p) in
                match Json.to_list phases with
                | Some [ ph ] ->
                    Alcotest.(check (option int))
                      "aggregate saw every span" (Some n)
                      (Option.bind (Json.member "count" ph) Json.to_int)
                | _ -> Alcotest.fail "expected exactly one phase")
            | _ -> Alcotest.fail "profile is not an object"));
  ]

(* --- renderers ---------------------------------------------------------- *)

let renderer_tests =
  [
    test "trace output is valid Chrome trace JSON (parsed back)" (fun () ->
        with_telemetry (fun () ->
            let _ = check_sources workload in
            Telemetry.set_enabled false;
            let parsed =
              match Json.parse (Json.to_string (Telemetry.trace_json ())) with
              | Ok j -> j
              | Error msg -> Alcotest.failf "trace does not re-parse: %s" msg
            in
            let events =
              match
                Option.bind (Json.member "traceEvents" parsed) Json.to_list
              with
              | Some evs -> evs
              | None -> Alcotest.fail "no traceEvents array"
            in
            Alcotest.(check bool) "non-empty" true (List.length events > 1);
            List.iter
              (fun ev ->
                match Json.member "ph" ev with
                | Some (Json.String "M") -> ()
                | Some (Json.String "X") ->
                    let has k =
                      match Json.member k ev with
                      | Some _ -> true
                      | None -> false
                    in
                    List.iter
                      (fun k ->
                        Alcotest.(check bool)
                          (Fmt.str "event has %s" k) true (has k))
                      [ "name"; "ts"; "dur"; "pid"; "tid" ];
                    Alcotest.(check bool)
                      "ts is non-negative" true
                      (match
                         Option.bind (Json.member "ts" ev) Json.to_float
                       with
                      | Some ts -> ts >= 0.
                      | None -> false)
                | _ -> Alcotest.fail "event with unexpected phase")
              events));
    test "profile report: schema, phases, counters, watermarks" (fun () ->
        with_telemetry (fun () ->
            let _ = check_sources workload in
            Telemetry.set_enabled false;
            let p =
              match Json.parse (Json.to_string (Telemetry.profile_json ())) with
              | Ok j -> j
              | Error msg -> Alcotest.failf "profile does not re-parse: %s" msg
            in
            Alcotest.(check (option string))
              "schema" (Some "belr-profile/1")
              (Option.bind (Json.member "schema" p) Json.to_str);
            let section k =
              match Option.bind (Json.member k p) Json.to_list with
              | Some l -> l
              | None -> Alcotest.failf "missing section %s" k
            in
            let phase_names =
              List.filter_map
                (fun ph -> Option.bind (Json.member "name" ph) Json.to_str)
                (section "phases")
            in
            List.iter
              (fun required ->
                Alcotest.(check bool)
                  (Fmt.str "phase %s present" required)
                  true
                  (List.mem required phase_names))
              [ "file"; "decl"; "parse"; "elaborate" ];
            Alcotest.(check bool)
              "counters present" true
              (section "counters" <> []);
            Alcotest.(check bool)
              "watermarks present" true
              (section "watermarks" <> [])));
    test "depth watermarks surface through Limits.peaks" (fun () ->
        with_telemetry (fun () ->
            let open Belr_syntax.Lf in
            ignore
              (Belr_lf.Eta.expand_var_typ
                 ((mk_pi "x" ((mk_atom 0 [])) ((mk_atom 0 []))))
                 1);
            match List.assoc_opt "eta-expansion" (Limits.peaks ()) with
            | Some peak -> Alcotest.(check bool) "peak >= 1" true (peak >= 1)
            | None -> Alcotest.fail "eta-expansion counter not registered"));
  ]

(* --- disabled mode ------------------------------------------------------ *)

let disabled_tests =
  [
    test "disabled: counters do not move and no events are recorded"
      (fun () ->
        Telemetry.reset ();
        Telemetry.set_enabled false;
        let _ = check_sources workload in
        Alcotest.(check int) "no events" 0 (Telemetry.events_recorded ());
        List.iter
          (fun (name, total) ->
            Alcotest.(check int) (Fmt.str "counter %s still zero" name) 0 total)
          (Telemetry.counter_totals ()));
    test "disabled: with_span is the identity on results and exceptions"
      (fun () ->
        Telemetry.reset ();
        Telemetry.set_enabled false;
        Alcotest.(check int) "result" 7
          (Telemetry.with_span "x" (fun () -> 7));
        (try Telemetry.with_span "x" (fun () -> failwith "boom")
         with Failure _ -> ());
        Alcotest.(check int) "still no events" 0
          (Telemetry.events_recorded ()));
  ]

let suites =
  [
    ("telemetry:json", json_tests);
    ("telemetry:spans", span_tests);
    ("telemetry:renderers", renderer_tests);
    ("telemetry:disabled", disabled_tests);
  ]
