(** The metrics half of the one telemetry registry, and the structured
    log (DESIGN.md §S24): log-scale bucket boundaries and exact quantile
    extraction on synthetic samples, registry idempotence, the
    [belr-metrics/1] JSON roundtrip through the in-tree parser, the
    disabled-path no-allocation guarantee, every view reading the one
    registry, the log's level gate and rate bound, and request-id
    presence/uniqueness across a multi-request serve script. *)

open Belr_support
open Belr_parser
module J = Json

let test name f = Alcotest.test_case name `Quick f

(** Run [f] with recording on, restoring the previous state even if the
    test fails (the registry is process-global). *)
let with_metrics (f : unit -> 'a) : 'a =
  let saved = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled saved) f

(* --- histograms --------------------------------------------------------- *)

let histogram_tests =
  [
    test "bucket boundaries: 2^(i-1) < v <= 2^i lands in bucket i"
      (fun () ->
        List.iter
          (fun (v, want) ->
            Alcotest.(check int)
              (Fmt.str "bucket_index %d" v)
              want (Telemetry.bucket_index v))
          [
            (-5, 0); (0, 0); (1, 0); (2, 1); (3, 2); (4, 2); (5, 3);
            (8, 3); (9, 4); (1024, 10); (1025, 11); (max_int, 62);
          ];
        Alcotest.(check int) "le of bucket 0" 1 (Telemetry.bucket_le 0);
        Alcotest.(check int) "le of bucket 10" 1024 (Telemetry.bucket_le 10));
    test "quantiles are exact on synthetic samples" (fun () ->
        with_metrics (fun () ->
            let h = Telemetry.histogram "test.quantiles" in
            (* 90 observations in bucket 2 (le 4), 10 in bucket 10
               (le 1024): ranks 1..90 resolve to 4, ranks 91..100 to
               1024 *)
            for _ = 1 to 90 do
              Telemetry.observe h 3
            done;
            for _ = 1 to 10 do
              Telemetry.observe h 1000
            done;
            Alcotest.(check int) "count" 100 (Telemetry.histogram_count h);
            Alcotest.(check int) "sum" ((90 * 3) + (10 * 1000))
              (Telemetry.histogram_sum h);
            Alcotest.(check int) "p50" 4 (Telemetry.quantile h 0.50);
            Alcotest.(check int) "p90" 4 (Telemetry.quantile h 0.90);
            Alcotest.(check int) "p99" 1024 (Telemetry.quantile h 0.99);
            Alcotest.(check int) "p100" 1024 (Telemetry.quantile h 1.0)));
    test "an empty histogram reports zero quantiles" (fun () ->
        let h = Telemetry.histogram "test.empty" in
        Alcotest.(check int) "p50" 0 (Telemetry.quantile h 0.5);
        Alcotest.(check int) "count" 0 (Telemetry.histogram_count h));
    test "a single observation is its own every-quantile" (fun () ->
        with_metrics (fun () ->
            let h = Telemetry.histogram "test.single" in
            Telemetry.observe h 100;
            (* 100 lands in bucket 7 (64 < 100 <= 128) *)
            List.iter
              (fun q ->
                Alcotest.(check int)
                  (Fmt.str "q=%.2f" q)
                  128 (Telemetry.quantile h q))
              [ 0.01; 0.5; 0.99; 1.0 ]));
  ]

(* --- registry ----------------------------------------------------------- *)

let registry_tests =
  [
    test "creating a metric under an existing name returns the existing \
          metric" (fun () ->
        with_metrics (fun () ->
            let c1 = Telemetry.counter "test.idem.counter" in
            Telemetry.bump c1;
            let c2 = Telemetry.counter "test.idem.counter" in
            Alcotest.(check bool) "same counter cell" true (c1 == c2);
            Telemetry.bump c2;
            Alcotest.(check int) "shared count" 2 (Telemetry.counter_total c1);
            let g1 = Telemetry.gauge "test.idem.gauge" in
            let g2 = Telemetry.gauge "test.idem.gauge" in
            Alcotest.(check bool) "same gauge cell" true (g1 == g2);
            let h1 = Telemetry.histogram "test.idem.hist" in
            let h2 = Telemetry.histogram "test.idem.hist" in
            Alcotest.(check bool) "same histogram cell" true (h1 == h2)));
    test "counters are monotone: add clamps negative deltas" (fun () ->
        with_metrics (fun () ->
            let c = Telemetry.counter "test.monotone" in
            Telemetry.add c 5;
            Telemetry.add c (-3);
            Alcotest.(check int) "negative add ignored" 5
              (Telemetry.counter_total c)));
    test "disabled, recording is inert" (fun () ->
        let saved = Telemetry.enabled () in
        Telemetry.set_enabled false;
        Fun.protect
          ~finally:(fun () -> Telemetry.set_enabled saved)
          (fun () ->
            let c = Telemetry.counter "test.disabled.counter" in
            let h = Telemetry.histogram "test.disabled.hist" in
            let g = Telemetry.gauge "test.disabled.gauge" in
            Telemetry.bump c;
            Telemetry.add c 3;
            Telemetry.observe h 42;
            Telemetry.set_int g 7;
            Alcotest.(check int) "counter still 0" 0
              (Telemetry.counter_total c);
            Alcotest.(check int) "histogram still empty" 0
              (Telemetry.histogram_count h);
            (* a gauge is a sample a view takes when it reads, as [belr
               serve --metrics] does after its loop, outside any line *)
            Alcotest.(check (float 0.)) "gauge sampled" 7.
              (Telemetry.gauge_value g)));
    test "disabled, recording does not allocate" (fun () ->
        let saved = Telemetry.enabled () in
        Telemetry.set_enabled false;
        Fun.protect
          ~finally:(fun () -> Telemetry.set_enabled saved)
          (fun () ->
            let c = Telemetry.counter "test.noalloc.counter" in
            let g = Telemetry.gauge "test.noalloc.gauge" in
            let h = Telemetry.histogram "test.noalloc.hist" in
            let w0 = Gc.minor_words () in
            for i = 1 to 10_000 do
              Telemetry.bump c;
              Telemetry.set_int g i;
              Telemetry.observe h i
            done;
            let w1 = Gc.minor_words () in
            (* the two [Gc.minor_words] calls themselves may box floats;
               anything beyond a fixed handful of words would mean a
               per-iteration allocation on the disabled path *)
            Alcotest.(check bool)
              (Fmt.str "allocated %.0f words over 10k disabled records"
                 (w1 -. w0))
              true
              (w1 -. w0 < 64.)));
  ]

(* --- belr-metrics/1 JSON ------------------------------------------------ *)

let json_tests =
  [
    test "to_json roundtrips through the in-tree parser" (fun () ->
        with_metrics (fun () ->
            let h = Telemetry.histogram "test.json.hist" in
            Telemetry.observe h 3;
            Telemetry.observe h 1000;
            Telemetry.bump (Telemetry.counter "test.json.counter");
            let j = Telemetry.metrics_json () in
            let j' =
              match J.parse (J.to_string ~compact:true j) with
              | Ok j' -> j'
              | Error msg -> Alcotest.failf "roundtrip parse failed: %s" msg
            in
            Alcotest.(check bool) "roundtrip equal" true (j = j');
            Alcotest.(check bool) "schema" true
              (J.member "schema" j' = Some (J.String Telemetry.metrics_schema));
            let hist =
              match Option.bind (J.member "histograms" j') J.to_list with
              | Some hs ->
                  List.find_opt
                    (fun h ->
                      J.member "name" h = Some (J.String "test.json.hist"))
                    hs
              | None -> None
            in
            match hist with
            | None -> Alcotest.fail "test.json.hist not in report"
            | Some h ->
                Alcotest.(check bool) "count" true
                  (J.member "count" h = Some (J.Int 2));
                Alcotest.(check bool) "p50" true
                  (J.member "p50_ns" h = Some (J.Int 4));
                Alcotest.(check bool) "p99" true
                  (J.member "p99_ns" h = Some (J.Int 1024));
                (match Option.bind (J.member "buckets" h) J.to_list with
                | Some bs ->
                    Alcotest.(check int) "two non-empty buckets" 2
                      (List.length bs)
                | None -> Alcotest.fail "histogram lacks buckets")));
    test "the exposition names the serve request counter and emits \
          cumulative buckets" (fun () ->
        with_metrics (fun () ->
            let h = Telemetry.histogram "test.prom.hist" in
            Telemetry.observe h 3;
            Telemetry.observe h 3;
            Telemetry.observe h 1000;
            let text = Telemetry.exposition () in
            let has sub =
              let n = String.length sub and m = String.length text in
              let rec go i =
                i + n <= m && (String.sub text i n = sub || go (i + 1))
              in
              go 0
            in
            Alcotest.(check bool) "serve counter present" true
              (has "belr_serve_requests_total");
            Alcotest.(check bool) "bucket at le=4" true
              (has "belr_test_prom_hist_bucket{le=\"4\"} 2");
            Alcotest.(check bool) "cumulative at le=1024" true
              (has "belr_test_prom_hist_bucket{le=\"1024\"} 3");
            Alcotest.(check bool) "+Inf row" true
              (has "belr_test_prom_hist_bucket{le=\"+Inf\"} 3")));
  ]

(* --- structured log ----------------------------------------------------- *)

(** Run [f] with the log writing to a fresh temp file, restoring the
    (disabled) global log state after; returns the lines written. *)
let with_log ?level ?rate (f : unit -> unit) : string list =
  let path = Filename.temp_file "belr_test_log" ".jsonl" in
  let oc = open_out path in
  Log.set_output (Some oc);
  Option.iter Log.set_level level;
  Option.iter Log.set_rate rate;
  Fun.protect
    ~finally:(fun () ->
      Log.close ();
      close_out_noerr oc;
      Log.set_level Log.Info;
      Log.set_rate Log.default_max_per_window)
    f;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in_noerr ic;
  Sys.remove path;
  List.rev !lines

let log_tests =
  [
    test "lines carry ts_ns/level/event plus caller fields, and the \
          level gate filters" (fun () ->
        let lines =
          with_log ~level:Log.Info (fun () ->
              Log.event ~level:Log.Debug "invisible" [];
              Log.event "visible" [ ("k", J.String "v") ];
              Log.event ~level:Log.Error "boom" [])
        in
        Alcotest.(check int) "debug filtered out" 2 (List.length lines);
        match List.map J.parse lines with
        | [ Ok l1; Ok l2 ] ->
            Alcotest.(check bool) "event name" true
              (J.member "event" l1 = Some (J.String "visible"));
            Alcotest.(check bool) "caller field" true
              (J.member "k" l1 = Some (J.String "v"));
            Alcotest.(check bool) "ts_ns is an int" true
              (match J.member "ts_ns" l1 with
              | Some (J.Int _) -> true
              | _ -> false);
            Alcotest.(check bool) "error level label" true
              (J.member "level" l2 = Some (J.String "error"))
        | _ -> Alcotest.fail "a log line failed to parse");
    test "the rate bound drops excess lines and counts them" (fun () ->
        let d0 = Log.dropped () in
        let lines =
          with_log ~rate:5 (fun () ->
              for i = 1 to 12 do
                Log.event "tick" [ ("i", J.Int i) ]
              done)
        in
        Alcotest.(check int) "only the cap is written" 5
          (List.length lines);
        Alcotest.(check int) "drops counted" 7 (Log.dropped () - d0));
    test "disabled, the log accepts events silently" (fun () ->
        Log.event "nowhere" [];
        Alcotest.(check bool) "disabled" false (Log.enabled ()));
  ]

(* --- request-id correlation through serve ------------------------------- *)

let request ~meth ?source id =
  let fields =
    [ ("id", Some (J.Int id)); ("method", Some (J.String meth));
      ("session", Some (J.String "rid"));
      ("source", Option.map (fun s -> J.String s) source) ]
  in
  J.to_string ~compact:true
    (J.Obj
       (List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) fields))

let round t line =
  match Serve.handle_line t line with
  | None -> Alcotest.fail "no reply to a non-blank line"
  | Some reply -> (
      match J.parse reply with
      | Error msg -> Alcotest.failf "unparsable reply: %s" msg
      | Ok j -> j)

let rid_tests =
  [
    test "every reply carries a distinct request_id, including protocol \
          errors" (fun () ->
        let t = Serve.create () in
        let replies =
          [
            round t (request ~meth:"check" ~source:"LF nat : type;" 1);
            round t (request ~meth:"check" ~source:"LF nat : type;" 2);
            round t "{{{ not json";
            round t (request ~meth:"metrics" 4);
            round t (request ~meth:"health" 5);
          ]
        in
        let rids =
          List.map
            (fun r ->
              match Option.bind (J.member "request_id" r) J.to_str with
              | Some s -> s
              | None -> Alcotest.fail "reply lacks request_id")
            replies
        in
        Alcotest.(check int) "all ids distinct" (List.length rids)
          (List.length (List.sort_uniq compare rids)));
    test "log lines join replies on request_id" (fun () ->
        let t = Serve.create () in
        let lines =
          with_log (fun () ->
              ignore (round t (request ~meth:"check" ~source:"LF nat : type;" 1));
              ignore (round t (request ~meth:"health" 2)))
        in
        let logged_rids =
          List.filter_map
            (fun l ->
              match J.parse l with
              | Ok j
                when J.member "event" j = Some (J.String "serve.request") ->
                  Option.bind (J.member "request_id" j) J.to_str
              | _ -> None)
            lines
        in
        Alcotest.(check int) "one serve.request line per request" 2
          (List.length logged_rids);
        Alcotest.(check int) "ids distinct" 2
          (List.length (List.sort_uniq compare logged_rids)));
    test "trace spans carry the ambient request id" (fun () ->
        Telemetry.reset ();
        Telemetry.set_enabled true;
        Telemetry.set_request_id "r42";
        Telemetry.with_span "phase" (fun () -> ());
        Telemetry.clear_request_id ();
        Telemetry.set_enabled false;
        let j = Telemetry.trace_json () in
        let tagged =
          match Option.bind (J.member "traceEvents" j) J.to_list with
          | Some evs ->
              List.exists
                (fun e ->
                  match Option.bind (J.member "args" e) (J.member "request_id")
                  with
                  | Some (J.String "r42") -> true
                  | _ -> false)
                evs
          | None -> false
        in
        Alcotest.(check bool) "a span renders args.request_id" true tagged);
  ]

(* --- one registry behind every view --------------------------------------- *)

let counter_value (report : J.t) (name : string) : int =
  match Option.bind (J.member "counters" report) J.to_list with
  | None -> Alcotest.fail "report lacks counters"
  | Some cs -> (
      match
        List.find_opt (fun c -> J.member "name" c = Some (J.String name)) cs
      with
      | None -> Alcotest.failf "report lacks counter %s" name
      | Some c -> (
          (* belr-metrics/1 says "value", belr-profile/1 "total" *)
          match (J.member "value" c, J.member "total" c) with
          | Some (J.Int n), _ | _, Some (J.Int n) -> n
          | _ -> Alcotest.failf "counter %s lacks its value" name))

(* a dependent constructor application: checking it substitutes *)
let dependent_src =
  "LF nat : type =\n| z : nat\n| s : nat -> nat;\n\n\
   LF vec : nat -> type =\n| vnil : vec z\n\
   | vcons : {N : nat} vec N -> vec (s N);\n\n\
   LF one : vec (s z) -> type =\n| mk : one (vcons z vnil);"

let view_tests =
  [
    test "a serve metrics reply lists kernel and serve counters" (fun () ->
        let t = Serve.create () in
        let r = round t (request ~meth:"check" ~source:dependent_src 1) in
        Alcotest.(check bool) "check ok" true
          (J.member "status" r = Some (J.String "ok"));
        let m =
          match J.member "result" (round t (request ~meth:"metrics" 2)) with
          | Some res -> res
          | None -> Alcotest.fail "metrics reply lacks result"
        in
        Alcotest.(check bool) "hsub.substitutions > 0" true
          (counter_value m "hsub.substitutions" > 0);
        Alcotest.(check bool) "serve.requests >= 1" true
          (counter_value m "serve.requests" >= 1));
    test "a flag-on batch check lists check.files in the profile" (fun () ->
        let saved = Telemetry.enabled () in
        Telemetry.reset ();
        Telemetry.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Telemetry.set_enabled saved)
          (fun () ->
            let sink = Diagnostics.sink () in
            ignore (Driver.check_sources sink [ ("dep.blr", dependent_src) ]);
            Alcotest.(check int) "clean" 0 (Diagnostics.exit_code sink));
        Alcotest.(check bool) "check.files >= 1" true
          (counter_value (Telemetry.profile_json ()) "check.files" >= 1));
  ]

let suites =
  [
    ("metrics histograms", histogram_tests);
    ("metrics registry", registry_tests);
    ("metrics json", json_tests);
    ("metrics views", view_tests);
    ("metrics log", log_tests);
    ("metrics request ids", rid_tests);
  ]
