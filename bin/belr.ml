(** The [belr] command-line interface.

    - [belr check FILE…]   parse, elaborate, sort-check, and run the
      conservativity translation on each file (later files see the
      declarations of earlier ones).
    - [belr lint|total|worlds|modes FILE…]   check, then run that
      analyzer of {!Belr_parser.Driver.analyses}; findings are
      diagnostics with stable codes, and [--json FILE] writes the
      machine-readable [belr-<name>/1] report.  [check --<name>] folds
      the same analyzers into a plain check.

    Checking is fault-tolerant: every independent error in a pass is
    reported (one declaration failing does not hide the rest), rendered
    diagnostics carry stable codes (see the Diagnostics section of
    README.md), and runaway recursion is cut off by a configurable depth
    budget instead of crashing the process.

    Diagnostics (errors, warnings, notes) go to stderr; stdout carries
    only the machine-readable summary.  Exit codes: 0 = clean (warnings
    allowed unless [--werror]), 1 = user errors, 2 = an internal belr bug
    was detected. *)

open Cmdliner
open Belr_support

let summarize sg =
  let s = Belr_lf.Sign.summary sg in
  Fmt.pr "signature: %d type families, %d sort families, %d constants,@."
    s.Belr_lf.Sign.n_typs s.Belr_lf.Sign.n_srts s.Belr_lf.Sign.n_consts;
  Fmt.pr "           %d schemas, %d refinement schemas, %d functions@."
    s.Belr_lf.Sign.n_schemas s.Belr_lf.Sign.n_sschemas
    s.Belr_lf.Sign.n_recs

let print_recs sg =
  List.iter
    (fun (_, (r : Belr_lf.Sign.rec_entry)) ->
      Fmt.pr "rec %s : %a@." r.Belr_lf.Sign.r_name
        (Belr_syntax.Pp.pp_ctyp (Belr_lf.Sign.pp_env sg))
        r.Belr_lf.Sign.r_styp)
    (List.sort compare (Belr_lf.Sign.all_recs sg))

(** Write a telemetry artifact, reporting an I/O failure as an [E0701]
    diagnostic rather than an uncaught exception. *)
let write_report sink path json =
  try Json.write_file path json
  with Sys_error msg ->
    Diagnostics.emit sink
      (Diagnostics.make ~code:"E0701" Diagnostics.Error
         "cannot write report %s: %s" path msg)

(** Write the Prometheus-style metrics exposition ([--metrics FILE]),
    with the same I/O-failure story as {!write_report}. *)
let write_metrics sink path =
  try Telemetry.write_exposition path
  with Sys_error msg ->
    Diagnostics.emit sink
      (Diagnostics.make ~code:"E0701" Diagnostics.Error
         "cannot write metrics %s: %s" path msg)

(** [--kernel-stats]: the telemetry ["store"] section — the always-on
    counters of the term store, the hereditary-substitution and whnf memo
    tables, and the equality fast path — printed as [--stats] prints it,
    so it is accurate even on plain runs without instrumentation. *)
let print_kernel_stats () =
  Option.iter
    (fun fields -> Fmt.epr "%a@?" Telemetry.pp_section ("store", fields))
    (List.assoc_opt "store" (Telemetry.section_reports ()))

let run_serve deadline_ms max_live_nodes max_errors max_depth max_eval_steps
    log_file log_level slow_ms metrics =
  Limits.set_eval_fuel max_eval_steps;
  (* The structured log opens before the first request and closes after
     the loop; an unopenable path is a startup error (exit 1), not a
     silently disabled log. *)
  let log_oc =
    match log_file with
    | None -> None
    | Some path -> (
        match open_out path with
        | oc ->
            Log.set_output (Some oc);
            (match Log.level_of_string log_level with
            | Some l -> Log.set_level l
            | None ->
                Fmt.epr "belr serve: unknown log level %S (use debug, \
                         info, warn, or error)@." log_level);
            Some oc
        | exception Sys_error msg ->
            Fmt.epr "belr serve: cannot open log %s: %s@." path msg;
            exit 1)
  in
  let t =
    Belr_parser.Serve.create ?deadline_ms ~max_depth ~max_errors
      ?watermark:max_live_nodes ?slow_ms ()
  in
  Belr_parser.Serve.run t stdin stdout;
  (match metrics with
  | Some path -> (
      (* the exposition reads the gauges: sample them first *)
      Belr_parser.Serve.sample_gauges t;
      try Telemetry.write_exposition path
      with Sys_error msg ->
        Fmt.epr "belr serve: cannot write metrics %s: %s@." path msg)
  | None -> ());
  Log.close ();
  Option.iter close_out_noerr log_oc;
  0

(** [belr codes]: dump the diagnostics registry — the single source of
    truth for every stable code belr can emit — as an aligned table, or
    as the markdown table embedded in README.md ([--markdown]). *)
let run_codes markdown =
  if markdown then print_string (Diagnostics.registry_markdown ())
  else
    List.iter
      (fun (c : Diagnostics.code_class) ->
        Fmt.pr "%-6s  %-8s %-8s %s@." c.Diagnostics.cc_code
          (Diagnostics.code_family c.Diagnostics.cc_code)
          (Diagnostics.severity_label c.Diagnostics.cc_severity)
          c.Diagnostics.cc_doc)
      Diagnostics.registry;
  0

let files_arg =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"FILE" ~doc:"source files (checked in order)")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"print checked functions")

let pass_name_conv =
  let known () =
    List.map (fun p -> p.Belr_analysis.Pass.p_name) Belr_analysis.Passes.all
  in
  let parse s =
    if List.mem s (known ()) then Ok s
    else
      Error
        (`Msg
           (Printf.sprintf "unknown lint pass %s (expected one of: %s)" s
              (String.concat ", " (known ()))))
  in
  Arg.conv ~docv:"PASS" (parse, Fmt.string)

let only_arg =
  Arg.(
    value
    & opt (list pass_name_conv) []
    & info [ "only" ] ~docv:"PASS[,PASS…]"
        ~doc:
          "run only the named lint passes, in registry order (subord, \
           adequacy, sorts, unused, shadowing); naming an unknown pass \
           is a hard error, not a silent no-op")

let skip_arg =
  Arg.(
    value
    & opt (list pass_name_conv) []
    & info [ "skip" ] ~docv:"PASS[,PASS…]"
        ~doc:
          "run every lint pass except the named ones; naming an unknown \
           pass is a hard error, not a silent no-op")

let split_depth_arg =
  Arg.(
    value & opt int 3
    & info [ "split-depth" ] ~docv:"N"
        ~doc:
          "maximum nesting depth of coverage splitting; deeper patterns \
           make the analysis give up with W0712 rather than guess")

let sct_budget_arg =
  Arg.(
    value & opt int 4096
    & info [ "sct-budget" ] ~docv:"N"
        ~doc:
          "maximum number of distinct composed size-change graphs per \
           recursion component; exceeding it makes the analysis give up \
           with W0712 rather than loop")

let no_strict_arg =
  Arg.(
    value & flag
    & info [ "no-strict" ]
        ~doc:
          "skip the strict-occurrence pass (W0722); only the worlds \
           subsumption checks run")

let max_errors_arg =
  Arg.(
    value & opt int 20
    & info [ "max-errors" ] ~docv:"N"
        ~doc:
          "stop after reporting $(docv) errors (0 = no limit); warnings \
           and notes do not count")

let max_depth_arg =
  Arg.(
    value & opt int Limits.default_max_depth
    & info [ "max-depth" ] ~docv:"N"
        ~doc:
          "depth budget for hereditary substitution, eta-expansion, and \
           unification; exceeding it yields the E0901 resource \
           diagnostic instead of a crash")

let max_eval_steps_arg =
  Arg.(
    value & opt int Limits.default_eval_fuel
    & info [ "max-eval-steps" ] ~docv:"N"
        ~doc:
          "step budget for evaluating mechanized proofs (each call, \
           application, box, and match counts as one step); exceeding it \
           yields the E0905 resource diagnostic instead of a hang, so \
           $(b,--max-errors), $(b,--werror), and the exit code apply to \
           runaway evaluation like any other error")

let werror_arg =
  Arg.(
    value & flag
    & info [ "werror" ] ~doc:"treat warnings as errors (exit code 1)")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "print a telemetry summary (per-phase wall time, kernel \
           operation counters, peak recursion depths) on stderr after \
           checking")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "write a Chrome trace-event JSON timeline of the pipeline to \
           $(docv) (load it in chrome://tracing or ui.perfetto.dev)")

let profile_arg =
  Arg.(
    value & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "write a machine-readable JSON performance report (per-phase \
           wall time, counter totals, depth watermarks) to $(docv); the \
           schema is documented in README.md (Observability)")

let kernel_stats_arg =
  Arg.(
    value & flag
    & info [ "kernel-stats" ]
        ~doc:
          "print the telemetry store section on stderr after checking, \
           as $(b,--stats) prints it: live/interned node counts and \
           dedup ratio of the hash-consing term store (DESIGN.md S21), \
           hereditary-substitution memo hits, weak-head normalization \
           memo/forcing counters (DESIGN.md S26), and equality fast-path \
           hits; unlike $(b,--stats) this reads always-on counters and \
           needs no instrumentation")

let metrics_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "write a Prometheus-style text exposition of the telemetry \
           registry (every counter — kernel, analyzer, check and serve — \
           plus gauges and latency histograms; all series carry the \
           belr_ prefix) to $(docv) on exit; the same data is available \
           as JSON (schema belr-metrics/1) from the serve $(b,metrics) \
           method")

(* --- the pipeline subcommands ------------------------------------------- *)

(** The options every pipeline subcommand shares. *)
type common = {
  max_errors : int;
  max_depth : int;
  max_eval_steps : int;
  werror : bool;
  stats : bool;
  trace : string option;
  profile : string option;
  kernel_stats : bool;
}

let common_term =
  Term.(
    const
      (fun max_errors max_depth max_eval_steps werror stats trace profile
           kernel_stats ->
        {
          max_errors;
          max_depth;
          max_eval_steps;
          werror;
          stats;
          trace;
          profile;
          kernel_stats;
        })
    $ max_errors_arg $ max_depth_arg $ max_eval_steps_arg $ werror_arg
    $ stats_arg $ trace_arg $ profile_arg $ kernel_stats_arg)

(** Check [files], then run [analyses] (registry order) on the same
    sink.  [primary] is the subcommand's own analyzer — [None] for
    [belr check] — whose report [--json] writes and whose name words the
    closing line. *)
let run_analysis ?primary ?json ?metrics analyses files verbose c =
  Limits.set_max_depth c.max_depth;
  Limits.set_eval_fuel c.max_eval_steps;
  let telemetry =
    c.stats || c.trace <> None || c.profile <> None || metrics <> None
  in
  if telemetry then begin
    Telemetry.reset ();
    Telemetry.set_enabled true
  end;
  let sink = Diagnostics.sink ~max_errors:c.max_errors ~werror:c.werror () in
  let sg = Belr_parser.Driver.check_files sink files in
  let outcomes = Belr_parser.Driver.run_analyses analyses sink sg in
  let listings () =
    List.iter (fun o -> Fmt.pr "%a" o.Belr_parser.Driver.listing ()) outcomes
  in
  if telemetry then begin
    (* stop recording before rendering, so the renderers observe a
       stable state *)
    Telemetry.set_enabled false;
    Option.iter
      (fun f -> write_report sink f (Telemetry.trace_json ()))
      c.trace;
    Option.iter
      (fun f -> write_report sink f (Telemetry.profile_json ()))
      c.profile
  end;
  Option.iter (fun f -> write_metrics sink f) metrics;
  (* written on every exit path: a report full of findings is the point *)
  (match (primary, json) with
  | Some a, Some f ->
      let o = List.assq a (List.combine analyses outcomes) in
      write_report sink f (Belr_parser.Driver.report_json ~files sink a o)
  | _ -> ());
  Diagnostics.dump Fmt.stderr sink;
  if c.stats then Fmt.epr "%a@?" Telemetry.pp_stats ();
  if c.kernel_stats then print_kernel_stats ();
  match (Diagnostics.exit_code sink, primary) with
  | 0, None ->
      Fmt.pr "%d file(s) checked successfully.@." (List.length files);
      summarize sg;
      if verbose then begin
        print_recs sg;
        listings ()
      end;
      0
  | 0, Some a ->
      Fmt.pr "%d file(s) %s: %a.@." (List.length files)
        a.Belr_parser.Driver.past Diagnostics.pp_summary sink;
      if verbose then listings ();
      0
  | code, _ ->
      Fmt.epr "%s failed: %a.@."
        (match primary with
        | None -> "check"
        | Some a -> a.Belr_parser.Driver.name)
        Diagnostics.pp_summary sink;
      code

(** [--<name>]: fold the analyzer into another subcommand's run. *)
let analysis_flag (a : Belr_parser.Driver.analysis) =
  Arg.(
    value & flag
    & info [ a.name ]
        ~doc:
          ("also run " ^ a.doc
         ^ ", reported on the same diagnostic stream and exit code"))

(** The analyzers among [among] whose flag is set, in [among]'s order. *)
let flagged (among : Belr_parser.Driver.analysis list) =
  List.fold_right
    (fun a rest ->
      Term.(
        const (fun on rest -> if on then a :: rest else rest)
        $ analysis_flag a $ rest))
    among (Term.const [])

let json_arg (a : Belr_parser.Driver.analysis) =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          ("write the machine-readable belr-" ^ a.name
         ^ "/1 report (the analyzer's own sections, every diagnostic with \
            code and location, summary, exit code) to $(docv)"))

(** A subcommand's own options, as the term that configures its registry
    entry, and the analyzers it can fold in by flag (lint only). *)
let subcommand_options (a : Belr_parser.Driver.analysis) =
  let module D = Belr_parser.Driver in
  match a.name with
  | "lint" ->
      ( Term.(
          ret
            (const (fun only skip ->
                 match Belr_analysis.Passes.select ~only ~skip () with
                 | Result.Ok passes -> `Ok (D.lint_analysis ~passes ())
                 | Result.Error msg -> `Error (false, msg))
            $ only_arg $ skip_arg)),
        flagged (List.filter (fun b -> b != a) D.analyses) )
  | "total" ->
      ( Term.(
          const (fun depth budget -> D.total_analysis ~depth ~budget ())
          $ split_depth_arg $ sct_budget_arg),
        Term.const [] )
  | "worlds" ->
      ( Term.(
          const (fun no_strict ->
              D.worlds_analysis ~check_strict:(not no_strict) ())
          $ no_strict_arg),
        Term.const [] )
  | _ -> (Term.const a, Term.const [])

let analysis_cmd (a : Belr_parser.Driver.analysis) =
  let configured, also = subcommand_options a in
  let doc =
    "check source files, then run " ^ a.doc ^ "; $(b,--json) writes the belr-"
    ^ a.name ^ "/1 report"
  in
  Cmd.v (Cmd.info a.name ~doc)
    Term.(
      const (fun files verbose primary also json c ->
          let analyses =
            List.filter_map
              (fun b ->
                if b == a then Some primary else List.find_opt (( == ) b) also)
              Belr_parser.Driver.analyses
          in
          run_analysis ~primary ?json analyses files verbose c)
      $ files_arg $ verbose_arg $ configured $ also $ json_arg a $ common_term)

let check_cmd =
  let doc = "parse, elaborate, and sort-check source files" in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const (fun files verbose analyses metrics c ->
          run_analysis ?metrics analyses files verbose c)
      $ files_arg $ verbose_arg
      $ flagged Belr_parser.Driver.analyses
      $ metrics_arg $ common_term)

let markdown_arg =
  Arg.(
    value & flag
    & info [ "markdown" ]
        ~doc:
          "print the registry as the GitHub-flavored markdown table \
           embedded in README.md (the test suite keeps the two in sync)")

let codes_cmd =
  let doc =
    "list every stable diagnostic code belr can emit — code, class \
     (error/warning/bug family), default severity, and one-line \
     description — straight from the diagnostics registry, so the \
     listing cannot drift from the implementation"
  in
  Cmd.v
    (Cmd.info "codes" ~doc)
    Term.(const (fun md -> run_codes md) $ markdown_arg)

let deadline_ms_arg =
  Arg.(
    value & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "default wall-clock deadline per request in milliseconds \
           (overridable per request with \"deadline_ms\"); exceeding it \
           degrades the reply to a partial result with the stable E0903 \
           diagnostic instead of hanging the server")

let max_live_nodes_arg =
  Arg.(
    value & opt (some int) None
    & info [ "max-live-nodes" ] ~docv:"N"
        ~doc:
          "session memory watermark: when a request leaves more than \
           $(docv) live nodes in a session's term store, the store and \
           memo tables are cleared (reported as W0901); only sharing is \
           lost — subsequent requests rebuild terms on demand")

let log_file_arg =
  Arg.(
    value & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "append one structured JSON log line per request to $(docv) \
           (fields ts_ns, level, event, request_id, session, method, \
           status, duration_ms, decls rechecked/reused); the request_id \
           also appears in every reply and in trace spans, so the three \
           artifacts join on it")

let log_level_arg =
  Arg.(
    value & opt string "info"
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "minimum level written to the log: debug, info, warn, or error")

let slow_ms_arg =
  Arg.(
    value & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "log a warn-level serve.slow event, including the request's \
           telemetry span tree, for any request slower than $(docv) \
           milliseconds")

let serve_cmd =
  let doc =
    "run the long-lived JSON-line server (schema belr-serve/1): one \
     request object per stdin line (methods "
    ^ String.concat ", " Belr_parser.Serve.methods
    ^ "), one reply object per stdout line; sessions are isolated \
       worlds, checking is incremental per declaration, and every request \
       is crash-only — malformed input, kernel faults, and blown \
       deadlines produce structured error replies, never a dead server; \
       $(b,--log), $(b,--slow-ms), and $(b,--metrics) add production \
       observability, correlated by per-request ids"
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const (fun dl wm me md ev lf ll sm mx ->
          run_serve dl wm me md ev lf ll sm mx)
      $ deadline_ms_arg $ max_live_nodes_arg $ max_errors_arg
      $ max_depth_arg $ max_eval_steps_arg $ log_file_arg $ log_level_arg
      $ slow_ms_arg $ metrics_arg)

let main =
  let doc =
    "a proof environment with contextual refinement types (Gaulin & \
     Pientka reproduction)"
  in
  Cmd.group
    (Cmd.info "belr" ~version:"1.0.0" ~doc)
    ((check_cmd :: List.map analysis_cmd Belr_parser.Driver.analyses)
    @ [ codes_cmd; serve_cmd ])

let () = exit (Cmd.eval' main)
