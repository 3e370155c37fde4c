(** The [belr] command-line interface.

    - [belr check FILE…]   parse, elaborate, sort-check, and run the
      conservativity translation on each file (later files see the
      declarations of earlier ones).
    - [belr lint FILE…]    check, then run the signature analyses
      (subordination, adequacy, dead sorts, unused declarations,
      shadowing); findings are diagnostics with stable W07xx/E0702 codes,
      and [--json FILE] writes the machine-readable [belr-lint/1] report.

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
  try Metrics.write_exposition path
  with Sys_error msg ->
    Diagnostics.emit sink
      (Diagnostics.make ~code:"E0701" Diagnostics.Error
         "cannot write metrics %s: %s" path msg)

(** One-line kernel summary for [--kernel-stats].  Reads the always-on
    integer counters of the term store, the hereditary-substitution memo
    table, the weak-head normalizer, and the equality fast path — no
    [--stats] instrumentation required, so the line is accurate even on
    plain runs. *)
let print_kernel_stats () =
  let st = Belr_syntax.Lf.store_stats () in
  let ms = Belr_lf.Hsub.memo_stats () in
  let ws = Belr_lf.Whnf.stats () in
  let ps = Belr_syntax.Equal.phys_stats () in
  Fmt.epr
    "kernel: store (live %d, interned %d, dedup hits %d, ratio %.2f); \
     hsub memo %d hit / %d miss (rate %.2f), mfi skips %d; whnf memo %d \
     hit / %d miss (rate %.2f), forced %d, eager %d; equal phys-eq %d hit \
     / %d miss@."
    st.Belr_syntax.Lf.st_live st.Belr_syntax.Lf.st_interned
    st.Belr_syntax.Lf.st_dedup_hits
    (Belr_syntax.Lf.dedup_ratio ())
    ms.Belr_lf.Hsub.ms_hits ms.Belr_lf.Hsub.ms_misses
    (Belr_lf.Hsub.memo_hit_rate ())
    ms.Belr_lf.Hsub.ms_mfi_skips
    ws.Belr_lf.Whnf.ws_hits ws.Belr_lf.Whnf.ws_misses
    (Belr_lf.Whnf.hit_rate ())
    ws.Belr_lf.Whnf.ws_forced ws.Belr_lf.Whnf.ws_eager
    ps.Belr_syntax.Equal.ps_hits ps.Belr_syntax.Equal.ps_misses

let print_lint_results sg (lr : Belr_analysis.Lint.result) =
  Fmt.pr "analysis passes:@.";
  List.iter
    (fun (name, findings) -> Fmt.pr "  %-12s %d finding(s)@." name findings)
    lr.Belr_analysis.Lint.lr_passes;
  Fmt.pr "%a" (Belr_analysis.Subord.pp sg) lr.Belr_analysis.Lint.lr_subord

let term_label (f : Belr_comp.Totality.fn_verdict) =
  match f.Belr_comp.Totality.fv_term with
  | Belr_comp.Totality.TTotal -> "terminating"
  | Belr_comp.Totality.TDiverging _ -> "possibly diverging"
  | Belr_comp.Totality.TGaveUp -> "termination unknown (budget)"
  | Belr_comp.Totality.TUnknown -> "termination unknown (analysis failed)"

let print_total_results (tr : Belr_comp.Totality.result) =
  Fmt.pr "callgraph: %d function(s), %d call site(s), %d SCC(s), %d composed \
          graph(s)@."
    (List.length tr.Belr_comp.Totality.tr_fns)
    tr.Belr_comp.Totality.tr_sites tr.Belr_comp.Totality.tr_sccs
    tr.Belr_comp.Totality.tr_composed;
  List.iter
    (fun (f : Belr_comp.Totality.fn_verdict) ->
      Fmt.pr "total %s : %s, %s (%d case(s))%s@." f.Belr_comp.Totality.fv_name
        (term_label f)
        (if Belr_comp.Totality.covered f then "covered" else "non-exhaustive")
        f.Belr_comp.Totality.fv_cases
        (match f.Belr_comp.Totality.fv_group with
        | [ _ ] -> ""
        | g -> "  [group: " ^ String.concat ", " g ^ "]"))
    tr.Belr_comp.Totality.tr_fns

let print_worlds_results (wr : Belr_analysis.Worlds.result) =
  Fmt.pr "signature: %d block(s), %d worlds declaration(s)@."
    wr.Belr_analysis.Worlds.wr_blocks wr.Belr_analysis.Worlds.wr_worlds;
  List.iter
    (fun (f : Belr_analysis.Worlds.fn_report) ->
      Fmt.pr "worlds %s : %s (%d extension(s), %d familie(s) checked)%s@."
        f.Belr_analysis.Worlds.wf_name
        (if Belr_analysis.Worlds.clean f then "clean" else "dirty")
        f.Belr_analysis.Worlds.wf_exts f.Belr_analysis.Worlds.wf_fams
        (if f.Belr_analysis.Worlds.wf_nonstrict > 0 then
           Printf.sprintf "  [%d non-strict pattern variable(s)]"
             f.Belr_analysis.Worlds.wf_nonstrict
         else ""))
    wr.Belr_analysis.Worlds.wr_fns

let print_modes_results (mr : Belr_analysis.Modes.result) =
  Fmt.pr "signature: %d mode declaration(s), %d missing@."
    mr.Belr_analysis.Modes.mr_modes mr.Belr_analysis.Modes.mr_missing;
  List.iter
    (fun (f : Belr_analysis.Modes.fam_report) ->
      Fmt.pr "modes %s : %s (%d clause(s), %d input(s), %d output(s))%s@."
        f.Belr_analysis.Modes.mf_name
        (if Belr_analysis.Modes.clean f then "clean" else "dirty")
        f.Belr_analysis.Modes.mf_clauses f.Belr_analysis.Modes.mf_inputs
        f.Belr_analysis.Modes.mf_outputs
        (if f.Belr_analysis.Modes.mf_sorted then "  [sort-level]" else ""))
    mr.Belr_analysis.Modes.mr_fams

let run_worlds files verbose json no_strict max_errors max_depth
    max_eval_steps werror stats trace profile kernel_stats =
  Limits.set_max_depth max_depth;
  Limits.set_eval_fuel max_eval_steps;
  let telemetry = stats || trace <> None || profile <> None in
  if telemetry then begin
    Telemetry.reset ();
    Telemetry.set_enabled true
  end;
  let sink = Diagnostics.sink ~max_errors ~werror () in
  let sg = Belr_parser.Driver.check_files sink files in
  let wr = Belr_parser.Driver.worlds ~check_strict:(not no_strict) sink sg in
  if telemetry then begin
    Telemetry.set_enabled false;
    Option.iter (fun f -> write_report sink f (Telemetry.trace_json ())) trace;
    Option.iter
      (fun f -> write_report sink f (Telemetry.profile_json ()))
      profile
  end;
  (* written on every exit path: a report full of findings is the point *)
  Option.iter
    (fun f ->
      write_report sink f (Belr_analysis.Worlds.report_json ~files sink wr))
    json;
  Diagnostics.dump Fmt.stderr sink;
  if stats then Fmt.epr "%a@?" Telemetry.pp_stats ();
  if kernel_stats then print_kernel_stats ();
  match Diagnostics.exit_code sink with
  | 0 ->
      Fmt.pr "%d file(s) worlds-checked: %a.@." (List.length files)
        Diagnostics.pp_summary sink;
      if verbose then print_worlds_results wr;
      0
  | code ->
      Fmt.epr "worlds failed: %a.@." Diagnostics.pp_summary sink;
      code

let run_modes files verbose json max_errors max_depth max_eval_steps werror
    stats trace profile kernel_stats =
  Limits.set_max_depth max_depth;
  Limits.set_eval_fuel max_eval_steps;
  let telemetry = stats || trace <> None || profile <> None in
  if telemetry then begin
    Telemetry.reset ();
    Telemetry.set_enabled true
  end;
  let sink = Diagnostics.sink ~max_errors ~werror () in
  let sg = Belr_parser.Driver.check_files sink files in
  let mr = Belr_parser.Driver.modes sink sg in
  if telemetry then begin
    Telemetry.set_enabled false;
    Option.iter (fun f -> write_report sink f (Telemetry.trace_json ())) trace;
    Option.iter
      (fun f -> write_report sink f (Telemetry.profile_json ()))
      profile
  end;
  (* written on every exit path: a report full of findings is the point *)
  Option.iter
    (fun f ->
      write_report sink f (Belr_analysis.Modes.report_json ~files sink mr))
    json;
  Diagnostics.dump Fmt.stderr sink;
  if stats then Fmt.epr "%a@?" Telemetry.pp_stats ();
  if kernel_stats then print_kernel_stats ();
  match Diagnostics.exit_code sink with
  | 0 ->
      Fmt.pr "%d file(s) mode-checked: %a.@." (List.length files)
        Diagnostics.pp_summary sink;
      if verbose then print_modes_results mr;
      0
  | code ->
      Fmt.epr "modes failed: %a.@." Diagnostics.pp_summary sink;
      code

let run_total files verbose json depth budget max_errors max_depth
    max_eval_steps werror stats trace profile kernel_stats =
  Limits.set_max_depth max_depth;
  Limits.set_eval_fuel max_eval_steps;
  let telemetry = stats || trace <> None || profile <> None in
  if telemetry then begin
    Telemetry.reset ();
    Telemetry.set_enabled true
  end;
  let sink = Diagnostics.sink ~max_errors ~werror () in
  let sg = Belr_parser.Driver.check_files sink files in
  let tr = Belr_parser.Driver.total ~depth ~budget sink sg in
  if telemetry then begin
    Telemetry.set_enabled false;
    Option.iter (fun f -> write_report sink f (Telemetry.trace_json ())) trace;
    Option.iter
      (fun f -> write_report sink f (Telemetry.profile_json ()))
      profile
  end;
  (* written on every exit path: a report full of findings is the point *)
  Option.iter
    (fun f ->
      write_report sink f (Belr_comp.Totality.report_json ~files sink tr))
    json;
  Diagnostics.dump Fmt.stderr sink;
  if stats then Fmt.epr "%a@?" Telemetry.pp_stats ();
  if kernel_stats then print_kernel_stats ();
  match Diagnostics.exit_code sink with
  | 0 ->
      Fmt.pr "%d file(s) totality-checked: %a.@." (List.length files)
        Diagnostics.pp_summary sink;
      if verbose then print_total_results tr;
      0
  | code ->
      Fmt.epr "total failed: %a.@." Diagnostics.pp_summary sink;
      code

let run_check files verbose total lint worlds modes max_errors max_depth
    max_eval_steps werror stats trace profile kernel_stats metrics =
  Limits.set_max_depth max_depth;
  Limits.set_eval_fuel max_eval_steps;
  let telemetry = stats || trace <> None || profile <> None in
  if telemetry then begin
    Telemetry.reset ();
    Telemetry.set_enabled true
  end;
  if metrics <> None then Metrics.set_enabled true;
  let sink = Diagnostics.sink ~max_errors ~werror () in
  let sg = Belr_parser.Driver.check_files sink files in
  if total then Belr_parser.Driver.analyze sink sg;
  if worlds then ignore (Belr_parser.Driver.worlds sink sg);
  if modes then ignore (Belr_parser.Driver.modes sink sg);
  let lint_result =
    if lint then Some (Belr_parser.Driver.lint sink sg) else None
  in
  if telemetry then begin
    (* stop recording before rendering, so the renderers observe a
       stable state *)
    Telemetry.set_enabled false;
    Option.iter (fun f -> write_report sink f (Telemetry.trace_json ())) trace;
    Option.iter
      (fun f -> write_report sink f (Telemetry.profile_json ()))
      profile
  end;
  Option.iter (fun f -> write_metrics sink f) metrics;
  Diagnostics.dump Fmt.stderr sink;
  if stats then Fmt.epr "%a@?" Telemetry.pp_stats ();
  if kernel_stats then print_kernel_stats ();
  match Diagnostics.exit_code sink with
  | 0 ->
      Fmt.pr "%d file(s) checked successfully.@." (List.length files);
      summarize sg;
      if verbose then begin
        print_recs sg;
        Option.iter (print_lint_results sg) lint_result
      end;
      0
  | code ->
      Fmt.epr "check failed: %a.@." Diagnostics.pp_summary sink;
      code

let run_lint files verbose total worlds modes only skip json max_errors
    max_depth max_eval_steps werror stats trace profile kernel_stats =
  Limits.set_max_depth max_depth;
  Limits.set_eval_fuel max_eval_steps;
  (* the pass-name converter validates [--only]/[--skip] at parse time,
     so selection cannot fail here; keep the hard error anyway in case a
     pass is ever unregistered between parsing and running *)
  let passes =
    match Belr_analysis.Passes.select ~only ~skip () with
    | Result.Ok ps -> ps
    | Result.Error msg ->
        Fmt.epr "belr lint: %s@." msg;
        exit 124
  in
  let telemetry = stats || trace <> None || profile <> None in
  if telemetry then begin
    Telemetry.reset ();
    Telemetry.set_enabled true
  end;
  let sink = Diagnostics.sink ~max_errors ~werror () in
  let sg = Belr_parser.Driver.check_files sink files in
  let lr = Belr_parser.Driver.lint ~passes sink sg in
  if total then ignore (Belr_parser.Driver.total sink sg);
  if worlds then ignore (Belr_parser.Driver.worlds sink sg);
  if modes then ignore (Belr_parser.Driver.modes sink sg);
  if telemetry then begin
    Telemetry.set_enabled false;
    Option.iter (fun f -> write_report sink f (Telemetry.trace_json ())) trace;
    Option.iter
      (fun f -> write_report sink f (Telemetry.profile_json ()))
      profile
  end;
  (* written on every exit path: a report full of findings is the point *)
  Option.iter
    (fun f ->
      write_report sink f (Belr_analysis.Lint.report_json ~files sink lr))
    json;
  Diagnostics.dump Fmt.stderr sink;
  if stats then Fmt.epr "%a@?" Telemetry.pp_stats ();
  if kernel_stats then print_kernel_stats ();
  match Diagnostics.exit_code sink with
  | 0 ->
      Fmt.pr "%d file(s) linted: %a.@." (List.length files)
        Diagnostics.pp_summary sink;
      if verbose then print_lint_results sg lr;
      0
  | code ->
      Fmt.epr "lint failed: %a.@." Diagnostics.pp_summary sink;
      code

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
      try Metrics.write_exposition path
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

let total_arg =
  Arg.(
    value & flag
    & info [ "total" ]
        ~doc:
          "also run the totality analyzer (the paper's §6.1 extensions): \
           size-change termination over the call graph and depth-bounded \
           coverage, reported on stderr with stable codes (E0710 \
           non-terminating cycle, W0711 missing cases, W0712 gave up)")

let total_json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "write the machine-readable totality report (schema \
           belr-total/1: per-function verdicts, call-graph statistics, \
           every diagnostic with code and location, summary, exit code) \
           to $(docv)")

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

let worlds_flag_arg =
  Arg.(
    value & flag
    & info [ "worlds" ]
        ~doc:
          "also run the regular-worlds + strictness analyzer (Twelf-style \
           $(b,%block) / $(b,%worlds) declarations): context-schema \
           subsumption up to refinement subsorting and subordination \
           strengthening, plus strict-occurrence checking of case \
           patterns, reported with stable codes (E0720 extension outside \
           the declared worlds, W0721 missing %worlds declaration, W0722 \
           non-strict pattern variable)")

let worlds_json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "write the machine-readable worlds report (schema belr-worlds/1: \
           per-function extension/family/violation counts, signature \
           block/worlds counts, every diagnostic with code and location, \
           summary, exit code) to $(docv)")

let modes_flag_arg =
  Arg.(
    value & flag
    & info [ "modes" ]
        ~doc:
          "also run the mode & uniqueness analyzer (Twelf-style $(b,%mode) \
           declarations): a groundness dataflow checks that every clause \
           of a moded family can schedule its premises so inputs are \
           ground before each call and outputs are ground afterwards, and \
           a uniqueness pass flags input-overlapping clauses with \
           divergent rigid outputs; findings carry stable codes (E0730 \
           ill-moded clause, E0731 ungroundable output, W0732 missing \
           %mode declaration, W0733 non-unique output)")

let modes_json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "write the machine-readable modes report (schema belr-modes/1: \
           per-family clause/input/output/violation counts, signature \
           mode/missing counts, every diagnostic with code and location, \
           summary, exit code) to $(docv)")

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

let no_strict_arg =
  Arg.(
    value & flag
    & info [ "no-strict" ]
        ~doc:
          "skip the strict-occurrence pass (W0722); only the worlds \
           subsumption checks run")

let lint_flag_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "also run the signature analyses (subordination, adequacy, dead \
           sorts, unused declarations, shadowing) after checking; \
           findings carry stable W07xx/E0702 codes and share the \
           diagnostic stream and exit code with checking")

let lint_json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "write the machine-readable lint report (schema belr-lint/1: \
           per-pass finding counts, every diagnostic with code and \
           location, summary, exit code) to $(docv)")

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
          "print a one-line summary of the hash-consing term store \
           (DESIGN.md S21) on stderr after checking: live/interned node \
           counts, dedup ratio, hereditary-substitution memo hit rate, \
           weak-head normalization memo/forcing counters (DESIGN.md \
           S26), and equality fast-path hits; unlike $(b,--stats) this \
           reads always-on counters and needs no instrumentation")

let metrics_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "write a Prometheus-style text exposition of the metrics \
           registry (counters, gauges, latency histograms; all series \
           carry the belr_ prefix) to $(docv) on exit; the same data is \
           available as JSON (schema belr-metrics/1) from the serve \
           $(b,metrics) method")

let check_cmd =
  let doc = "parse, elaborate, and sort-check source files" in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const (fun files v t li wo mo me md ev we st tr pr ks mx ->
          run_check files v t li wo mo me md ev we st tr pr ks mx)
      $ files_arg $ verbose_arg $ total_arg $ lint_flag_arg $ worlds_flag_arg
      $ modes_flag_arg $ max_errors_arg $ max_depth_arg $ max_eval_steps_arg
      $ werror_arg $ stats_arg $ trace_arg $ profile_arg $ kernel_stats_arg
      $ metrics_arg)

let lint_cmd =
  let doc =
    "check source files, then run the signature analyses (subordination, \
     adequacy, dead sorts, unused declarations, shadowing); filter them \
     with $(b,--only) / $(b,--skip), and add $(b,--total), $(b,--worlds), \
     or $(b,--modes) to fold those analyzers into the same stream"
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      const (fun files v t wo mo on sk js me md ev we st tr pr ks ->
          run_lint files v t wo mo on sk js me md ev we st tr pr ks)
      $ files_arg $ verbose_arg $ total_arg $ worlds_flag_arg
      $ modes_flag_arg $ only_arg $ skip_arg $ lint_json_arg
      $ max_errors_arg $ max_depth_arg $ max_eval_steps_arg $ werror_arg
      $ stats_arg $ trace_arg $ profile_arg $ kernel_stats_arg)

let total_cmd =
  let doc =
    "check source files, then run the totality analyzer: size-change \
     termination (Lee-Jones-Ben-Amram closure over the call graph, \
     accepting mutual recursion and lexicographic descent) and \
     depth-bounded refinement-aware coverage; verdicts carry stable \
     codes (E0710, W0711, W0712) and $(b,--json) writes the belr-total/1 \
     report"
  in
  Cmd.v
    (Cmd.info "total" ~doc)
    Term.(
      const (fun files v js sd sb me md ev we st tr pr ks ->
          run_total files v js sd sb me md ev we st tr pr ks)
      $ files_arg $ verbose_arg $ total_json_arg $ split_depth_arg
      $ sct_budget_arg $ max_errors_arg $ max_depth_arg $ max_eval_steps_arg
      $ werror_arg $ stats_arg $ trace_arg $ profile_arg $ kernel_stats_arg)

let worlds_cmd =
  let doc =
    "check source files, then run the regular-worlds + strictness \
     analyzer: every context extension a function (or anything it calls) \
     can produce is checked subsumed — up to refinement subsorting and \
     subordination strengthening — by the $(b,%worlds) declarations of \
     the families it appeals to, and every case-pattern meta-variable is \
     checked for a strict occurrence; verdicts carry stable codes \
     (E0720, W0721, W0722) and $(b,--json) writes the belr-worlds/1 \
     report"
  in
  Cmd.v
    (Cmd.info "worlds" ~doc)
    Term.(
      const (fun files v js ns me md ev we st tr pr ks ->
          run_worlds files v js ns me md ev we st tr pr ks)
      $ files_arg $ verbose_arg $ worlds_json_arg $ no_strict_arg
      $ max_errors_arg $ max_depth_arg $ max_eval_steps_arg $ werror_arg
      $ stats_arg $ trace_arg $ profile_arg $ kernel_stats_arg)

let modes_cmd =
  let doc =
    "check source files, then run the mode & uniqueness analyzer: each \
     $(b,%mode) declaration assigns input (+) and output (-) polarities \
     to a family's arguments, a groundness dataflow verifies every \
     clause can order its premises so calls are made with ground inputs \
     and deliver ground outputs, and a uniqueness pass flags clauses \
     whose inputs overlap but whose rigid outputs diverge; verdicts \
     carry stable codes (E0730, E0731, W0732, W0733) and $(b,--json) \
     writes the belr-modes/1 report"
  in
  Cmd.v
    (Cmd.info "modes" ~doc)
    Term.(
      const (fun files v js me md ev we st tr pr ks ->
          run_modes files v js me md ev we st tr pr ks)
      $ files_arg $ verbose_arg $ modes_json_arg $ max_errors_arg
      $ max_depth_arg $ max_eval_steps_arg $ werror_arg $ stats_arg
      $ trace_arg $ profile_arg $ kernel_stats_arg)

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
     request object per stdin line (methods check, lint, total, stats, \
     reset, metrics, health), one reply object per stdout line; sessions \
     are isolated worlds, checking is incremental per declaration, and \
     every request is crash-only — malformed input, kernel faults, and \
     blown deadlines produce structured error replies, never a dead \
     server; $(b,--log), $(b,--slow-ms), and $(b,--metrics) add \
     production observability, correlated by per-request ids"
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
    [ check_cmd; lint_cmd; total_cmd; worlds_cmd; modes_cmd; codes_cmd;
      serve_cmd ]

let () = exit (Cmd.eval' main)
