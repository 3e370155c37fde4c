(** The fault-tolerant checking driver behind [belr check].

    Lives in the library (rather than [bin/]) so the diagnostics story —
    multi-error reporting, per-declaration recovery, resource guards, exit
    codes — is testable without spawning the executable.  All diagnostics
    flow through one {!Belr_support.Diagnostics.sink}; the caller renders
    them (the CLI dumps to stderr, keeping stdout machine-readable) and
    maps the sink to an exit code. *)

open Belr_support

(** Read a file, closing the channel even on exception.  A missing or
    unreadable file becomes an [E0701] diagnostic naming the file, not an
    uncaught [Sys_error]. *)
let read_file (sink : Diagnostics.sink) (path : string) : string option =
  Diagnostics.recover sink ~code:"E0701" (fun () ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try really_input_string ic (in_channel_length ic)
          with End_of_file ->
            Error.raise_msg "file %s changed while being read" path))

(* Batch-pipeline metrics (one histogram observation and one counter
   bump per file — negligible next to checking, a flag check when the
   registry is off): what [belr check --metrics] exposes. *)
let m_files =
  Metrics.counter ~help:"source files checked by the batch pipeline"
    "check.files"

let m_file_hist =
  Metrics.histogram ~help:"per-file end-to-end checking latency (ns)"
    "check.file"

let with_file_metrics : 'a. (unit -> 'a) -> 'a =
 fun f ->
  if not (Metrics.enabled ()) then f ()
  else begin
    let t0 = Limits.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        Metrics.inc m_files;
        Metrics.observe m_file_hist
          (Int64.to_int (Int64.sub (Limits.now_ns ()) t0)))
      f
  end

(** Check named sources in order (later sources see the declarations of
    earlier ones), recovering per declaration; always returns the
    signature accumulated so far, even after the [--max-errors] cap. *)
let check_sources (sink : Diagnostics.sink)
    (sources : (string * string) list) : Belr_lf.Sign.t =
  let sg = Belr_lf.Sign.create () in
  Diagnostics.with_stop sink (fun () ->
      List.iter
        (fun (name, src) ->
          Telemetry.with_span ~arg:name "file" (fun () ->
              with_file_metrics (fun () ->
                  Process.extend ~diags:sink sg ~name src)))
        sources);
  sg

(** Check files from disk; unreadable files are reported and skipped. *)
let check_files (sink : Diagnostics.sink) (files : string list) :
    Belr_lf.Sign.t =
  let sg = Belr_lf.Sign.create () in
  Diagnostics.with_stop sink (fun () ->
      List.iter
        (fun f ->
          Telemetry.with_span ~arg:f "file" (fun () ->
              with_file_metrics (fun () ->
                  match read_file sink f with
                  | Some src -> Process.extend ~diags:sink sg ~name:f src
                  | None -> ())))
        files);
  sg

(** Run the [belr lint] signature analyses (subordination, adequacy,
    sorts, unused declarations, shadowing) over a checked signature,
    reporting through the {e same} sink the checking pipeline used — one
    unified diagnostic stream, one exit code.  Every pass already runs
    under {!Diagnostics.recover}; the [--max-errors] cap is absorbed by
    the pass runner like in checking, in which case the per-pass counts
    cover only the passes that ran. *)
let lint ?passes (sink : Diagnostics.sink) (sg : Belr_lf.Sign.t) :
    Belr_analysis.Lint.result =
  Belr_analysis.Lint.run ?passes sink sg

(** The totality analyses behind [belr total] and [check --total] (the
    paper's §6.1 future work): size-change termination and deep coverage
    over the whole signature, reported through the {e same} sink as
    checking — E0710 errors and W0711/W0712 warnings via the diagnostics
    registry, never on stdout, so they cannot corrupt the
    machine-readable summary.  Every SCC and every function is analyzed
    under recovery: an analysis crash on a partially checked signature is
    a reported bug, not a lost run. *)
let total ?depth ?budget (sink : Diagnostics.sink) (sg : Belr_lf.Sign.t) :
    Belr_comp.Totality.result =
  let result = ref None in
  Diagnostics.with_stop sink (fun () ->
      result := Some (Belr_comp.Totality.run ?depth ?budget sink sg));
  match !result with
  | Some r -> r
  | None -> Belr_comp.Totality.empty_result

(** Back-compatible alias: the [--total] flag of [belr check] runs the
    full totality analyzer for its diagnostics only. *)
let analyze (sink : Diagnostics.sink) (sg : Belr_lf.Sign.t) : unit =
  ignore (total sink sg)

(** The regular-worlds + strictness analyses behind [belr worlds] and
    [check --worlds] ([%block] / [%worlds] declarations, DESIGN.md §S25):
    context-schema subsumption and strict-occurrence checking over the
    whole signature, reported through the {e same} sink as checking —
    E0720 errors and W0721/W0722 warnings via the diagnostics registry.
    Every function is analyzed under recovery. *)
let worlds ?check_strict (sink : Diagnostics.sink) (sg : Belr_lf.Sign.t) :
    Belr_analysis.Worlds.result =
  let result = ref None in
  Diagnostics.with_stop sink (fun () ->
      result := Some (Belr_analysis.Worlds.run ?check_strict sink sg));
  match !result with
  | Some r -> r
  | None -> Belr_analysis.Worlds.empty_result

(** The mode & uniqueness analysis behind [belr modes] and
    [check --modes] ([%mode] declarations, DESIGN.md §S27): groundness
    dataflow and output-uniqueness over every moded family, reported
    through the {e same} sink as checking — E0730/E0731 errors and
    W0732/W0733 warnings via the diagnostics registry.  Every family is
    analyzed under recovery. *)
let modes (sink : Diagnostics.sink) (sg : Belr_lf.Sign.t) :
    Belr_analysis.Modes.result =
  let result = ref None in
  Diagnostics.with_stop sink (fun () ->
      result := Some (Belr_analysis.Modes.run sink sg));
  match !result with
  | Some r -> r
  | None -> Belr_analysis.Modes.empty_result

(* --- session-scoped entry points ---------------------------------------- *)

(** The same entry points, but run inside an explicit
    {!Belr_lf.Session.t} world: the session's own store arenas, memo
    tables, and limit counters are installed for the duration of the call
    and the result signature is recorded as the session's signature.
    These are what [belr serve] and any embedding host should call;
    the plain functions above keep the process-global world and remain
    the batch CLI's path. *)

let check_sources_in (ses : Belr_lf.Session.t) (sink : Diagnostics.sink)
    (sources : (string * string) list) : Belr_lf.Sign.t =
  Belr_lf.Session.with_ ses (fun () ->
      let sg = check_sources sink sources in
      ses.Belr_lf.Session.sn_sign <- sg;
      sg)

let check_files_in (ses : Belr_lf.Session.t) (sink : Diagnostics.sink)
    (files : string list) : Belr_lf.Sign.t =
  Belr_lf.Session.with_ ses (fun () ->
      let sg = check_files sink files in
      ses.Belr_lf.Session.sn_sign <- sg;
      sg)

let lint_in ?passes (ses : Belr_lf.Session.t) (sink : Diagnostics.sink) :
    Belr_analysis.Lint.result =
  Belr_lf.Session.with_ ses (fun () ->
      lint ?passes sink (Belr_lf.Session.sign ses))

let total_in ?depth ?budget (ses : Belr_lf.Session.t)
    (sink : Diagnostics.sink) : Belr_comp.Totality.result =
  Belr_lf.Session.with_ ses (fun () ->
      total ?depth ?budget sink (Belr_lf.Session.sign ses))

let worlds_in ?check_strict (ses : Belr_lf.Session.t)
    (sink : Diagnostics.sink) : Belr_analysis.Worlds.result =
  Belr_lf.Session.with_ ses (fun () ->
      worlds ?check_strict sink (Belr_lf.Session.sign ses))

let modes_in (ses : Belr_lf.Session.t) (sink : Diagnostics.sink) :
    Belr_analysis.Modes.result =
  Belr_lf.Session.with_ ses (fun () ->
      modes sink (Belr_lf.Session.sign ses))
