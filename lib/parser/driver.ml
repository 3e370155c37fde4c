open Belr_support

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
   bump per file — negligible next to checking, a flag check when
   recording is off): what [belr check --metrics] exposes. *)
let m_files =
  Telemetry.counter ~help:"source files checked by the batch pipeline"
    "check.files"

let m_file_hist =
  Telemetry.histogram ~help:"per-file end-to-end checking latency (ns)"
    "check.file"

let with_file_metrics : 'a. (unit -> 'a) -> 'a =
 fun f ->
  if not (Telemetry.enabled ()) then f ()
  else begin
    let t0 = Limits.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        Telemetry.bump m_files;
        Telemetry.observe m_file_hist
          (Int64.to_int (Int64.sub (Limits.now_ns ()) t0)))
      f
  end

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

(* --- the analysis registry ---------------------------------------------- *)

type outcome = {
  sections : (string * Json.t) list Lazy.t;
  reply : Json.t Lazy.t;
  listing : unit Fmt.t;
}

type analysis = {
  name : string;
  doc : string;
  past : string;
  run : Belr_lf.Sign.t -> Belr_analysis.Facts.t -> Diagnostics.sink -> outcome;
}

(** Package a typed analyzer as a registry entry.  The analyzer runs
    under {!Diagnostics.with_stop}: when the [--max-errors] cap stops it,
    the outcome is built from [empty], so a report still carries the
    entry's own sections. *)
let analysis ~name ~doc ~past ~run ~empty ~sections ~reply ~listing =
  let run sg facts sink =
    let r = ref empty in
    Diagnostics.with_stop sink (fun () -> r := run sg facts sink);
    let r = !r in
    {
      sections = lazy (sections r);
      reply = lazy (reply r);
      listing = (fun ppf () -> listing sg facts ppf r);
    }
  in
  { name; doc; past; run }

let lint_analysis ?passes () =
  let module L = Belr_analysis.Lint in
  analysis ~name:"lint" ~past:"linted"
    ~doc:
      "the signature analyses (subordination, adequacy, dead sorts, unused \
       declarations, shadowing); findings carry stable W07xx/E0702 codes"
    ~run:(L.run ?passes) ~empty:L.empty_result ~sections:L.sections
    ~reply:L.reply_json ~listing:L.pp

let total_analysis ?depth ?budget () =
  let module T = Belr_comp.Totality in
  analysis ~name:"total" ~past:"totality-checked"
    ~doc:
      "the totality analyzer (the paper's §6.1 extensions): size-change \
       termination over the call graph, accepting mutual recursion and \
       lexicographic descent, and depth-bounded refinement-aware \
       coverage; findings carry stable codes (E0710 non-terminating \
       cycle, W0711 missing cases, W0712 gave up)"
    ~run:(T.run ?depth ?budget) ~empty:T.empty_result ~sections:T.sections
    ~reply:T.reply_json ~listing:(fun _ _ -> T.pp)

let worlds_analysis ?check_strict () =
  let module W = Belr_analysis.Worlds in
  analysis ~name:"worlds" ~past:"worlds-checked"
    ~doc:
      "the regular-worlds + strictness analyzer (Twelf-style %block / \
       %worlds declarations): every context extension a function can \
       produce must be subsumed, up to refinement subsorting and \
       subordination strengthening, by the declared worlds of the \
       families it reaches, and every case-pattern variable must occur \
       strictly; findings carry stable codes (E0720 extension outside the \
       declared worlds, W0721 missing %worlds declaration, W0722 \
       non-strict pattern variable)"
    ~run:(W.run ?check_strict) ~empty:W.empty_result ~sections:W.sections
    ~reply:W.reply_json ~listing:(fun _ _ -> W.pp)

let modes_analysis () =
  let module M = Belr_analysis.Modes in
  analysis ~name:"modes" ~past:"mode-checked"
    ~doc:
      "the mode & uniqueness analyzer (Twelf-style %mode declarations): a \
       groundness dataflow checks that every clause of a moded family can \
       order its premises so calls get ground inputs and deliver ground \
       outputs, and a uniqueness pass flags input-overlapping clauses \
       with divergent rigid outputs; findings carry stable codes (E0730 \
       ill-moded clause, E0731 ungroundable output, W0732 missing %mode \
       declaration, W0733 non-unique output)"
    ~run:M.run ~empty:M.empty_result ~sections:M.sections ~reply:M.reply_json
    ~listing:(fun _ _ -> M.pp)

let analyses =
  [ lint_analysis (); total_analysis (); worlds_analysis (); modes_analysis () ]

let run_with facts (analyses : analysis list) (sink : Diagnostics.sink)
    (sg : Belr_lf.Sign.t) : outcome list =
  List.map
    (fun a -> Telemetry.with_span a.name (fun () -> a.run sg facts sink))
    analyses

let run_analyses (analyses : analysis list) (sink : Diagnostics.sink)
    (sg : Belr_lf.Sign.t) : outcome list =
  run_with (Belr_analysis.Facts.make sg) analyses sink sg

let run_analysis (a : analysis) (sink : Diagnostics.sink)
    (sg : Belr_lf.Sign.t) : outcome =
  List.hd (run_analyses [ a ] sink sg)

(** One report finding: the diagnostic with its source position, when it
    has one, split into [file]/[line]/[col] beside the [loc] string. *)
let finding_json (d : Diagnostics.t) : Json.t =
  let loc = d.Diagnostics.d_loc in
  Json.Obj
    ([
       ("code", Json.String d.Diagnostics.d_code);
       ( "severity",
         Json.String (Diagnostics.severity_label d.Diagnostics.d_severity) );
       ("message", Json.String d.Diagnostics.d_message);
     ]
    @
    if Loc.is_ghost loc then []
    else
      [
        ("file", Json.String loc.Loc.source);
        ("line", Json.Int loc.Loc.start_pos.Loc.line);
        ("col", Json.Int loc.Loc.start_pos.Loc.col);
        ("loc", Json.String (Loc.to_string loc));
      ])

let report_json ~(files : string list) (sink : Diagnostics.sink)
    (a : analysis) (o : outcome) : Json.t =
  Json.Obj
    ([
       ("schema", Json.String ("belr-" ^ a.name ^ "/1"));
       ("files", Json.List (List.map (fun f -> Json.String f) files));
     ]
    @ Lazy.force o.sections
    @ [
        ("findings", Json.List (List.map finding_json (Diagnostics.all sink)));
        ( "summary",
          Json.Obj
            [
              ("errors", Json.Int (Diagnostics.error_count sink));
              ("warnings", Json.Int (Diagnostics.warning_count sink));
              ("notes", Json.Int (Diagnostics.note_count sink));
              ("bugs", Json.Int (Diagnostics.bug_count sink));
            ] );
        ("exit_code", Json.Int (Diagnostics.exit_code sink));
      ])

(* --- session-scoped entry points ---------------------------------------- *)

let check_sources_in (ses : Belr_lf.Session.t) (sink : Diagnostics.sink)
    (sources : (string * string) list) : Belr_lf.Sign.t =
  Belr_lf.Session.with_ ses (fun () ->
      let sg = check_sources sink sources in
      ses.Belr_lf.Session.sn_sign <- sg;
      sg)

let run_analysis_in (a : analysis) (ses : Belr_lf.Session.t)
    (sink : Diagnostics.sink) : outcome =
  Belr_lf.Session.with_ ses (fun () ->
      let sg = Belr_lf.Session.sign ses in
      List.hd
        (run_with (Belr_analysis.Facts.make ~session:ses sg) [ a ] sink sg))

let lint_in = run_analysis_in (lint_analysis ())
let total_in = run_analysis_in (total_analysis ())
let worlds_in = run_analysis_in (worlds_analysis ())
let modes_in = run_analysis_in (modes_analysis ())
