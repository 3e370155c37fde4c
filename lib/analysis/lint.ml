(** Orchestration for [belr lint]: run every pass over a checked
    signature and render the machine-readable report.

    The JSON report follows the [belr-lint/1] schema (validated by
    [tools/validate_json.ml] and the [@lint] alias):

    {v
    { "schema": "belr-lint/1",
      "files": ["examples/quickstart.blr"],
      "passes": [{"name": "subord", "findings": 0}, …],
      "findings": [{"code": "W0704", "severity": "warning",
                    "message": "…", "file": "…", "line": 3, "col": 0,
                    "loc": "…:3.0-8"}, …],
      "summary": {"errors": 0, "warnings": 0, "notes": 0, "bugs": 0},
      "exit_code": 0 }
    v}

    The [findings] array carries {e every} diagnostic in the sink — when
    lint runs after checking on a shared sink ([belr check --lint]), the
    checking diagnostics appear alongside the lint ones, which is the
    point: one run, one report, one exit code. *)

open Belr_support
module Sign = Belr_lf.Sign

type result = {
  lr_passes : (string * int) list;
      (** per-pass finding counts, in pass order *)
  lr_subord : Subord.t;  (** the subordination relation, for reuse *)
}

(** Run the given passes (default: all of {!Passes.all}, in registry
    order) over [sg], reporting into [sink].  Callers filter with
    {!Passes.select} ([--only] / [--skip]).  The subordination relation
    is computed once and shared by every pass.  The [--max-errors] cap is
    absorbed by {!Pass.run_all}, so a result is always returned. *)
let run ?passes (sink : Diagnostics.sink) (sg : Sign.t) : result =
  let passes = Option.value ~default:Passes.all passes in
  Telemetry.with_span "lint" (fun () ->
      let sub = Subord.analyze sg in
      { lr_passes = Pass.run_all passes sg sub sink; lr_subord = sub })

let schema_id = "belr-lint/1"

let finding_json (d : Diagnostics.t) : Json.t =
  let base =
    [
      ("code", Json.String d.Diagnostics.d_code);
      ( "severity",
        Json.String (Diagnostics.severity_label d.Diagnostics.d_severity) );
      ("message", Json.String d.Diagnostics.d_message);
    ]
  in
  let loc = d.Diagnostics.d_loc in
  let pos =
    if Loc.is_ghost loc then []
    else
      [
        ("file", Json.String loc.Loc.source);
        ("line", Json.Int loc.Loc.start_pos.Loc.line);
        ("col", Json.Int loc.Loc.start_pos.Loc.col);
        ("loc", Json.String (Loc.to_string loc));
      ]
  in
  Json.Obj (base @ pos)

(** The full [belr-lint/1] report for one run. *)
let report_json ~(files : string list) (sink : Diagnostics.sink)
    (r : result) : Json.t =
  Json.Obj
    [
      ("schema", Json.String schema_id);
      ("files", Json.List (List.map (fun f -> Json.String f) files));
      ( "passes",
        Json.List
          (List.map
             (fun (name, findings) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("findings", Json.Int findings);
                 ])
             r.lr_passes) );
      ( "findings",
        Json.List (List.map finding_json (Diagnostics.all sink)) );
      ( "summary",
        Json.Obj
          [
            ("errors", Json.Int (Diagnostics.error_count sink));
            ("warnings", Json.Int (Diagnostics.warning_count sink));
            ("notes", Json.Int (Diagnostics.note_count sink));
            ("bugs", Json.Int (Diagnostics.bug_count sink));
          ] );
      ("exit_code", Json.Int (Diagnostics.exit_code sink));
    ]
