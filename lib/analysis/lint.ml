(** Orchestration for [belr lint]: run every pass over a checked
    signature.

    The [belr-lint/1] report is the shared analysis envelope (see
    [Belr_parser.Driver.report_json]) with one section of its own,
    [passes]:

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
}

let empty_result = { lr_passes = [] }

(** Run the given passes (default: all of {!Passes.all}, in registry
    order) over [sg], reporting into [sink].  Callers filter with
    {!Passes.select} ([--only] / [--skip]).  Every pass reads the
    sorted entries and the subordination relation of [facts], which is
    computed before the first pass runs.  The [--max-errors] cap is
    absorbed by {!Pass.run_all}, so a result is always returned. *)
let run ?passes (sg : Sign.t) (facts : Facts.t) (sink : Diagnostics.sink) :
    result =
  let passes = Option.value ~default:Passes.all passes in
  ignore (Facts.subord facts);
  { lr_passes = Pass.run_all passes sg facts sink }

(** The report's [passes] section. *)
let sections (r : result) : (string * Json.t) list =
  [
    ( "passes",
      Json.List
        (List.map
           (fun (name, findings) ->
             Json.Obj
               [ ("name", Json.String name); ("findings", Json.Int findings) ])
           r.lr_passes) );
  ]

(** The serve reply payload: finding counts keyed by pass name. *)
let reply_json (r : result) : Json.t =
  Json.Obj
    [
      ( "passes",
        Json.Obj (List.map (fun (n, c) -> (n, Json.Int c)) r.lr_passes) );
    ]

(** The [-v] listing: per-pass counts, then the relation itself. *)
let pp (sg : Sign.t) (facts : Facts.t) ppf (r : result) =
  Fmt.pf ppf "analysis passes:@.";
  List.iter
    (fun (name, findings) -> Fmt.pf ppf "  %-12s %d finding(s)@." name findings)
    r.lr_passes;
  Fmt.pf ppf "%a" (Subord.pp sg) (Facts.subord facts)
