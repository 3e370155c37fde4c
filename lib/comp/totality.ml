(** The totality analyzer: per-[rec] verdicts combining size-change
    termination ({!Belr_analysis.Callgraph} + {!Sct}) with deep coverage
    ({!Coverage.deep_check_rec}) — the paper's §6.1 "coverage and
    termination checker for Beluga with refinement types" as a
    first-class static analysis (DESIGN.md §S22).

    Findings go through the {!Belr_support.Diagnostics} code registry, so
    [--werror], [--max-errors], and the 0/1/2 exit-code contract apply
    uniformly:

    - [E0710] (error): a recursion cycle with no strictly descending
      argument in some idempotent size-change composition, witnessed by a
      concrete call path;
    - [W0711] (warning): a non-exhaustive [case], with the missing
      pattern skeletons;
    - [W0712] (warning): the analysis gave up at a resource bound (the
      coverage depth bound, or the SCT composition budget).

    Each phase runs under a [total:<pass>] telemetry span; the kernel
    counters [total.composed_graphs], [total.split_candidates], and
    [total.pruned_cases] account for the work done.  The machine-readable
    report follows the [belr-total/1] schema (validated by
    [tools/validate_json.ml] under the [@analyses] alias):

    {v
    { "schema": "belr-total/1",
      "files": ["examples/totality.blr"],
      "functions": [{"name": "flip", "group": ["flip", "flop"],
                     "terminating": true, "covered": true,
                     "cases": 1, "missing": []}, …],
      "callgraph": {"functions": 3, "sites": 4, "sccs": 3,
                    "composed": 12},
      "findings": [...belr-lint/1-shaped entries...],
      "summary": {"errors": 0, "warnings": 0, "notes": 0, "bugs": 0},
      "exit_code": 0 }
    v} *)

open Belr_support
open Belr_syntax
open Belr_lf
module Callgraph = Belr_analysis.Callgraph

let c_composed = Telemetry.counter "total.composed_graphs"

type term_status =
  | TTotal
  | TDiverging of Sct.path
  | TGaveUp
  | TUnknown  (** the function's analysis crashed (diagnosed separately) *)

type fn_verdict = {
  fv_id : Lf.cid_rec;
  fv_name : string;
  fv_group : string list;  (** names of the SCC members, ascending id *)
  fv_term : term_status;
  fv_cases : int;  (** [case] expressions analyzed in the body *)
  fv_missing : string list list;  (** per uncovered case, its skeletons *)
  fv_gaveup : int;  (** cases where coverage hit the depth bound *)
}

type result = {
  tr_fns : fn_verdict list;  (** ascending id (declaration) order *)
  tr_sites : int;
  tr_sccs : int;
  tr_composed : int;
}

let empty_result = { tr_fns = []; tr_sites = 0; tr_sccs = 0; tr_composed = 0 }

let rec_loc sg id =
  Option.value ~default:Loc.ghost
    (Sign.decl_loc sg (Sign.rec_entry sg id).Sign.r_name)

(** Run the analyzer over every declared function, reporting through
    [sink].  [depth] bounds coverage splitting; [budget] bounds the SCT
    closure.  Analysis failures on a recovered (partially checked)
    signature are contained per SCC / per function. *)
let run ?(depth = 3) ?(budget = 4096) (sg : Sign.t)
    (facts : Belr_analysis.Facts.t) (sink : Diagnostics.sink) : result =
  let name id = (Sign.rec_entry sg id).Sign.r_name in
  let cg =
    Telemetry.with_span "total:callgraph" (fun () ->
        Belr_analysis.Facts.callgraph facts)
  in
  let sccs = Callgraph.sccs cg in
  (* termination: one verdict per SCC, shared by its members *)
  let composed = ref 0 in
  let term_of : (Lf.cid_rec, term_status) Hashtbl.t = Hashtbl.create 16 in
  Telemetry.with_span "total:sct" (fun () ->
      List.iter
        (fun scc ->
          let v =
            match
              Diagnostics.recover sink
                ~loc:(match scc with id :: _ -> rec_loc sg id | [] -> Loc.ghost)
                ~code:"E0201"
                (fun () -> Sct.check_scc ~budget cg scc)
            with
            | Some (v, `Composed n) ->
                composed := !composed + n;
                Telemetry.add c_composed n;
                (match v with
                | Sct.Terminating -> TTotal
                | Sct.Diverging p -> TDiverging p
                | Sct.GaveUp -> TGaveUp)
            | None -> TUnknown
          in
          List.iter (fun id -> Hashtbl.replace term_of id v) scc;
          match v with
          | TDiverging path ->
              let members =
                String.concat ", " (List.map name scc)
              in
              Diagnostics.emit sink
                (Diagnostics.make
                   ~loc:(rec_loc sg (List.hd scc))
                   ~code:"E0710" Diagnostics.Error
                   "possibly non-terminating recursion in %s: no argument \
                    strictly decreases along the cycle %s"
                   members
                   (Sct.render_path name path))
          | TGaveUp ->
              Diagnostics.emit sink
                (Diagnostics.make
                   ~loc:(match scc with id :: _ -> rec_loc sg id | [] -> Loc.ghost)
                   ~code:"W0712" Diagnostics.Warning
                   "termination analysis of %s gave up: size-change \
                    closure exceeded its budget of %d graphs"
                   (String.concat ", " (List.map name scc))
                   budget)
          | TTotal | TUnknown -> ())
        sccs);
  (* coverage: per function, per case *)
  let fns =
    Telemetry.with_span "total:coverage" (fun () ->
        List.map
          (fun (id, fname) ->
            let scc =
              match
                List.find_opt (fun scc -> List.mem id scc) sccs
              with
              | Some scc -> scc
              | None -> [ id ]
            in
            let cases =
              match
                Diagnostics.recover sink ~loc:(rec_loc sg id)
                  ~code:"E0201" (fun () ->
                    Coverage.deep_check_rec ~depth sg id)
              with
              | Some cs -> cs
              | None -> []
            in
            let missing = ref [] in
            let gaveup = ref 0 in
            List.iter
              (function
                | Coverage.DCovered -> ()
                | Coverage.DUncovered ms ->
                    missing := ms :: !missing;
                    Diagnostics.emit sink
                      (Diagnostics.make ~loc:(rec_loc sg id)
                         ~code:"W0711" Diagnostics.Warning
                         "a case in %s is non-exhaustive: missing %s"
                         fname
                         (String.concat ", " ms))
                | Coverage.DGaveUp ->
                    incr gaveup;
                    Diagnostics.emit sink
                      (Diagnostics.make ~loc:(rec_loc sg id)
                         ~code:"W0712" Diagnostics.Warning
                         "coverage analysis of a case in %s gave up at \
                          splitting depth %d"
                         fname depth))
              cases;
            {
              fv_id = id;
              fv_name = fname;
              fv_group = List.map name scc;
              fv_term =
                (match Hashtbl.find_opt term_of id with
                | Some v -> v
                | None -> TTotal);
              fv_cases = List.length cases;
              fv_missing = List.rev !missing;
              fv_gaveup = !gaveup;
            })
          cg.Callgraph.cg_recs)
  in
  {
    tr_fns = fns;
    tr_sites = List.length cg.Callgraph.cg_sites;
    tr_sccs = List.length sccs;
    tr_composed = !composed;
  }

(* --- report ------------------------------------------------------------ *)

let terminating (f : fn_verdict) =
  match f.fv_term with TTotal -> true | _ -> false

let covered (f : fn_verdict) = f.fv_missing = [] && f.fv_gaveup = 0

let fn_json (f : fn_verdict) : Json.t =
  Json.Obj
    [
      ("name", Json.String f.fv_name);
      ("group", Json.List (List.map (fun n -> Json.String n) f.fv_group));
      ("terminating", Json.Bool (terminating f));
      ("covered", Json.Bool (covered f));
      ("cases", Json.Int f.fv_cases);
      ( "missing",
        Json.List
          (List.map
             (fun ms -> Json.List (List.map (fun m -> Json.String m) ms))
             f.fv_missing) );
    ]

(** The report's own sections: per-function verdicts and the call-graph
    statistics. *)
let sections (r : result) : (string * Json.t) list =
  [
    ("functions", Json.List (List.map fn_json r.tr_fns));
    ( "callgraph",
      Json.Obj
        [
          ("functions", Json.Int (List.length r.tr_fns));
          ("sites", Json.Int r.tr_sites);
          ("sccs", Json.Int r.tr_sccs);
          ("composed", Json.Int r.tr_composed);
        ] );
  ]

(** The serve reply payload. *)
let reply_json (r : result) : Json.t =
  Json.Obj
    [
      ("functions", Json.Int (List.length r.tr_fns));
      ( "terminating",
        Json.Int (List.length (List.filter terminating r.tr_fns)) );
      ("covered", Json.Int (List.length (List.filter covered r.tr_fns)));
    ]

let term_label (f : fn_verdict) =
  match f.fv_term with
  | TTotal -> "terminating"
  | TDiverging _ -> "possibly diverging"
  | TGaveUp -> "termination unknown (budget)"
  | TUnknown -> "termination unknown (analysis failed)"

(** The [-v] listing: call-graph statistics, then one verdict line per
    function. *)
let pp ppf (r : result) =
  Fmt.pf ppf
    "callgraph: %d function(s), %d call site(s), %d SCC(s), %d composed \
     graph(s)@."
    (List.length r.tr_fns) r.tr_sites r.tr_sccs r.tr_composed;
  List.iter
    (fun f ->
      Fmt.pf ppf "total %s : %s, %s (%d case(s))%s@." f.fv_name (term_label f)
        (if covered f then "covered" else "non-exhaustive")
        f.fv_cases
        (match f.fv_group with
        | [ _ ] -> ""
        | g -> "  [group: " ^ String.concat ", " g ^ "]"))
    r.tr_fns
