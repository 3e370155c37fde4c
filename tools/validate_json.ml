(** CI gate for machine-readable artifacts: each argument must parse as
    JSON, and recognized shapes get structural checks — a Chrome trace
    must carry a non-empty [traceEvents] array of complete/metadata
    events, a [belr-profile/1] report its [phases] and [counters]
    sections plus the hash-consing [store] section (DESIGN.md §S21) and,
    when it ran [check-comp], the unifier's cost bound (DESIGN.md §S8), an
    analysis report ([belr-lint/1], [belr-total/1], [belr-worlds/1],
    [belr-modes/1]) the shared envelope — [files], a [findings] array
    (code + severity per entry), [summary], [exit_code] — plus the own
    sections its schema lists in {!analysis_reports}, and a
    [belr-bench/1] report a non-empty [experiments] object of
    per-experiment objects.

    A [.jsonl] argument is validated line by line; every non-blank line
    must parse, every [belr-serve/1] reply must carry its [id],
    [session], a valid [status], an integer [exit_code], a well-formed
    [diagnostics] array, and a [telemetry] object, and every structured
    log line (an object with an [event] field, as written by
    [serve --log]) must carry [ts_ns], a known [level], and — for
    [serve.*] lines — the request_id/session join fields ([serve.request]
    lines also method/status).  After [--serve-abuse], [.jsonl] files must additionally
    satisfy the scripted-abuse contract of the [@serve] alias: at least
    one [error] reply (the injected fault), at least one [degraded]
    reply (the blown deadline), and a final reply that is [ok] with exit
    code 0 and a non-empty checked signature — the server survived the
    abuse and still checks real input.  After [--serve-metrics], reply
    streams must satisfy the [@metrics] observability contract: unique
    [request_id]s on every reply, an [error] reply from the injected
    fault, a [belr-metrics/1] reply with a populated [serve.check]
    latency histogram and a positive kernel counter
    ([hsub.substitutions]: the reply reads the one registry the kernel
    records into), an [up] health reply that counts no more sessions
    than the [check] replies name and sees live store nodes, and at
    least two [lint] replies, all with the same [passes] counts (the
    script's edit between them adds a constructor, no finding).

    A [belr-metrics/1] document must carry its [counters]/[gauges]/
    [histograms] arrays (histogram entries: name, count, quantiles,
    buckets), and a [.prom] argument is checked as a Prometheus text
    exposition (every sample [belr_]-prefixed and numeric, the serve
    request counter present, at least one [_bucket{le=...}] series;
    after [--serve-metrics], a positive [belr_store_live] gauge, the
    [belr_hsub_substitutions_total] kernel counter, and fewer
    subordination closures ([belr_analysis_subord_rebuilt_total]) than
    analysis queries (the [_count]s of the [serve_lint], [serve_total],
    [serve_worlds] and [serve_modes] histograms): a session reuses its
    relation across an edit that adds no edge).
    Exit 0 iff every file passes; the [@smoke], [@analyses], [@serve],
    [@metrics], and [@bench-json] dune aliases fail the build
    otherwise. *)

module J = Belr_support.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- analysis reports (belr-<name>/1) ------------------------------------ *)

type kind = Str | Int | Bool

let has_kind kind (v : J.t) =
  match (kind, v) with
  | Str, J.String _ | Int, J.Int _ | Bool, J.Bool _ -> true
  | _ -> false

(** An analysis report's own section: an array whose every entry carries
    typed keys, or an object that carries keys. *)
type section =
  | Entries of string * (string * kind) list
  | Fields of string * string list

(** The own sections each analysis schema requires beside the shared
    envelope. *)
let analysis_reports =
  [
    ( "belr-lint/1",
      [ Entries ("passes", [ ("name", Str); ("findings", Int) ]) ] );
    ( "belr-total/1",
      [
        Entries
          ( "functions",
            [ ("name", Str); ("terminating", Bool); ("covered", Bool) ] );
        Fields ("callgraph", []);
      ] );
    ( "belr-worlds/1",
      [
        Entries
          ( "functions",
            [
              ("name", Str); ("extensions", Int); ("violations", Int);
              ("nonstrict", Int); ("clean", Bool);
            ] );
        Fields ("signature", [ "blocks"; "worlds" ]);
      ] );
    ( "belr-modes/1",
      [
        Entries
          ( "families",
            [
              ("name", Str); ("clauses", Int); ("illmoded", Int);
              ("ungrounded", Int); ("nonunique", Int); ("clean", Bool);
            ] );
        Fields ("signature", [ "modes"; "missing" ]);
      ] );
  ]

let check_section (j : J.t) : section -> string option = function
  | Entries (name, typed) -> (
      match Option.bind (J.member name j) J.to_list with
      | None -> Some (Printf.sprintf "report lacks a %S array" name)
      | Some entries ->
          List.find_map
            (fun e ->
              List.find_map
                (fun (k, kind) ->
                  match J.member k e with
                  | Some v when has_kind kind v -> None
                  | _ ->
                      Some
                        (Printf.sprintf "a %S entry lacks a well-typed %S"
                           name k))
                typed)
            entries)
  | Fields (name, ks) -> (
      match J.member name j with
      | Some (J.Obj _ as o) ->
          List.find_map
            (fun k ->
              if J.member k o = None then
                Some (Printf.sprintf "%S section lacks %S" name k)
              else None)
            ks
      | _ -> Some (Printf.sprintf "report lacks its %S object" name))

(** The shared envelope — [files], a [findings] array with a code and a
    severity string per entry, [summary], and an integer [exit_code] —
    then the schema's own sections. *)
let check_analysis_report sections (j : J.t) : string option =
  let envelope =
    [
      Entries ("findings", [ ("code", Str); ("severity", Str) ]);
      Fields ("summary", [ "errors"; "warnings"; "notes"; "bugs" ]);
    ]
  in
  if Option.bind (J.member "files" j) J.to_list = None then
    Some "report lacks a \"files\" array"
  else
    match J.member "exit_code" j with
    | Some (J.Int _) -> List.find_map (check_section j) (envelope @ sections)
    | _ -> Some "report lacks an integer \"exit_code\""

(** A profile that ran [check-comp] must show branch unification at
    work, and the unifier's cost bound: at most one solution
    meta-substitution built per solved variable. *)
let check_unify_cost (j : J.t) : string option =
  let named k name e = J.member k e = Some (J.String name) in
  let entries k =
    Option.value ~default:[] (Option.bind (J.member k j) J.to_list)
  in
  if not (List.exists (named "name" "check-comp") (entries "phases")) then None
  else
    let total name =
      match List.find_opt (named "name" name) (entries "counters") with
      | Some c -> Option.bind (J.member "total" c) J.to_int
      | None -> None
    in
    match
      (total "unify.problems", total "unify.solved_vars",
       total "unify.solution_substs")
    with
    | Some problems, Some solved, Some substs ->
        if problems <= 0 then
          Some "profile ran check-comp but counts no unify.problems"
        else if substs > solved then
          Some
            (Printf.sprintf
               "unify.solution_substs (%d) exceeds unify.solved_vars (%d)"
               substs solved)
        else None
    | _ ->
        Some
          "profile ran check-comp but lacks the unify.problems, \
           unify.solved_vars or unify.solution_substs counter"

let check_structure (j : J.t) : string option =
  match J.member "traceEvents" j with
  | Some events -> (
      match J.to_list events with
      | Some (_ :: _ as evs) ->
          let bad_event e =
            match J.member "ph" e with
            | Some (J.String ("X" | "M" | "B" | "E" | "C" | "i")) -> false
            | _ -> true
          in
          if List.exists bad_event evs then
            Some "a traceEvents entry is missing a valid \"ph\" phase field"
          else None
      | _ -> Some "\"traceEvents\" is not a non-empty array")
  | None -> (
      match J.member "schema" j with
      | Some (J.String schema) when List.mem_assoc schema analysis_reports ->
          check_analysis_report (List.assoc schema analysis_reports) j
      | Some (J.String "belr-profile/1") -> (
          if J.member "phases" j = None then
            Some "profile report lacks \"phases\""
          else if J.member "counters" j = None then
            Some "profile report lacks \"counters\""
          else
            match J.member "store" j with
            | Some (J.Obj _ as st) -> (
                let required =
                  [
                    "enabled";
                    "live";
                    "interned";
                    "dedup_hits";
                    "dedup_ratio";
                    "memo_hits";
                    "memo_misses";
                    "memo_hit_rate";
                    "mfi_skips";
                    "whnf_memo_hits";
                    "whnf_memo_misses";
                    "whnf_memo_hit_rate";
                    "whnf_forced";
                    "whnf_eager";
                    "equal_phys_hits";
                    "equal_phys_misses";
                  ]
                in
                match
                  List.find_opt (fun k -> J.member k st = None) required
                with
                | Some k ->
                    Some
                      (Printf.sprintf
                         "profile \"store\" section lacks %S" k)
                | None -> check_unify_cost j)
            | _ -> Some "profile report lacks its \"store\" object")
      | Some (J.String "belr-bench/1") -> (
          if J.member "depths" j = None then
            Some "bench report lacks \"depths\""
          else
            match J.member "experiments" j with
            | Some (J.Obj (_ :: _ as exps)) ->
                if
                  List.exists
                    (fun (_, v) ->
                      match v with J.Obj _ -> false | _ -> true)
                    exps
                then Some "an experiments entry is not an object"
                else None
            | _ -> Some "bench report lacks a non-empty \"experiments\" object")
      | Some (J.String "belr-metrics/1") -> (
          let arr k = Option.bind (J.member k j) J.to_list in
          match (arr "counters", arr "gauges", arr "histograms") with
          | None, _, _ -> Some "metrics report lacks a \"counters\" array"
          | _, None, _ -> Some "metrics report lacks a \"gauges\" array"
          | _, _, None -> Some "metrics report lacks a \"histograms\" array"
          | Some counters, Some _, Some hists ->
              let bad_counter c =
                match (J.member "name" c, J.member "value" c) with
                | Some (J.String _), Some (J.Int _) -> false
                | _ -> true
              in
              let bad_hist h =
                match
                  ( J.member "name" h,
                    J.member "count" h,
                    J.member "p50_ns" h,
                    J.member "p99_ns" h,
                    Option.bind (J.member "buckets" h) J.to_list )
                with
                | ( Some (J.String _),
                    Some (J.Int _),
                    Some (J.Int _),
                    Some (J.Int _),
                    Some _ ) ->
                    false
                | _ -> true
              in
              if List.exists bad_counter counters then
                Some
                  "a counters entry is missing its \"name\" string or \
                   integer \"value\""
              else if List.exists bad_hist hists then
                Some
                  "a histograms entry is missing \"name\", \"count\", \
                   \"p50_ns\", \"p99_ns\", or its \"buckets\" array"
              else None)
      | _ -> None (* generic JSON (e.g. a bench report): parsing sufficed *))

(* --- belr-serve/1 reply streams ----------------------------------------- *)

let check_serve_reply (j : J.t) : string option =
  let has k = J.member k j <> None in
  if not (has "id") then Some "serve reply lacks \"id\""
  else
    match J.member "session" j with
    | Some (J.String _) -> (
        match J.member "status" j with
        | Some (J.String ("ok" | "degraded" | "error")) -> (
            match J.member "exit_code" j with
            | Some (J.Int _) -> (
                match Option.bind (J.member "diagnostics" j) J.to_list with
                | None -> Some "serve reply lacks a \"diagnostics\" array"
                | Some diags -> (
                    let bad d =
                      match (J.member "code" d, J.member "severity" d) with
                      | Some (J.String _), Some (J.String _) -> false
                      | _ -> true
                    in
                    if List.exists bad diags then
                      Some
                        "a serve diagnostic is missing its \"code\" or \
                         \"severity\" string"
                    else
                      match J.member "telemetry" j with
                      | Some (J.Obj _) -> None
                      | _ -> Some "serve reply lacks a \"telemetry\" object"))
            | _ -> Some "serve reply lacks an integer \"exit_code\"")
        | _ ->
            Some
              "serve reply \"status\" is not one of ok, degraded, error")
    | _ -> Some "serve reply lacks a \"session\" string"

let status_of j =
  match J.member "status" j with Some (J.String s) -> s | _ -> ""

(** The scripted-abuse contract (see [examples/dune], alias [@serve]):
    the stream must show the server absorbing a fault ([error]), a blown
    deadline ([degraded]), and still end with a successful check of a
    real signature. *)
let check_abuse_contract (replies : J.t list) : string option =
  if not (List.exists (fun r -> status_of r = "error") replies) then
    Some "abuse stream has no \"error\" reply (fault not exercised)"
  else if not (List.exists (fun r -> status_of r = "degraded") replies) then
    Some "abuse stream has no \"degraded\" reply (deadline not exercised)"
  else
    match List.rev replies with
    | [] -> Some "abuse stream is empty"
    | last :: _ ->
        if status_of last <> "ok" then
          Some "abuse stream's final reply is not \"ok\""
        else if J.member "exit_code" last <> Some (J.Int 0) then
          Some "abuse stream's final reply has a nonzero exit code"
        else
          let typs =
            Option.bind (J.member "result" last) (fun r ->
                Option.bind (J.member "summary" r) (J.member "typs"))
          in
          (match typs with
          | Some (J.Int n) when n > 0 -> None
          | _ ->
              Some
                "abuse stream's final reply checked an empty signature \
                 (summary.typs is not positive)")

(* --- structured log streams (--log FILE) -------------------------------- *)

(** One [--log] line ([Telemetry.log]): monotonic [ts_ns], a known
    [level], an [event] name.  Every [serve.*] line must carry the
    [request_id] and [session] strings that join it to its reply, and a
    [serve.request] line its [method] and [status] too (DESIGN.md
    §S24). *)
let check_log_line (j : J.t) : string option =
  match J.member "ts_ns" j with
  | Some (J.Int _) -> (
      match J.member "level" j with
      | Some (J.String ("debug" | "info" | "warn" | "error")) -> (
          match J.member "event" j with
          | Some (J.String ev) -> (
              let required =
                if ev = "serve.request" then
                  [ "request_id"; "session"; "method"; "status" ]
                else if String.starts_with ~prefix:"serve." ev then
                  [ "request_id"; "session" ]
                else []
              in
              match
                List.find_opt
                  (fun k ->
                    match J.member k j with
                    | Some (J.String _) -> false
                    | _ -> true)
                  required
              with
              | Some k ->
                  Some (Printf.sprintf "%s log line lacks its %S string" ev k)
              | None -> None)
          | _ -> Some "log line lacks an \"event\" string")
      | _ -> Some "log line \"level\" is not debug, info, warn, or error")
  | _ -> Some "log line lacks an integer \"ts_ns\""

(** The golden script creates sessions only by checking, so the [up]
    health reply [res] may count no more sessions than the [check]
    replies (those whose result carries [failed]) name, and after those
    real checks it must see live store nodes. *)
let check_health_gauges (replies : J.t list) (res : J.t) : string option =
  let checked =
    List.sort_uniq compare
      (List.filter_map
         (fun r ->
           match (J.member "session" r, J.member "result" r) with
           | Some (J.String s), Some result
             when J.member "failed" result <> None ->
               Some s
           | _ -> None)
         replies)
  in
  match (J.member "sessions" res, J.member "live_nodes" res) with
  | Some (J.Int n), _ when n > List.length checked ->
      Some
        (Printf.sprintf
           "health counts %d session(s), but checks named only %d" n
           (List.length checked))
  | Some (J.Int _), Some (J.Int live) ->
      if live > 0 then None
      else Some "health reports 0 live_nodes after real checks"
  | _ -> Some "health reply lacks integer \"sessions\"/\"live_nodes\""

(** Every [lint] reply (a result with [passes]) carries the same pass
    counts, and there are two at least. *)
let check_lint_replies (replies : J.t list) : string option =
  match
    List.filter_map
      (fun r -> Option.bind (J.member "result" r) (J.member "passes"))
      replies
  with
  | [] | [ _ ] -> Some "metrics stream has fewer than two lint replies"
  | p :: ps ->
      if List.for_all (fun q -> q = p) ps then None
      else Some "lint replies differ in their \"passes\" counts"

(** The observability contract (see [examples/dune], alias [@metrics]):
    the scripted stream must show the injected fault as an [error]
    reply, a [metrics] reply whose [belr-metrics/1] payload has a
    populated [serve.check] latency histogram and a positive
    [hsub.substitutions] counter, a [health] reply that is [up] and
    passes {!check_health_gauges}, a distinct [request_id] on every
    reply, and {!check_lint_replies}. *)
let check_metrics_contract (replies : J.t list) : string option =
  let rids =
    List.filter_map
      (fun r ->
        match J.member "request_id" r with
        | Some (J.String s) -> Some s
        | _ -> None)
      replies
  in
  if List.length rids <> List.length replies then
    Some "a reply lacks its \"request_id\" string"
  else if List.length (List.sort_uniq compare rids) <> List.length rids then
    Some "request ids are not unique across the stream"
  else if not (List.exists (fun r -> status_of r = "error") replies) then
    Some "metrics stream has no \"error\" reply (fault not exercised)"
  else
    let metrics_reply =
      List.find_opt
        (fun r ->
          match J.member "result" r with
          | Some res ->
              J.member "schema" res = Some (J.String "belr-metrics/1")
          | None -> false)
        replies
    in
    let kernel_counter r =
      Option.bind (J.member "result" r) (fun res ->
          Option.bind (J.member "counters" res) (fun cs ->
              Option.bind (J.to_list cs) (fun cs ->
                  List.find_map
                    (fun c ->
                      if
                        J.member "name" c
                        = Some (J.String "hsub.substitutions")
                      then Option.bind (J.member "value" c) J.to_int
                      else None)
                    cs)))
    in
    match metrics_reply with
    | None -> Some "metrics stream has no belr-metrics/1 reply"
    | Some r when Option.value (kernel_counter r) ~default:0 <= 0 ->
        Some
          "metrics reply lacks a positive \"hsub.substitutions\" counter \
           (kernel counters must share the one registry)"
    | Some r -> (
        let check_hist =
          Option.bind (J.member "result" r) (fun res ->
              Option.bind (J.member "histograms" res) (fun hs ->
                  Option.bind (J.to_list hs) (fun hs ->
                      List.find_opt
                        (fun h ->
                          J.member "name" h
                          = Some (J.String "serve.check"))
                        hs)))
        in
        match check_hist with
        | None -> Some "metrics reply lacks the \"serve.check\" histogram"
        | Some h -> (
            (match J.member "count" h with
            | Some (J.Int n) when n >= 1 -> None
            | _ -> Some "\"serve.check\" histogram has an empty count")
            |> function
            | Some _ as e -> e
            | None -> (
                match J.member "p50_ns" h with
                | Some (J.Int n) when n > 0 -> (
                    let health =
                      List.find_map
                        (fun r ->
                          match J.member "result" r with
                          | Some res
                            when J.member "status" res
                                 = Some (J.String "up") ->
                              Some res
                          | _ -> None)
                        replies
                    in
                    match health with
                    | None ->
                        Some
                          "metrics stream has no health reply with status \
                           \"up\""
                    | Some res -> (
                        match check_health_gauges replies res with
                        | Some _ as e -> e
                        | None -> check_lint_replies replies))
                | _ -> Some "\"serve.check\" histogram has p50_ns <= 0")))

let check_jsonl ~abuse ~metrics (src : string) : string option =
  let replies = ref [] in
  let log_lines = ref 0 in
  let err = ref None in
  List.iteri
    (fun i line ->
      if !err = None && String.trim line <> "" then
        match J.parse line with
        | Error msg -> err := Some (Printf.sprintf "line %d: %s" (i + 1) msg)
        | Ok j ->
            let fail = function
              | Some msg ->
                  err := Some (Printf.sprintf "line %d: %s" (i + 1) msg)
              | None -> ()
            in
            if J.member "schema" j = Some (J.String "belr-serve/1") then begin
              fail (check_serve_reply j);
              replies := j :: !replies
            end
            else if J.member "event" j <> None then begin
              fail (check_log_line j);
              incr log_lines
            end)
    (String.split_on_char '\n' src);
  match !err with
  | Some _ as e -> e
  | None ->
      if !replies = [] && !log_lines = 0 then
        Some "no belr-serve/1 replies or log events in stream"
      else if abuse then check_abuse_contract (List.rev !replies)
      else if metrics then check_metrics_contract (List.rev !replies)
      else None

(* --- Prometheus text exposition (--metrics FILE) ------------------------ *)

(** Every non-comment line must be [name value] with a [belr_]-prefixed
    name and a numeric value; the file must expose the serve request
    counter and at least one histogram bucket series.  With [metrics]
    (the [@metrics] script's exposition, written after real checks) the
    [belr_store_live] gauge must also be positive, and the kernel's
    [belr_hsub_substitutions_total] counter present. *)
let check_prom ~metrics (src : string) : string option =
  let err = ref None in
  let samples = ref 0 in
  let has_requests = ref false in
  let has_bucket = ref false in
  let store_live = ref 0.0 in
  let has_kernel = ref false in
  let rebuilt = ref None in
  let queries = ref 0. in
  let analysis_counts =
    List.map
      (fun a -> "belr_serve_" ^ a ^ "_count")
      [ "lint"; "total"; "worlds"; "modes" ]
  in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if !err = None && line <> "" && line.[0] <> '#' then
        match String.index_opt line ' ' with
        | None ->
            err :=
              Some
                (Printf.sprintf "line %d: not a \"name value\" sample"
                   (i + 1))
        | Some sp ->
            let name = String.sub line 0 sp in
            let value =
              String.sub line (sp + 1) (String.length line - sp - 1)
            in
            if not (String.length name > 5 && String.sub name 0 5 = "belr_")
            then
              err :=
                Some
                  (Printf.sprintf
                     "line %d: series %S lacks the belr_ prefix" (i + 1)
                     name)
            else if float_of_string_opt (String.trim value) = None then
              err :=
                Some
                  (Printf.sprintf "line %d: value %S is not numeric" (i + 1)
                     value)
            else begin
              incr samples;
              if name = "belr_serve_requests_total" then
                has_requests := true;
              if name = "belr_store_live" then
                store_live := float_of_string (String.trim value);
              if name = "belr_hsub_substitutions_total" then
                has_kernel := true;
              if name = "belr_analysis_subord_rebuilt_total" then
                rebuilt := Some (float_of_string (String.trim value));
              if List.mem name analysis_counts then
                queries := !queries +. float_of_string (String.trim value);
              let is_sub sub s =
                let n = String.length sub and m = String.length s in
                let rec go i =
                  i + n <= m && (String.sub s i n = sub || go (i + 1))
                in
                go 0
              in
              if is_sub "_bucket{le=" name then has_bucket := true
            end)
    (String.split_on_char '\n' src);
  match !err with
  | Some _ as e -> e
  | None ->
      if !samples = 0 then Some "exposition has no samples"
      else if not !has_requests then
        Some "exposition lacks belr_serve_requests_total"
      else if not !has_bucket then
        Some "exposition has no _bucket{le=...} histogram series"
      else if metrics && !store_live <= 0.0 then
        Some "exposition's belr_store_live is not positive"
      else if metrics && not !has_kernel then
        Some "exposition lacks belr_hsub_substitutions_total"
      else if metrics then
        match !rebuilt with
        | None -> Some "exposition lacks belr_analysis_subord_rebuilt_total"
        | Some n when n >= !queries ->
            Some
              (Printf.sprintf
                 "%g subordination closures for %g analysis queries: the \
                  session did not reuse its relation"
                 n !queries)
        | Some _ -> None
      else None

let () =
  let failed = ref false in
  let abuse = ref false in
  let metrics = ref false in
  let report path = function
    | None -> Printf.printf "%s: ok\n" path
    | Some msg ->
        Printf.eprintf "%s: INVALID: %s\n" path msg;
        failed := true
  in
  Array.iteri
    (fun i path ->
      if i > 0 then
        if path = "--serve-abuse" then abuse := true
        else if path = "--serve-metrics" then metrics := true
        else
          match read_file path with
          | exception Sys_error msg -> report path (Some msg)
          | src ->
              if Filename.check_suffix path ".jsonl" then
                report path (check_jsonl ~abuse:!abuse ~metrics:!metrics src)
              else if Filename.check_suffix path ".prom" then
                report path (check_prom ~metrics:!metrics src)
              else (
                match J.parse src with
                | Error msg -> report path (Some msg)
                | Ok j -> report path (check_structure j)))
    Sys.argv;
  if !failed then exit 1

