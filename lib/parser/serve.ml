open Belr_support
open Belr_lf
module J = Json

let schema_id = "belr-serve/1"

type session = { ss_name : string; ss_core : Session.t; ss_incr : Incr.t }

type t = {
  sv_sessions : (string, session) Hashtbl.t;
  sv_deadline_ms : int option;
  sv_max_depth : int;
  sv_max_errors : int;
  sv_watermark : int option;
  sv_slow_ms : float option;
  sv_started_ns : int64;
  mutable sv_requests : int;
  mutable sv_rid : int;
  mutable sv_pressure_resets : int;
  mutable sv_deadline_overruns : int;
}

(* --- serve metrics (DESIGN.md §S24) -------------------------------------- *)

(* Registered once at module load in the one Telemetry registry; they
   record while [handle_line] has recording on. *)
let m_requests =
  Telemetry.counter ~help:"serve requests handled (all methods)"
    "serve.requests"

let m_protocol_errors =
  Telemetry.counter ~help:"malformed or rejected serve requests (E0904)"
    "serve.protocol_errors"

let m_replies_ok =
  Telemetry.counter ~help:"replies with status ok" "serve.replies.ok"

let m_replies_degraded =
  Telemetry.counter ~help:"replies with status degraded"
    "serve.replies.degraded"

let m_replies_error =
  Telemetry.counter ~help:"replies with status error" "serve.replies.error"

let m_decls_rechecked =
  Telemetry.counter ~help:"declarations re-checked by the incremental engine"
    "serve.decls.rechecked"

let m_decls_reused =
  Telemetry.counter ~help:"declarations reused by the incremental engine"
    "serve.decls.reused"

let methods =
  ("check" :: List.map (fun a -> a.Driver.name) Driver.analyses)
  @ [ "reset"; "metrics"; "health" ]

(** ["check, lint, …, or health"], for the unknown-method rejection. *)
let expected_methods =
  match List.rev methods with
  | last :: rest -> String.concat ", " (List.rev rest) ^ ", or " ^ last
  | [] -> ""

(** Per-method latency histograms; the [serve.check] p50/p99 is the
    headline latency the [metrics] method serves. *)
let m_method_hist : (string * Telemetry.histogram) list =
  List.map
    (fun m ->
      ( m,
        Telemetry.histogram
          ~help:(Printf.sprintf "latency of serve %s requests (ns)" m)
          ("serve." ^ m) ))
    methods

let g_sessions = Telemetry.gauge ~help:"live serve sessions" "serve.sessions"

let g_pressure_resets =
  Telemetry.gauge ~help:"watermark-triggered session store resets"
    "serve.pressure_resets"

let g_deadline_overruns =
  Telemetry.gauge ~help:"requests degraded by a deadline or step budget"
    "serve.deadline_overruns"

(** The integer fields of the telemetry ["store"] section (store,
    substitution memo, whnf memo, equality fast path) of the installed
    world, in section order. *)
let store_ints () : (string * int) list =
  List.filter_map
    (fun (field, v) ->
      match (v : J.t) with J.Int n -> Some (field, n) | _ -> None)
    (Option.value ~default:[]
       (List.assoc_opt "store" (Telemetry.section_reports ())))

(** One [store.<field>] gauge per integer field of the section. *)
let g_store : (string * Telemetry.gauge) list =
  List.map
    (fun (field, _) ->
      ( field,
        Telemetry.gauge
          ~help:
            (Printf.sprintf "store section %s, summed over live sessions"
               field)
          ("store." ^ field) ))
    (store_ints ())

let g_store_dedup =
  Telemetry.gauge ~help:"store dedup ratio (hits / lookups)"
    "store.dedup_ratio"

let g_gc_heap = Telemetry.gauge ~help:"GC heap words" "gc.heap_words"

let g_gc_top_heap =
  Telemetry.gauge ~help:"GC top heap words (peak)" "gc.top_heap_words"

let g_gc_minor =
  Telemetry.gauge ~help:"GC minor collections" "gc.minor_collections"

let g_gc_major =
  Telemetry.gauge ~help:"GC major collections" "gc.major_collections"

let g_limit_trips =
  Telemetry.gauge ~help:"resource-guard trips (depth/deadline/budget)"
    "limits.trips"

let g_tele_dropped =
  Telemetry.gauge ~help:"telemetry span events dropped by the ring buffer"
    "telemetry.events_dropped"

let create ?deadline_ms ?(max_depth = Limits.default_max_depth)
    ?(max_errors = 64) ?watermark ?slow_ms () : t =
  {
    sv_sessions = Hashtbl.create 8;
    sv_deadline_ms = deadline_ms;
    sv_max_depth = max_depth;
    sv_max_errors = max_errors;
    sv_watermark = watermark;
    sv_slow_ms = slow_ms;
    sv_started_ns = Limits.now_ns ();
    sv_requests = 0;
    sv_rid = 0;
    sv_pressure_resets = 0;
    sv_deadline_overruns = 0;
  }

let uptime_ns (t : t) : int =
  Int64.to_int (Int64.sub (Limits.now_ns ()) t.sv_started_ns)

(** Run [f] inside the world of every live session. *)
let each_session (t : t) (f : unit -> unit) : unit =
  Hashtbl.iter (fun _ ses -> Session.with_ ses.ss_core f) t.sv_sessions

(** Live interned store nodes, summed over the live sessions. *)
let live_nodes (t : t) : int =
  let n = ref 0 in
  each_session t (fun () -> n := !n + Session.store_live ());
  !n

let sample_gauges (t : t) : unit =
  let gc = Gc.quick_stat () in
  Telemetry.set_int g_gc_heap gc.Gc.heap_words;
  Telemetry.set_int g_gc_top_heap gc.Gc.top_heap_words;
  Telemetry.set_int g_gc_minor gc.Gc.minor_collections;
  Telemetry.set_int g_gc_major gc.Gc.major_collections;
  let store = ref (List.map (fun (field, _) -> (field, 0)) g_store) in
  let peaks = ref (List.map (fun (name, _) -> (name, 0)) (Limits.peaks ())) in
  each_session t (fun () ->
      let ses_store = store_ints () in
      store :=
        List.map
          (fun (field, n) -> (field, n + List.assoc field ses_store))
          !store;
      let ses_peaks = Limits.peaks () in
      peaks :=
        List.map
          (fun (name, p) -> (name, max p (List.assoc name ses_peaks)))
          !peaks);
  List.iter2
    (fun (_, g) (_, n) -> Telemetry.set_int g n)
    g_store !store;
  (* [Lf.dedup_ratio] over the summed counts *)
  let sum field = List.assoc field !store in
  Telemetry.set g_store_dedup
    (if sum "interned" = 0 then 0.0
     else
       float_of_int (sum "interned" + sum "dedup_hits")
       /. float_of_int (sum "interned"));
  List.iter
    (fun (name, peak) ->
      Telemetry.set_int (Telemetry.gauge ("limits.peak." ^ name)) peak)
    !peaks;
  Telemetry.set_int g_sessions (Hashtbl.length t.sv_sessions);
  Telemetry.set_int g_pressure_resets t.sv_pressure_resets;
  Telemetry.set_int g_deadline_overruns t.sv_deadline_overruns;
  Telemetry.set_int g_limit_trips (Limits.trip_count ());
  Telemetry.set_int g_tele_dropped (Telemetry.events_dropped ())

let find_session (t : t) (name : string) : session =
  match Hashtbl.find_opt t.sv_sessions name with
  | Some s -> s
  | None ->
      let s =
        {
          ss_name = name;
          ss_core = Session.create ();
          ss_incr = Incr.create ();
        }
      in
      Hashtbl.replace t.sv_sessions name s;
      s

(* --- request handlers --------------------------------------------------- *)

let sign_summary_json (sg : Sign.t) : J.t =
  let s = Sign.summary sg in
  J.Obj
    [
      ("typs", J.Int s.Sign.n_typs);
      ("srts", J.Int s.Sign.n_srts);
      ("consts", J.Int s.Sign.n_consts);
      ("schemas", J.Int s.Sign.n_schemas);
      ("sschemas", J.Int s.Sign.n_sschemas);
      ("recs", J.Int s.Sign.n_recs);
    ]

(* --- the protocol layer ------------------------------------------------- *)

type request = {
  rq_id : J.t;
  rq_method : string;
  rq_session : string;
  rq_source : string option;
  rq_file : string option;
  rq_deadline_ms : int option;
  rq_step_budget : int option;
  rq_max_depth : int option;
}

let parse_request (j : J.t) : (request, string) result =
  match j with
  | J.Obj _ -> (
      let str k = Option.bind (J.member k j) J.to_str in
      let int k = Option.bind (J.member k j) J.to_int in
      match str "method" with
      | None -> Result.Error "request lacks a \"method\" string"
      | Some m ->
          Ok
            {
              rq_id = Option.value (J.member "id" j) ~default:J.Null;
              rq_method = m;
              rq_session = Option.value (str "session") ~default:"default";
              rq_source = str "source";
              rq_file = str "file";
              rq_deadline_ms = int "deadline_ms";
              rq_step_budget = int "step_budget";
              rq_max_depth = int "max_depth";
            })
  | _ -> Result.Error "request is not a JSON object"

(** A reply, carrying the request id {!handle_line} set for its line. *)
let reply ~id ~session ~status ~exit_code ?(result = J.Null) ~diags
    ~telemetry () : J.t =
  (match status with
  | "ok" -> Telemetry.bump m_replies_ok
  | "degraded" -> Telemetry.bump m_replies_degraded
  | _ -> Telemetry.bump m_replies_error);
  J.Obj
    [
      ("schema", J.String schema_id);
      ("id", id);
      ("request_id", J.String (Telemetry.current_request_id ()));
      ("session", J.String session);
      ("status", J.String status);
      ("exit_code", J.Int exit_code);
      ("result", result);
      ("diagnostics", J.List (List.map Diagnostics.to_json diags));
      ("telemetry", J.Obj telemetry);
    ]

(** A protocol-level rejection: stable [E0904], nothing touched (but
    counted, logged, and carrying the request id like any reply). *)
let protocol_error ?(id = J.Null) ?(session = "-") msg : J.t =
  Telemetry.bump m_protocol_errors;
  let d =
    Diagnostics.make ~code:"E0904" Diagnostics.Error
      "malformed serve request: %s" msg
  in
  Telemetry.log ~level:Telemetry.Warn "serve.protocol_error"
    [ ("session", J.String session); ("detail", J.String msg) ];
  reply ~id ~session ~status:"error" ~exit_code:1 ~diags:[ d ]
    ~telemetry:[] ()

let has_code (diags : Diagnostics.t list) (code : string) : bool =
  List.exists (fun d -> d.Diagnostics.d_code = code) diags

(** Span-tree JSON of the spans recorded during one request (from ring
    position [mark] on): completion-ordered entries with their nesting
    depth — enough to reconstruct the tree — plus a truncation marker
    when the ring wrapped over the request's oldest spans. *)
let span_tree_json (mark : int) : J.t =
  let evs, truncated = Telemetry.events_since mark in
  let spans =
    List.map
      (fun (ev : Telemetry.event) ->
        J.Obj
          ([
             ("name", J.String ev.Telemetry.ev_name);
             ( "dur_us",
               J.Float (Int64.to_float ev.Telemetry.ev_dur_ns /. 1e3) );
             ("depth", J.Int ev.Telemetry.ev_depth);
           ]
          @
          if ev.Telemetry.ev_arg = "" then []
          else [ ("detail", J.String ev.Telemetry.ev_arg) ]))
      evs
  in
  J.Obj
    ([ ("spans", J.List spans) ]
    @ if truncated then [ ("truncated", J.Bool true) ] else [])

(** Handle one parsed request.  Everything that can raise runs inside the
    session bracket with a sink; exceptions escaping {e this} function
    are engine bugs handled by {!reply_to_line}'s crash-only wrapper;
    {!handle_line} owns the recording flag and the request id. *)
let handle_request (t : t) (rq : request) : J.t =
  t.sv_requests <- t.sv_requests + 1;
  Telemetry.bump m_requests;
  Limits.set_max_depth
    (Option.value rq.rq_max_depth ~default:t.sv_max_depth);
  (* clear first, unconditionally: protocol-error paths below return
     without [finish], so a previous request's step budget could still
     be armed (and [arm_deadline] alone does not clear it) *)
  Limits.clear_deadline ();
  (match
     match rq.rq_deadline_ms with Some ms -> Some ms | None -> t.sv_deadline_ms
   with
  | Some ms -> Limits.arm_deadline ~ms
  | None -> ());
  Option.iter Limits.set_step_budget rq.rq_step_budget;
  let sink = Diagnostics.sink ~max_errors:t.sv_max_errors () in
  let t0 = Limits.now_ns () in
  let decl_spans0 = Telemetry.phase_count "decl" in
  let ring_mark = Telemetry.events_recorded () in
  let finish ?result ?(degraded = false) ?counts () =
    Limits.clear_deadline ();
    (* memory watermark: an oversized session store is cleared in place —
       sharing (not soundness) is lost, and the reply says so *)
    let pressure =
      match (t.sv_watermark, Hashtbl.find_opt t.sv_sessions rq.rq_session) with
      | Some w, Some ses
        when Session.with_ ses.ss_core Session.store_live > w ->
          Session.drop_caches ses.ss_core;
          t.sv_pressure_resets <- t.sv_pressure_resets + 1;
          Diagnostics.emit sink
            (Diagnostics.make ~code:"W0901" Diagnostics.Warning
               "session %s: store passed the live-node watermark %d and \
                was reset (sharing lost, results unaffected)"
               ses.ss_name w);
          true
      | _ -> false
    in
    let diags = Diagnostics.all sink in
    let status =
      if Diagnostics.bug_count sink > 0 then "error"
      else if degraded || pressure || has_code diags "E0903" then "degraded"
      else "ok"
    in
    if has_code diags "E0903" then
      t.sv_deadline_overruns <- t.sv_deadline_overruns + 1;
    let elapsed_ns = Int64.sub (Limits.now_ns ()) t0 in
    let elapsed_ms = Int64.to_float elapsed_ns /. 1e6 in
    (match List.assoc_opt rq.rq_method m_method_hist with
    | Some h -> Telemetry.observe h (Int64.to_int elapsed_ns)
    | None -> ());
    let exit_code = Diagnostics.exit_code sink in
    let counts =
      match counts with
      | Some (rechecked, reused) ->
          [ ("rechecked", J.Int rechecked); ("reused", J.Int reused) ]
      | None -> []
    in
    Telemetry.log "serve.request"
      ([
         ("session", J.String rq.rq_session);
         ("method", J.String rq.rq_method);
         ("status", J.String status);
         ("exit_code", J.Int exit_code);
         ("duration_ms", J.Float elapsed_ms);
       ]
      @ counts);
    (match t.sv_slow_ms with
    | Some slow when elapsed_ms >= slow ->
        (* the request blew the latency threshold: dump its span tree so
           the hot phase is identifiable post-hoc, correlated by id *)
        Telemetry.log ~level:Telemetry.Warn "serve.slow"
          [
            ("session", J.String rq.rq_session);
            ("method", J.String rq.rq_method);
            ("duration_ms", J.Float elapsed_ms);
            ("slow_ms", J.Float slow);
            ("span_tree", span_tree_json ring_mark);
          ]
    | _ -> ());
    reply ~id:rq.rq_id ~session:rq.rq_session ~status ~exit_code
      ?result ~diags
      ~telemetry:
        ([
           ("elapsed_ms", J.Float elapsed_ms);
           ( "decl_spans",
             J.Int (Telemetry.phase_count "decl" - decl_spans0) );
         ]
        @ counts)
      ()
  in
  let reject msg =
    protocol_error ~id:rq.rq_id ~session:rq.rq_session msg
  in
  (* the [serve-dispatch] fault site makes the crash-only path of
     [reply_to_line] testable end-to-end (every kernel site is absorbed by
     per-declaration recovery long before it could escape here) *)
  Fault.hit "serve-dispatch";
  (* [metrics] and [health] are server-wide: they read every live session
     and create none *)
  match rq.rq_method with
  | "metrics" ->
      sample_gauges t;
      finish ~result:(Telemetry.metrics_json ()) ()
  | "health" ->
      finish
        ~result:
          (J.Obj
             [
               ("status", J.String "up");
               ("uptime_ns", J.Int (uptime_ns t));
               ("requests", J.Int t.sv_requests);
               ("sessions", J.Int (Hashtbl.length t.sv_sessions));
               ("live_nodes", J.Int (live_nodes t));
               ("pressure_resets", J.Int t.sv_pressure_resets);
               ("deadline_overruns", J.Int t.sv_deadline_overruns);
               ("limit_trips", J.Int (Limits.trip_count ()));
               ( "telemetry_events_dropped",
                 J.Int (Telemetry.events_dropped ()) );
               ("log_lines_dropped", J.Int (Telemetry.log_dropped ()));
             ])
        ()
  | meth -> (
      (* every other method works on the named session, created on
         first use *)
      let ses = find_session t rq.rq_session in
      match
        (meth, List.find_opt (fun a -> a.Driver.name = meth) Driver.analyses)
      with
      | _, Some a ->
          let result, rechecked, reused =
            Incr.analysis ses.ss_incr sink (Session.sign ses.ss_core)
              a.Driver.name (fun () ->
                let o = Driver.run_analysis_in a ses.ss_core sink in
                Lazy.force o.Driver.reply)
          in
          finish ~result ~counts:(rechecked, reused) ()
      | "check", None -> (
          let src =
            match (rq.rq_source, rq.rq_file) with
            | Some s, _ -> Ok (s, "<serve>")
            | None, Some f -> (
                match Driver.read_file sink f with
                | Some s -> Ok (s, f)
                | None -> Result.Error (`Io f))
            | None, None -> Result.Error `Missing
          in
          match src with
          | Result.Error `Missing ->
              reject "method \"check\" needs a \"source\" or \"file\" string"
          | Result.Error (`Io _) ->
              (* E0701 is already in the sink; nothing was touched *)
              finish ()
          | Ok (src, name) ->
              let sg = Session.sign ses.ss_core and report = ref None in
              let check () =
                report := Some (Incr.check ses.ss_incr sink sg ~name src)
              in
              Session.with_ ses.ss_core (fun () ->
                  Diagnostics.with_stop sink check);
              let result, rechecked, reused, degraded =
                match !report with
                | None -> (J.Null, 0, 0, false)
                | Some (r : Incr.report) ->
                    (if
                       r.r_deadline_hit
                       && not (has_code (Diagnostics.all sink) "E0903")
                     then
                       let ms =
                         Option.value rq.rq_deadline_ms
                           ~default:(Option.value t.sv_deadline_ms ~default:0)
                       in
                       Diagnostics.emit sink
                         (Diagnostics.make ~code:"E0903" Diagnostics.Error
                            "resource limit exceeded: the request deadline of \
                             %d ms passed; %d declaration(s) left unchecked"
                            ms r.r_failed));
                    ( J.Obj
                        [
                          ("summary", sign_summary_json sg);
                          ("decls", J.Int r.r_decls);
                          ("failed", J.Int r.r_failed);
                        ],
                      r.r_rechecked, r.r_reused, r.r_deadline_hit )
              in
              Telemetry.add m_decls_rechecked rechecked;
              Telemetry.add m_decls_reused reused;
              finish ~result ~degraded ~counts:(rechecked, reused) ())
      | "reset", None ->
          (* capture the session's watermarks {e before} discarding its
             world: a reset is exactly when an operator wants to know how
             hot the session ran, and the values are unrecoverable after *)
          let peaks, live =
            Session.with_ ses.ss_core (fun () ->
                ( Limits.peaks (),
                  (Belr_syntax.Lf.store_stats ()).Belr_syntax.Lf.st_live ))
          in
          Session.reset ses.ss_core;
          Incr.reset ses.ss_incr;
          finish
            ~result:
              (J.Obj
                 [
                   ("reset", J.Bool true);
                   ( "peaks_before_reset",
                     J.Obj
                       (List.filter_map
                          (fun (name, peak) ->
                            if peak > 0 then Some (name, J.Int peak) else None)
                          peaks) );
                   ("store_live_before_reset", J.Int live);
                 ])
            ()
      | m, None ->
          reject
            (Printf.sprintf "unknown method %S (expected %s)" m
               expected_methods))

(** The reply to one non-blank input line, under the request id
    {!handle_line} minted for it: a protocol error for a malformed request, else {!handle_request}'s reply.  An
    exception escaping the handler is an engine bug: the session is
    discarded (crash-only — its world is unreachable from any other
    session, so dropping it is safe) and reported as a [B0002]-class
    error reply. *)
let reply_to_line (t : t) (line : string) : J.t =
  match J.parse line with
  | Result.Error msg -> protocol_error msg
  | Ok j -> (
      match parse_request j with
      | Result.Error msg -> protocol_error msg
      | Ok rq -> (
          try handle_request t rq
          with exn ->
            Limits.clear_deadline ();
            Limits.reset ();
            Hashtbl.remove t.sv_sessions rq.rq_session;
            Telemetry.log ~level:Telemetry.Error "serve.engine_fault"
              [
                ("session", J.String rq.rq_session);
                ("method", J.String rq.rq_method);
                ("detail", J.String (Printexc.to_string exn));
              ];
            let d =
              Diagnostics.make ~code:"B0002" Diagnostics.Bug
                "unexpected exception in the serve engine (session %s \
                 discarded): %s"
                rq.rq_session (Printexc.to_string exn)
            in
            reply ~id:rq.rq_id ~session:rq.rq_session ~status:"error"
              ~exit_code:2 ~diags:[ d ] ~telemetry:[] ()))

let handle_line (t : t) (line : string) : string option =
  let line = String.trim line in
  if line = "" then None
  else begin
    (* one id per non-blank input line, minted before parsing so even a
       rejected line is correlatable across reply, log, and trace *)
    t.sv_rid <- t.sv_rid + 1;
    let rid = "r" ^ string_of_int t.sv_rid in
    (* the one place serve turns recording on: for the whole line, so a
       malformed line still counts, and restored on every path — reply,
       rejection, or crash — so nothing leaks into the next line or into
       code the process runs between lines (no [Fun.protect]: its
       closures would cost every request) *)
    let was_enabled = Telemetry.enabled () in
    Telemetry.set_enabled true;
    Telemetry.set_request_id rid;
    match reply_to_line t line with
    | reply_json ->
        Telemetry.clear_request_id ();
        Telemetry.set_enabled was_enabled;
        Some (J.to_string ~compact:true reply_json)
    | exception exn ->
        Telemetry.clear_request_id ();
        Telemetry.set_enabled was_enabled;
        raise exn
  end

let run (t : t) (ic : in_channel) (oc : out_channel) : unit =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        (match handle_line t line with
        | Some r ->
            output_string oc r;
            output_char oc '\n';
            flush oc
        | None -> ());
        loop ()
  in
  loop ()
