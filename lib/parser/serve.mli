(** The [belr serve] daemon engine: a session-isolated, crash-only,
    incrementally re-checking JSON-line protocol (schema [belr-serve/1]).

    {b Protocol.}  One JSON object per line on stdin, one reply object
    per line on stdout.  Requests:

    {v
    { "id": <any>, "method": "check", "session": "s"?,
      "source": "…"? | "file": "path"?,
      "deadline_ms": <int>?, "step_budget": <int>?, "max_depth": <int>? }
    { "id": <any>, "method": "lint" | "total" | "worlds" | "modes"
                           | "reset" | "metrics" | "health",
      "session": "s"?, … }
    v}

    Replies always carry ["schema"], the echoed ["id"], a server-minted
    ["request_id"] (["r<n>"], unique per input line, echoed in every log
    line and stamped on every telemetry span the request ran — the join
    key across replies, logs, and traces), the ["session"]
    name, a ["status"] of ["ok"] (request completed; user errors, if any,
    are in ["diagnostics"] and reflected in ["exit_code"]), ["degraded"]
    (a deadline/step budget or memory watermark cut the work short — the
    result is partial but the session is consistent), or ["error"] (the
    request itself failed: malformed protocol input, or an internal
    fault), plus ["diagnostics"] (code/severity/message/loc objects) and
    a ["telemetry"] object.  Malformed input never kills the loop: the
    reply is a structured [E0904] error and reading resynchronizes at the
    next line.

    {b Sessions.}  Each session name owns a {!Belr_lf.Session.t} — its
    own signature, store, memo tables, and limit counters.  Requests
    bracket all checking inside [Session.with_], so sessions cannot
    observe each other and a session that a bug left inconsistent is
    discarded (crash-only: the reply reports the fault, the next request
    on that name gets a fresh world).

    {b Incremental checking.}  A [check] re-submits a whole source text,
    which the session's {!Incr.t} checks into the session's signature,
    re-checking only what the edit reaches (DESIGN.md §S23). *)

open Belr_lf

type t = {
  sv_sessions : (string, session) Hashtbl.t;
  sv_deadline_ms : int option;  (** default per-request deadline *)
  sv_max_depth : int;
  sv_max_errors : int;
  sv_watermark : int option;  (** live-node bound before a pressure reset *)
  sv_slow_ms : float option;
      (** requests slower than this log their span tree ([--slow-ms]) *)
  sv_started_ns : int64;  (** monotonic server start (the [health] uptime) *)
  mutable sv_requests : int;
  mutable sv_rid : int;  (** request-id sequence (includes rejected lines) *)
  mutable sv_pressure_resets : int;
  mutable sv_deadline_overruns : int;
      (** requests degraded by a deadline or step budget (E0903) *)
}

and session = {
  ss_name : string;
  ss_core : Session.t;
  ss_incr : Incr.t;  (** the session's text, checked incrementally *)
}

val create :
  ?deadline_ms:int ->
  ?max_depth:int ->
  ?max_errors:int ->
  ?watermark:int ->
  ?slow_ms:float ->
  unit ->
  t

(** Handle one input line, total: whatever happens, the caller gets a
    reply string (or [None] for blank lines) and the loop keeps going. *)
val handle_line : t -> string -> string option

(** The stdin/stdout loop: read lines until EOF, one reply per request
    line, flushed eagerly so a driving editor sees replies promptly. *)
val run : t -> in_channel -> out_channel -> unit

(** Every serve method: [check], one per {!Driver.analyses} entry, then
    the session and server-wide methods. *)
val methods : string list

val find_session : t -> string -> session

(** Sample the point-in-time gauges: GC; every integer field of the
    telemetry ["store"] section (store, substitution memo, whnf memo,
    equality fast path) summed over the live sessions as [store.<field>],
    with [store.dedup_ratio] recomputed from the sums; the {!Limits} peak
    watermarks (exported per subsystem), the maximum over the live
    sessions; and the server's own degradation counters.  Called only
    where the gauges are read — the [metrics] method, and [belr serve
    --metrics] before it writes the exposition — because the store
    census is O(store): it counts every arena of every session. *)
val sample_gauges : t -> unit
