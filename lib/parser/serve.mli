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

    {b Incremental checking.}  A [check] re-submits a whole source text;
    the engine parses only the text between the unchanged prefix and
    suffix of the previous one (reusing, relocated, the declarations
    outside it), diffs the result against the session's previous text
    {e per declaration} (content hash over the declaration's source
    slice), and finds the candidates for re-checking: the edited, new and
    previously failed declarations, every declaration that mentions or
    declares a name one of them declares (transitively, via surface
    references — {!Ext.referenced_names}), and every declaration whose
    scope a reorder changed.  Candidates are retired from the signature
    ({!Belr_lf.Sign.retire}) and walked in order: a re-checked
    declaration takes its old ids back wherever its payload is α-equal
    to the old one, and a candidate none of whose mentioned names
    changed meaning is restored untouched instead of re-checked — the
    early cutoff, sound because checking reads other declarations only
    through the names it mentions (DESIGN.md §S23).  Unchanged
    declarations keep their signature entries and ids, so the work done
    tracks how far the edit's meaning reaches, not the file. *)

open Belr_lf

(** {1 Protocol} *)

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
  mutable ss_entries : entry list;  (** declaration order *)
  mutable ss_text : string;  (** the last submitted source text *)
  mutable ss_source : string;
      (** the source name of the last check, which its locations carry *)
  mutable ss_parse_ok : bool;
      (** the last parse was error-free (precondition for reusing its
          declarations across the unchanged prefix and suffix) *)
  mutable ss_checks : int;
      (** session checks run so far: the stamp source of [en_stamp] *)
  ss_caches : (string, analysis_cache) Hashtbl.t;
      (** keyed by analysis name *)
}

and entry = {
  en_key : string;
      (** primary declared name + occurrence index (stable across edits
          of other declarations; duplicates get distinct keys) *)
  en_names : string list;  (** every name the declaration binds *)
  en_refs : string list;  (** every name it mentions (surface) *)
  en_hash : int;  (** content hash of its source slice *)
  en_decl : Ext.decl;
  mutable en_ok : bool;  (** did its last (re-)check succeed? *)
  mutable en_stamp : int;
      (** the sequence number ([ss_checks]) of the session check that
          last re-checked it — or left it marked failed when a deadline
          or the error cap cut the check short *)
}

and analysis_cache

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

(** {1 Incremental engine} *)

module SS : Set.S with type elt = string

(** The entries of a full parse of [src]. *)
val entry_list : string -> Ext.decl list -> entry list

(** Which new entries are candidates for re-checking, and which of them
    are seeds that re-check whatever happens?  [news.(i)] is a seed when:
    - it changed: its key is new, its content hash differs, or its
      previous check failed (always retried, so an erroneous-then-fixed
      declaration fully recovers);
    - its scope flipped: the first declaration of a name it mentions
      moved from before it to after it, or the reverse, or is now
      another declaration before it;
    - a candidate mentions a name that only later entries declare: those
      re-check too, retired while the earlier one re-checks, so it does
      not see the name — as a fresh check would not.
    It is a candidate when it is a seed, or it mentions or declares a
    name that a candidate or removed entry declares (retraction is by
    name), or mentions a world that a candidate or removed schema
    provides ({!Ext.world_names}).  A candidate that is no seed re-checks
    only if a name it mentions changed meaning ({!check_in_session}).
    One walk from the seeds and the removed entries over name → entries
    indexes built from [en_names], [en_refs] and the schemas' worlds;
    DESIGN.md §S23 argues that this is sound.  Returns
    [(candidates, seeds)]. *)
val invalidate : entry list -> entry array -> bool array * bool array

(** The candidates of {!invalidate} as a key set. *)
val invalid_keys : entry list -> entry list -> SS.t

(** The cut of [d] in [src]: the start of the line holding its first
    token — the keyword introducing it — provided only blanks precede
    that keyword on its line.  No token and no [%] comment spans a line
    break, so lexing [src] up to the cut yields the tokens of everything
    before [d], and lexing from it yields [d]'s and everything after.
    [None] when the keyword shares its line with earlier text, or is not
    where a declaration of [d]'s kind puts it (a comment between keyword
    and name). *)
val decl_cut : string -> Ext.decl -> int option
