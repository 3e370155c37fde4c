(** The telemetry layer: the one registry every observability view reads
    — named counters, gauges, latency histograms, and hierarchical spans
    — and the renderers over it.

    The checking pipeline is instrumented at two granularities:

    - {e spans} ({!with_span}) around pipeline phases — per file, per
      declaration, and per phase (parse → elaborate → LF check → sort
      check → conservativity re-check) — timed with a monotonic clock and
      recorded into a bounded ring buffer;
    - {e counters} ({!counter}/{!bump}) in the hot kernels (hereditary
      substitution, η-expansion, unification) and the serve loop, plus
      the peak-depth watermarks already tracked by {!Limits}.

    Beside them sit {e histograms} ({!observe}: per-request and per-file
    latencies, log-scale and fixed-memory) and {e gauges} ({!set}:
    point-in-time samples such as GC and store sizes, taken by whoever
    renders a view — never on a hot path).

    Renderers (all pure over the registry):

    - {!pp_stats} — the human [--stats] summary table (stderr), whose
      section renderer {!pp_section} also prints [--kernel-stats];
    - {!trace_json} — Chrome trace-event JSON ([--trace FILE]), loadable
      in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto};
    - {!profile_json} — the machine-readable [--profile FILE] report
      (per-phase wall time, counter totals, watermarks), the format the
      committed [BENCH_*.json] trajectory uses;
    - {!metrics_json} — the [belr-metrics/1] report (the serve [metrics]
      method) and {!exposition}, its Prometheus-style text form
      ([--metrics FILE]).

    The one view written as events happen is the [--log FILE] stream
    ({!log}): leveled, rate-bounded lines, each stamped with the clock
    and the request id the spans use.

    Invariants (DESIGN.md §S24):

    - {e one flag}: counters, histograms and spans record only while
      {!enabled}; gauges are samples, so {!set} stores regardless.
    - {e one reset}: {!reset} zeroes everything.  It runs only at the
      start of a run (the CLI, tests, a benchmark's traced segment) and
      never inside [serve], so a server's counters are monotone.
    - {e monotone counters}: {!bump}/{!add} only ever grow a counter
      ([add] clamps negative deltas), so rates over scrapes are valid.
    - {e registry idempotence}: registering a name that exists returns
      the existing metric, so two modules naming the same quantity share
      one cell instead of splitting it across duplicate rows.
    - {e bounded memory}: a histogram is a fixed array of power-of-two
      buckets plus four scalars; spans live in a fixed-size ring.

    {b Zero-cost when disabled.}  All state is pre-registered; the
    recording paths check the single [enabled] flag and allocate nothing
    when it is off.  Span call sites do build a closure for the scoped
    body, so spans belong on phase boundaries (per file / declaration),
    never in per-node recursions — those use {!bump}, which is a flag
    check and an integer store.  The layer is deliberately not
    thread-safe; it observes the single-threaded checking pipeline. *)

val enabled : unit -> bool

(** Turn recording on or off.  Enabling does not clear previous state;
    call {!reset} first for a fresh run. *)
val set_enabled : bool -> unit

(** {1 Counters (monotone)} *)

type counter

(** Register (or fetch) the counter named [name] (module-initialization
    time, one per operation of interest). *)
val counter : ?help:string -> string -> counter

val bump : counter -> unit

val add : counter -> int -> unit

val counter_total : counter -> int

(** All registered counters as [(name, total)], sorted by name. *)
val counter_totals : unit -> (string * int) list

(** {1 Gauges (point-in-time samples)} *)

type gauge

(** Register (or fetch) the gauge named [name]. *)
val gauge : ?help:string -> string -> gauge

val set : gauge -> float -> unit

val set_int : gauge -> int -> unit

val gauge_value : gauge -> float

(** {1 Histograms (log-scale, fixed memory)} *)

(** Upper (inclusive) boundary of bucket [i]: [2^i]. *)
val bucket_le : int -> int

(** The bucket holding observation [v] (values [< 1] land in bucket 0,
    values beyond [2^62] in the last bucket). *)
val bucket_index : int -> int

type histogram

(** Register (or fetch) the histogram named [name].  Observations are
    nanoseconds by convention (rendered fields carry the [_ns] suffix). *)
val histogram : ?help:string -> string -> histogram

val observe : histogram -> int -> unit

val histogram_count : histogram -> int

val histogram_sum : histogram -> int

(** [quantile h q] is the {!bucket_le} boundary of the bucket holding the
    [⌈q·count⌉]-th smallest observation — the least power-of-two [u] such
    that at least a [q] fraction of observations are [<= u] — or [0] for
    an empty histogram.  Exact on synthetic samples (the test suite's
    contract) and within 2× of the true quantile always. *)
val quantile : histogram -> float -> int

(** {1 Extension sections}

    Layers below the pipeline (e.g. the hash-consing term store in
    [Belr_syntax], whose library this module cannot depend on) register a
    named section of report fields here at module-initialization time.
    Providers registered under the same section name are merged into one
    object, so the store and the substitution memo table — which live in
    different libraries — can contribute to a single ["store"] section.
    Providers are pure reads over always-on state: they are consulted only
    when a report is rendered, never on the hot path. *)

val register_section : string -> (unit -> (string * Json.t) list) -> unit

(** Sections with same-name providers merged, in registration order. *)
val section_reports : unit -> (string * (string * Json.t) list) list

(** {1 Spans} *)

type event = {
  mutable ev_name : string;
  mutable ev_arg : string;  (** detail ("" = none): file path, declaration *)
  mutable ev_start_ns : int64;
  mutable ev_dur_ns : int64;
  mutable ev_depth : int;  (** nesting depth at which the span ran *)
  mutable ev_rid : string;
      (** request id the span ran under ("" = outside any request); set
          by the serve layer via {!set_request_id}, surfaced as
          [args.request_id] in the trace renderer so spans can be joined
          to replies and log lines *)
}

(** Stamp every span recorded from now on with [rid] (the serve layer
    brackets each request with this; [""] clears it). *)
val set_request_id : string -> unit

val clear_request_id : unit -> unit

val current_request_id : unit -> string

(** {1 The event log}

    The [--log FILE] stream ([--log-level] sets its level): one JSON
    object per line.  Each line is [ts_ns] (the monotonic clock of
    {!Limits.now_ns}), [level], [event], the {!current_request_id} as
    [request_id] when one is set, then the caller's fields.

    {b Bounded rate.}  At most 2,000 lines per monotonic second are
    written.  A line past the cap is dropped and counted in the
    [log.dropped] gauge ({!log_dropped}), so a request flood does not
    become an I/O flood.  [Warn] and [Error] lines flush the sink at
    once; [Info] and [Debug] lines ride its buffer.

    With no sink installed (the default) {!log} is one comparison, and
    building the fields list is the only allocation its caller pays. *)

type level = Debug | Info | Warn | Error

(** ["debug"], ["info"], ["warn"] (or ["warning"]), ["error"]. *)
val level_of_string : string -> level option

(** Install the line sink [oc] ([None]: no sink), writing lines at
    [level] (default [Info]) and above.  The sink it replaces is flushed,
    not closed: the caller owns the channel. *)
val set_log : ?level:level -> out_channel option -> unit

(** [log ?level event fields] writes one line (default level [Info]) if
    a sink is installed and the level gate and rate bound admit it.
    Writing is total: an I/O error (disk full, closed pipe) uninstalls
    the sink rather than killing the request. *)
val log : ?level:level -> string -> (string * Json.t) list -> unit

(** Lines dropped by the rate bound: the [log.dropped] gauge. *)
val log_dropped : unit -> int

(** Clear all recorded state: events (the span ring is released and
    grows again as spans are recorded), aggregates, every counter, gauge
    and histogram (the registry itself — names, order — is kept), and the
    {!Limits} peak-depth watermarks; re-stamps the trace epoch.  Called
    only at the start of a run, never inside [serve]. *)
val reset : unit -> unit

(** [with_span ?arg name f] times [f ()] as a span named [name] (with
    optional detail [arg], e.g. the file or declaration being processed).
    The span is closed — and recorded — even when [f] raises, so a failed
    declaration under {!Diagnostics.recover} still contributes its time.
    When telemetry is disabled this is [f ()] after one flag check. *)
val with_span : ?arg:string -> string -> (unit -> 'a) -> 'a

(** Completed spans in completion order (oldest first), oldest events
    dropped once the ring wraps.  The ring grows by doubling as spans are
    recorded, up to 65,536 of them, and wraps from then on; until it
    wraps it holds every span since the last {!reset}. *)
val events : unit -> event list

val events_recorded : unit -> int

val events_dropped : unit -> int

(** [events_since mark] — completed spans recorded at or after position
    [mark] (an earlier {!events_recorded} reading), oldest first, plus a
    truncation flag: [true] when the ring wrapped past [mark], i.e. the
    oldest spans of the interval were overwritten and the list is
    partial.  This is how the serve layer extracts one request's span
    tree for slow-request logging without re-scanning the whole ring. *)
val events_since : int -> event list * bool

(** Completed spans recorded under [name] since the last {!reset}.  The
    serve layer reads deltas of this as its incremental-checking oracle
    ("how many "decl" spans did this request run?"). *)
val phase_count : string -> int

(** {1 Renderers} *)

(** One report section as a titled table of its scalar fields: how
    [--stats] renders every section, and [--kernel-stats] the ["store"]
    one. *)
val pp_section : Format.formatter -> string * (string * Json.t) list -> unit

(** The human [--stats] table: per-phase wall time (exclusive of nothing —
    parent spans include their children), counter totals, the {!Limits}
    peak-depth watermarks, and the sections. *)
val pp_stats : Format.formatter -> unit -> unit

(** The Chrome trace-event form of the recorded spans: complete ("X")
    events with microsecond timestamps relative to the {!reset} epoch,
    wrapped in the [{"traceEvents": [...]}] envelope Perfetto and
    [chrome://tracing] load directly. *)
val trace_json : unit -> Json.t

(** The machine-readable [--profile] report: per-phase totals, counter
    totals, and peak-depth watermarks.  This is the stable format for the
    committed [BENCH_*.json] performance trajectory. *)
val profile_json : unit -> Json.t

(** Schema identifier of {!metrics_json}; bump on incompatible changes. *)
val metrics_schema : string

(** The [belr-metrics/1] report (the serve [metrics] method's result):
    every counter, gauge, and histogram, with p50/p90/p99 extracted and
    only non-empty buckets listed. *)
val metrics_json : unit -> Json.t

(** The Prometheus-style text exposition ([--metrics FILE]): counters as
    [_total]-suffixed counters, gauges as gauges, histograms in the
    standard cumulative [_bucket{le="…"}]/[_sum]/[_count] form. *)
val exposition : unit -> string

(** Write the exposition to [path] (truncating); [Sys_error] escapes to
    the caller, which reports it as [E0701]. *)
val write_exposition : string -> unit
