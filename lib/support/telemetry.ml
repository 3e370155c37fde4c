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
    - {e bounded memory}: a histogram is {!num_buckets} power-of-two
      buckets plus four scalars; spans live in a fixed-size ring.

    {b Zero-cost when disabled.}  All state is pre-registered; the
    recording paths check the single [enabled] flag and allocate nothing
    when it is off.  Span call sites do build a closure for the scoped
    body, so spans belong on phase boundaries (per file / declaration),
    never in per-node recursions — those use {!bump}, which is a flag
    check and an integer store.  The layer is deliberately not
    thread-safe; it observes the single-threaded checking pipeline. *)

external now_ns : unit -> int64 = "belr_monotonic_clock_ns"

let on = ref false

let enabled () = !on

(** Turn recording on or off.  Enabling does not clear previous state;
    call {!reset} first for a fresh run. *)
let set_enabled b = on := b

(** The registration rule every metric kind shares: [name] returns the
    metric already registered under it, or registers [make ()] last. *)
let register (registry : 'a list ref) (name_of : 'a -> string) name make =
  match List.find_opt (fun m -> name_of m = name) !registry with
  | Some m -> m
  | None ->
      let m = make () in
      registry := !registry @ [ m ];
      m

(* --- counters (monotone) ------------------------------------------------ *)

type counter = { ct_name : string; ct_help : string; mutable ct_total : int }

let counters : counter list ref = ref []

(** Register (or fetch) the counter named [name] (module-initialization
    time, one per operation of interest). *)
let counter ?(help = "") name : counter =
  register counters
    (fun c -> c.ct_name)
    name
    (fun () -> { ct_name = name; ct_help = help; ct_total = 0 })

let bump c = if !on then c.ct_total <- c.ct_total + 1

let add c n = if !on && n > 0 then c.ct_total <- c.ct_total + n

let counter_total c = c.ct_total

(** All registered counters as [(name, total)], sorted by name. *)
let counter_totals () =
  List.sort compare (List.map (fun c -> (c.ct_name, c.ct_total)) !counters)

(* --- gauges (point-in-time samples) ------------------------------------- *)

(* The value sits in a float-only record, stored flat, so a sample is an
   unboxed store rather than a boxed-float allocation. *)
type sample = { mutable value : float }

type gauge = { g_name : string; g_help : string; g_v : sample }

let gauges : gauge list ref = ref []

(** Register (or fetch) the gauge named [name]. *)
let gauge ?(help = "") name : gauge =
  register gauges
    (fun g -> g.g_name)
    name
    (fun () -> { g_name = name; g_help = help; g_v = { value = 0. } })

let set g v = g.g_v.value <- v

let set_int g v = g.g_v.value <- float_of_int v

let gauge_value g = g.g_v.value

(* --- histograms (log-scale, fixed memory) ------------------------------- *)

(** Bucket [i] counts observations [v] with [le i-1 < v <= le i], where
    [le i = 2^i] — so bucket 0 holds [v <= 1], bucket 1 holds [2], bucket
    2 holds [3..4], and so on up to [2^62].  Power-of-two boundaries keep
    {!bucket_index} at a handful of integer ops (no floating point on the
    record path) and give ~2× resolution, plenty for latency steering. *)
let num_buckets = 63

(** Upper (inclusive) boundary of bucket [i]: [2^i]. *)
let bucket_le (i : int) : int = 1 lsl i

(** The bucket holding observation [v] (values [< 1] land in bucket 0,
    values beyond [2^62] in the last bucket). *)
let bucket_index (v : int) : int =
  if v <= 1 then 0
  else begin
    (* number of significant bits of v-1 = ceil(log2 v) for v >= 2 *)
    let x = ref (v - 1) and b = ref 0 in
    while !x > 0 do
      incr b;
      x := !x lsr 1
    done;
    min !b (num_buckets - 1)
  end

type histogram = {
  h_name : string;
  h_help : string;
  h_buckets : int array;  (** length {!num_buckets}; non-cumulative *)
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

let histograms : histogram list ref = ref []

(** Register (or fetch) the histogram named [name].  Observations are
    nanoseconds by convention (rendered fields carry the [_ns] suffix). *)
let histogram ?(help = "") name : histogram =
  register histograms
    (fun h -> h.h_name)
    name
    (fun () ->
      {
        h_name = name;
        h_help = help;
        h_buckets = Array.make num_buckets 0;
        h_count = 0;
        h_sum = 0;
        h_min = max_int;
        h_max = 0;
      })

let observe h v =
  if !on then begin
    let v = max 0 v in
    let i = bucket_index v in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end

let histogram_count h = h.h_count

let histogram_sum h = h.h_sum

(** [quantile h q] is the {!bucket_le} boundary of the bucket holding the
    [⌈q·count⌉]-th smallest observation — the least power-of-two [u] such
    that at least a [q] fraction of observations are [<= u] — or [0] for
    an empty histogram.  Exact on synthetic samples (the test suite's
    contract) and within 2× of the true quantile always. *)
let quantile (h : histogram) (q : float) : int =
  if h.h_count = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.h_count))) in
    let i = ref 0 and cum = ref 0 in
    while !cum < rank && !i < num_buckets do
      cum := !cum + h.h_buckets.(!i);
      if !cum < rank then incr i
    done;
    bucket_le (min !i (num_buckets - 1))
  end

(* --- extension sections ------------------------------------------------- *)

(** Layers below the pipeline (e.g. the hash-consing term store in
    [Belr_syntax], whose library this module cannot depend on) register a
    named section of report fields here at module-initialization time.
    Providers registered under the same section name are merged into one
    object, so the store and the substitution memo table — which live in
    different libraries — can contribute to a single ["store"] section.
    Providers are pure reads over always-on state: they are consulted only
    when a report is rendered, never on the hot path. *)

let sections : (string * (unit -> (string * Json.t) list)) list ref = ref []

let register_section name provider = sections := !sections @ [ (name, provider) ]

(** Sections with same-name providers merged, in registration order. *)
let section_reports () : (string * (string * Json.t) list) list =
  List.fold_left
    (fun acc (name, provider) ->
      let fields = provider () in
      if List.mem_assoc name acc then
        List.map (fun (n, f) -> if n = name then (n, f @ fields) else (n, f)) acc
      else acc @ [ (name, fields) ])
    [] !sections

(* --- spans -------------------------------------------------------------- *)

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

(* --- request correlation ------------------------------------------------ *)

let request_id = ref ""

(** Stamp every span recorded from now on with [rid] (the serve layer
    brackets each request with this; [""] clears it). *)
let set_request_id rid = request_id := rid

let clear_request_id () = request_id := ""

let current_request_id () = !request_id

(** Completed spans, oldest-first once the buffer wraps. *)
let default_capacity = 1 lsl 16

let ring : event array ref = ref [||]

let ring_next = ref 0 (* total events ever recorded *)

let depth = ref 0

let epoch = ref 0L (* monotonic stamp of the last [reset] *)

(** Per-phase aggregation, independent of the ring capacity. *)
type agg = { mutable ag_count : int; mutable ag_total_ns : int64 }

let aggregates : (string, agg) Hashtbl.t = Hashtbl.create 32

let root_total_ns = ref 0L (* total time covered by depth-0 spans *)

let ensure_ring () =
  if Array.length !ring = 0 then
    ring :=
      Array.init default_capacity (fun _ ->
          { ev_name = ""; ev_arg = ""; ev_start_ns = 0L; ev_dur_ns = 0L;
            ev_depth = 0; ev_rid = "" })

(** Clear all recorded state: events, aggregates, every counter, gauge
    and histogram (the registry itself — names, order — is kept), and the
    {!Limits} peak-depth watermarks; re-stamps the trace epoch.  Called
    only at the start of a run, never inside [serve]. *)
let reset () =
  ensure_ring ();
  ring_next := 0;
  depth := 0;
  Hashtbl.reset aggregates;
  root_total_ns := 0L;
  List.iter (fun c -> c.ct_total <- 0) !counters;
  List.iter (fun g -> g.g_v.value <- 0.) !gauges;
  List.iter
    (fun h ->
      Array.fill h.h_buckets 0 num_buckets 0;
      h.h_count <- 0;
      h.h_sum <- 0;
      h.h_min <- max_int;
      h.h_max <- 0)
    !histograms;
  Limits.reset_peaks ();
  epoch := now_ns ()

let record name arg start_ns dur_ns d =
  ensure_ring ();
  let r = !ring in
  let ev = r.(!ring_next mod Array.length r) in
  ev.ev_name <- name;
  ev.ev_arg <- arg;
  ev.ev_start_ns <- start_ns;
  ev.ev_dur_ns <- dur_ns;
  ev.ev_depth <- d;
  ev.ev_rid <- !request_id;
  incr ring_next;
  (let a =
     match Hashtbl.find_opt aggregates name with
     | Some a -> a
     | None ->
         let a = { ag_count = 0; ag_total_ns = 0L } in
         Hashtbl.replace aggregates name a;
         a
   in
   a.ag_count <- a.ag_count + 1;
   a.ag_total_ns <- Int64.add a.ag_total_ns dur_ns);
  if d = 0 then root_total_ns := Int64.add !root_total_ns dur_ns

(** [with_span ?arg name f] times [f ()] as a span named [name] (with
    optional detail [arg], e.g. the file or declaration being processed).
    The span is closed — and recorded — even when [f] raises, so a failed
    declaration under {!Diagnostics.recover} still contributes its time.
    When telemetry is disabled this is [f ()] after one flag check. *)
let with_span : 'a. ?arg:string -> string -> (unit -> 'a) -> 'a =
 fun ?(arg = "") name f ->
  if not !on then f ()
  else begin
    let d = !depth in
    depth := d + 1;
    let t0 = now_ns () in
    let finish () =
      let dur = Int64.sub (now_ns ()) t0 in
      depth := d;
      record name arg t0 dur d
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(** Completed spans in completion order (oldest first), oldest events
    dropped once the ring wraps. *)
let events () : event list =
  let r = !ring in
  let cap = Array.length r in
  if cap = 0 then []
  else begin
    let n = !ring_next in
    let first = if n > cap then n - cap else 0 in
    let out = ref [] in
    for i = n - 1 downto first do
      out := r.(i mod cap) :: !out
    done;
    !out
  end

let events_recorded () = !ring_next

let events_dropped () = max 0 (!ring_next - Array.length !ring)

(** [events_since mark] — completed spans recorded at or after position
    [mark] (an earlier {!events_recorded} reading), oldest first, plus a
    truncation flag: [true] when the ring wrapped past [mark], i.e. the
    oldest spans of the interval were overwritten and the list is
    partial.  This is how the serve layer extracts one request's span
    tree for slow-request logging without re-scanning the whole ring. *)
let events_since (mark : int) : event list * bool =
  let r = !ring in
  let cap = Array.length r in
  if cap = 0 then ([], mark < !ring_next)
  else begin
    let n = !ring_next in
    let oldest = max 0 (n - cap) in
    let first = max mark oldest in
    let out = ref [] in
    for i = n - 1 downto first do
      out := r.(i mod cap) :: !out
    done;
    (!out, mark < oldest)
  end

(* --- renderers ---------------------------------------------------------- *)

(** Completed spans recorded under [name] since the last {!reset}.  The
    serve layer reads deltas of this as its incremental-checking oracle
    ("how many "decl" spans did this request run?"). *)
let phase_count (name : string) : int =
  match Hashtbl.find_opt aggregates name with
  | Some a -> a.ag_count
  | None -> 0

let phase_rows () =
  Hashtbl.fold (fun name a acc -> (name, a.ag_count, a.ag_total_ns) :: acc)
    aggregates []
  |> List.sort (fun (_, _, a) (_, _, b) -> Int64.compare b a)

let pp_ns ppf (ns : int64) =
  let f = Int64.to_float ns in
  if f >= 1e9 then Fmt.pf ppf "%8.3f s " (f /. 1e9)
  else if f >= 1e6 then Fmt.pf ppf "%8.2f ms" (f /. 1e6)
  else if f >= 1e3 then Fmt.pf ppf "%8.2f µs" (f /. 1e3)
  else Fmt.pf ppf "%8Ld ns" ns

(** One report section as a titled table of its scalar fields: how
    [--stats] renders every section, and [--kernel-stats] the ["store"]
    one. *)
let pp_section ppf ((section, fields) : string * (string * Json.t) list) =
  Fmt.pf ppf "-- %s --@." section;
  List.iter
    (fun (name, v) ->
      match (v : Json.t) with
      | Json.Int i -> Fmt.pf ppf "   %-42s %12d@." name i
      | Json.Float f -> Fmt.pf ppf "   %-42s %12.3f@." name f
      | Json.String s -> Fmt.pf ppf "   %-42s %12s@." name s
      | Json.Bool b -> Fmt.pf ppf "   %-42s %12b@." name b
      | _ -> ())
    fields

(** The human [--stats] table: per-phase wall time (exclusive of nothing —
    parent spans include their children), counter totals, the {!Limits}
    peak-depth watermarks, and the sections. *)
let pp_stats ppf () =
  Fmt.pf ppf "== telemetry ==@.";
  Fmt.pf ppf "-- spans (wall time; parents include children) --@.";
  Fmt.pf ppf "   %-28s %10s %12s %12s@." "phase" "count" "total" "mean";
  List.iter
    (fun (name, count, total) ->
      let mean =
        if count = 0 then 0L else Int64.div total (Int64.of_int count)
      in
      Fmt.pf ppf "   %-28s %10d %a %a@." name count pp_ns total pp_ns mean)
    (phase_rows ());
  (match events_dropped () with
  | 0 -> ()
  | n ->
      Fmt.pf ppf
        "   (%d span event(s) beyond the trace buffer were dropped from \
         --trace output; aggregates above still include them)@."
        n);
  Fmt.pf ppf "-- counters --@.";
  List.iter
    (fun (name, total) ->
      if total > 0 then Fmt.pf ppf "   %-42s %12d@." name total)
    (counter_totals ());
  Fmt.pf ppf "-- peak recursion depths (of --max-depth %d) --@."
    !Limits.max_depth;
  List.iter
    (fun (name, peak) ->
      if peak > 0 then Fmt.pf ppf "   %-42s %12d@." name peak)
    (List.sort compare (Limits.peaks ()));
  List.iter (pp_section ppf) (section_reports ())

let us_of_ns (ns : int64) : float = Int64.to_float ns /. 1e3

(** The Chrome trace-event form of the recorded spans: complete ("X")
    events with microsecond timestamps relative to the {!reset} epoch,
    wrapped in the [{"traceEvents": [...]}] envelope Perfetto and
    [chrome://tracing] load directly. *)
let trace_truncation_warned = ref false

let trace_json () : Json.t =
  let dropped = events_dropped () in
  (* the ring wrapped: the trace timeline is missing its oldest spans.
     Warn once per process on stderr (aggregates are unaffected — say
     so), and stamp the truncation into the trace itself as an instant
     event so a shared artifact carries the caveat. *)
  if dropped > 0 && not !trace_truncation_warned then begin
    trace_truncation_warned := true;
    Fmt.epr
      "belr: warning: trace buffer wrapped; the %d oldest span event(s) \
       are missing from --trace output (per-phase aggregates still \
       include them)@."
      dropped
  end;
  let truncation_events =
    if dropped = 0 then []
    else
      [
        Json.Obj
          [
            ("name", Json.String "trace-truncated");
            ("cat", Json.String "belr");
            ("ph", Json.String "i");
            ("ts", Json.Float 0.0);
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ("s", Json.String "g");
            ("args", Json.Obj [ ("events_dropped", Json.Int dropped) ]);
          ];
      ]
  in
  let span_events =
    List.map
      (fun ev ->
        let arg_fields =
          (if ev.ev_arg = "" then []
           else [ ("detail", Json.String ev.ev_arg) ])
          @
          if ev.ev_rid = "" then []
          else [ ("request_id", Json.String ev.ev_rid) ]
        in
        let args =
          if arg_fields = [] then [] else [ ("args", Json.Obj arg_fields) ]
        in
        Json.Obj
          ([
             ("name", Json.String ev.ev_name);
             ("cat", Json.String "belr");
             ("ph", Json.String "X");
             ("ts", Json.Float (us_of_ns (Int64.sub ev.ev_start_ns !epoch)));
             ("dur", Json.Float (us_of_ns ev.ev_dur_ns));
             ("pid", Json.Int 1);
             ("tid", Json.Int 1);
           ]
          @ args))
      (events ())
  in
  let process_name =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.String "belr check") ]);
      ]
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List ((process_name :: truncation_events) @ span_events) );
      ("displayTimeUnit", Json.String "ms");
    ]

(** Schema identifier of {!profile_json}; bump on incompatible changes. *)
let profile_schema = "belr-profile/1"

(** The machine-readable [--profile] report: per-phase totals, counter
    totals, and peak-depth watermarks.  This is the stable format for the
    committed [BENCH_*.json] performance trajectory. *)
let profile_json () : Json.t =
  Json.Obj
    ([
      ("schema", Json.String profile_schema);
      ("total_ns", Json.Int (Int64.to_int !root_total_ns));
      ( "phases",
        Json.List
          (List.map
             (fun (name, count, total) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("count", Json.Int count);
                   ("wall_ns", Json.Int (Int64.to_int total));
                 ])
             (phase_rows ())) );
      ( "counters",
        Json.List
          (List.map
             (fun (name, total) ->
               Json.Obj
                 [ ("name", Json.String name); ("total", Json.Int total) ])
             (counter_totals ())) );
      ( "watermarks",
        Json.List
          (List.map
             (fun (name, peak) ->
               Json.Obj
                 [ ("name", Json.String name); ("peak_depth", Json.Int peak) ])
             (List.sort compare (Limits.peaks ()))) );
      ("events_recorded", Json.Int (events_recorded ()));
      ("events_dropped", Json.Int (events_dropped ()));
    ]
    @ List.map
        (fun (section, fields) -> (section, Json.Obj fields))
        (section_reports ()))


(** Schema identifier of {!metrics_json}; bump on incompatible changes. *)
let metrics_schema = "belr-metrics/1"

(** The [belr-metrics/1] report (the serve [metrics] method's result):
    every counter, gauge, and histogram, with p50/p90/p99 extracted and
    only non-empty buckets listed. *)
let metrics_json () : Json.t =
  let hist h =
    let buckets = ref [] in
    for i = num_buckets - 1 downto 0 do
      if h.h_buckets.(i) > 0 then
        buckets :=
          Json.Obj
            [
              ("le", Json.Int (bucket_le i));
              ("count", Json.Int h.h_buckets.(i));
            ]
          :: !buckets
    done;
    Json.Obj
      [
        ("name", Json.String h.h_name);
        ("count", Json.Int h.h_count);
        ("sum_ns", Json.Int h.h_sum);
        ("min_ns", Json.Int (if h.h_count = 0 then 0 else h.h_min));
        ("max_ns", Json.Int h.h_max);
        ("p50_ns", Json.Int (quantile h 0.50));
        ("p90_ns", Json.Int (quantile h 0.90));
        ("p99_ns", Json.Int (quantile h 0.99));
        ("buckets", Json.List !buckets);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String metrics_schema);
      ( "counters",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("name", Json.String c.ct_name);
                   ("value", Json.Int c.ct_total);
                 ])
             !counters) );
      ( "gauges",
        Json.List
          (List.map
             (fun g ->
               Json.Obj
                 [
                   ("name", Json.String g.g_name);
                   ("value", Json.Float g.g_v.value);
                 ])
             !gauges) );
      ("histograms", Json.List (List.map hist !histograms));
    ]

(** [belr_foo_bar] from [foo.bar-baz]: Prometheus-legal metric names. *)
let prom_name (name : string) : string =
  "belr_"
  ^ String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      name

let prom_float (v : float) : string =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

(** The Prometheus-style text exposition ([--metrics FILE]): counters as
    [_total]-suffixed counters, gauges as gauges, histograms in the
    standard cumulative [_bucket{le="…"}]/[_sum]/[_count] form. *)
let exposition () : string =
  let buf = Buffer.create 4096 in
  let header name kind help =
    if help <> "" then
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun c ->
      let n = prom_name c.ct_name in
      let n = if Filename.check_suffix n "_total" then n else n ^ "_total" in
      header n "counter" c.ct_help;
      Buffer.add_string buf (Printf.sprintf "%s %d\n" n c.ct_total))
    !counters;
  List.iter
    (fun g ->
      let n = prom_name g.g_name in
      header n "gauge" g.g_help;
      Buffer.add_string buf
        (Printf.sprintf "%s %s\n" n (prom_float g.g_v.value)))
    !gauges;
  List.iter
    (fun h ->
      let n = prom_name h.h_name in
      header n "histogram" h.h_help;
      let cum = ref 0 in
      let top =
        (* last non-empty bucket; emitting 63 zero rows per histogram
           would drown the exposition *)
        let t = ref (-1) in
        Array.iteri (fun i c -> if c > 0 then t := i) h.h_buckets;
        !t
      in
      for i = 0 to top do
        cum := !cum + h.h_buckets.(i);
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" n (bucket_le i) !cum)
      done;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n h.h_count);
      Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" n h.h_sum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n h.h_count))
    !histograms;
  Buffer.contents buf

(** Write the exposition to [path] (truncating); [Sys_error] escapes to
    the caller, which reports it as [E0701]. *)
let write_exposition (path : string) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (exposition ()))
