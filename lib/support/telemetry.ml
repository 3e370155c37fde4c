external now_ns : unit -> int64 = "belr_monotonic_clock_ns"

let on = ref false

let enabled () = !on

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

let counter ?(help = "") name : counter =
  register counters
    (fun c -> c.ct_name)
    name
    (fun () -> { ct_name = name; ct_help = help; ct_total = 0 })

let bump c = if !on then c.ct_total <- c.ct_total + 1

let add c n = if !on && n > 0 then c.ct_total <- c.ct_total + n

let counter_total c = c.ct_total

let counter_totals () =
  List.sort compare (List.map (fun c -> (c.ct_name, c.ct_total)) !counters)

(* --- gauges (point-in-time samples) ------------------------------------- *)

(* The value sits in a float-only record, stored flat, so a sample is an
   unboxed store rather than a boxed-float allocation. *)
type sample = { mutable value : float }

type gauge = { g_name : string; g_help : string; g_v : sample }

let gauges : gauge list ref = ref []

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

let bucket_le (i : int) : int = 1 lsl i

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

let sections : (string * (unit -> (string * Json.t) list)) list ref = ref []

let register_section name provider = sections := !sections @ [ (name, provider) ]

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
  mutable ev_arg : string;
  mutable ev_start_ns : int64;
  mutable ev_dur_ns : int64;
  mutable ev_depth : int;
  mutable ev_rid : string;
}

(* --- request correlation ------------------------------------------------ *)

let request_id = ref ""

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


let metrics_schema = "belr-metrics/1"

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

let write_exposition (path : string) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (exposition ()))
