(** The structured event log: one JSON object per line, leveled, with a
    bounded emission rate ([--log FILE]/[--log-level] on the CLI).

    Every line carries a monotonic [ts_ns] timestamp, a [level], an
    [event] name, and the caller's fields — for the serve daemon, one
    [serve.request] line per request with the request id, method,
    session, status, duration, and incremental-checking counts, so a
    fleet operator can join log lines to replies and trace spans on
    [request_id] (DESIGN.md §S24).

    {b Bounded rate.}  At most {!max_per_window} lines per monotonic
    second are written; lines beyond the cap are counted in {!dropped}
    (exported as the [log.dropped] gauge) rather than allowed to turn a
    request flood into an I/O flood.  [Warn]/[Error] lines flush the
    channel eagerly (they are what a post-mortem needs); [Info]/[Debug]
    ride the channel buffer and are flushed by {!close} or the next
    eager line.

    Disabled (no output channel installed — the default) every entry
    point is one comparison, and building the fields list is the only
    allocation the call site pays. *)

external now_ns : unit -> int64 = "belr_monotonic_clock_ns"

type level = Debug | Info | Warn | Error

let level_label = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let out : out_channel option ref = ref None

let min_level = ref Info

let set_level l = min_level := l

(** Lines-per-second cap; {!set_rate} clamps to at least 1. *)
let default_max_per_window = 2000

let max_per_window = ref default_max_per_window

let set_rate n = max_per_window := max 1 n

let window_start = ref 0L

let in_window = ref 0

let n_dropped = ref 0

let dropped () = !n_dropped

(** Install [oc] as the log destination (the caller owns opening it;
    {!close} flushes and forgets it without closing stdio channels it
    does not own). *)
let set_output (oc : out_channel option) =
  out := oc;
  window_start := now_ns ();
  in_window := 0

let close () =
  (match !out with Some oc -> (try flush oc with Sys_error _ -> ()) | None -> ());
  out := None

let enabled () = !out <> None

(** Does a line at [l] pass the level gate and the rate window?  Counts
    the drop when it does not. *)
let admit (l : level) : bool =
  match !out with
  | None -> false
  | Some _ ->
      if rank l < rank !min_level then false
      else begin
        let t = now_ns () in
        if Int64.sub t !window_start >= 1_000_000_000L then begin
          window_start := t;
          in_window := 0
        end;
        if !in_window >= !max_per_window then begin
          incr n_dropped;
          false
        end
        else begin
          incr in_window;
          true
        end
      end

(** Emit one event line.  [fields] follow the standard [ts_ns]/[level]/
    [event] triple; writing is total — an I/O error (disk full, closed
    pipe) disables the log rather than killing the request. *)
let event ?(level = Info) (name : string) (fields : (string * Json.t) list)
    : unit =
  if admit level then
    match !out with
    | None -> ()
    | Some oc -> (
        let line =
          Json.to_string ~compact:true
            (Json.Obj
               ([
                  ("ts_ns", Json.Int (Int64.to_int (now_ns ())));
                  ("level", Json.String (level_label level));
                  ("event", Json.String name);
                ]
               @ fields))
        in
        try
          output_string oc line;
          output_char oc '\n';
          if rank level >= rank Warn then flush oc
        with Sys_error _ -> out := None)
