(** Resource guards for the unbounded recursions of the checker.

    Hereditary substitution, η-expansion, and unification all terminate on
    well-formed inputs, but adversarial or ill-typed inputs can drive them
    arbitrarily deep.  Rather than crash with [Stack_overflow] (or hang),
    each such recursion threads a {!counter} through {!guard}, which
    raises {!Limit_exceeded} once the configurable {!max_depth} is passed.
    The diagnostics engine renders that exception as the stable [E0901]
    "resource limit exceeded" error and recovers at the declaration
    boundary.

    The limit is a single process-wide knob (the CLI's [--max-depth]); the
    per-subsystem counters exist so the rendered diagnostic can name the
    recursion that blew up.

    Two further guards serve the long-running daemon ([belr serve]),
    where "deep" is not the only way a request can run away — it can also
    be {e slow}:

    - a {e wall-clock deadline} ({!arm_deadline}): {!poll} raises
      {!Deadline_exceeded} once the monotonic clock passes it.  Every
      {!guard} polls, so any guarded recursion is interruptible; the
      clock is only read every {!poll_mask}+1 polls, keeping the hot path
      at an integer increment.
    - a {e step budget} ({!set_step_budget}): a hard cap on guarded calls
      per request, for callers that want determinism independent of
      machine speed.

    Both render as the stable [E0903] diagnostic and are cleared between
    requests; neither is armed in batch mode.

    Counter depths and peaks are process-global by default.  A daemon
    hosting several independent sessions snapshots them into a {!state}
    per session ({!capture}/{!install}), so one session's depth-guard
    trip or peak watermarks cannot leak into another's telemetry. *)

let default_max_depth = 10_000

let max_depth = ref default_max_depth

(** Set the depth budget shared by every guarded recursion (clamped to be
    at least 1). *)
let set_max_depth n = max_depth := max 1 n

exception Limit_exceeded of string * int
(** [Limit_exceeded (subsystem, limit)]: the named recursion passed
    [limit] nested guarded calls. *)

type counter = {
  c_name : string;
  mutable c_depth : int;
  mutable c_peak : int;
      (** high-water mark of [c_depth] since the last {!reset_peaks};
          reported by the telemetry layer as a fraction of the budget *)
}

let registry : counter list ref = ref []

(** Register a named depth counter (one per guarded subsystem). *)
let counter name =
  let c = { c_name = name; c_depth = 0; c_peak = 0 } in
  registry := c :: !registry;
  c

(** Reset every counter's depth to zero (peaks are kept — they are run
    statistics, not budget state).  Error recovery calls this after
    catching an exception so that a partially-unwound recursion cannot
    poison the depth budget of the next declaration. *)
let reset () = List.iter (fun c -> c.c_depth <- 0) !registry

(** Clear the peak-depth watermarks (start of a telemetry run). *)
let reset_peaks () = List.iter (fun c -> c.c_peak <- 0) !registry

(** Peak observed depth per guarded subsystem, as [(name, peak)]. *)
let peaks () = List.map (fun c -> (c.c_name, c.c_peak)) !registry

(* --- wall-clock deadlines and step budgets ---------------------------- *)

(* The one binding of the monotonic clock (clock_stubs.c): deadlines,
   and Telemetry's spans and log lines, read it. *)
external now_ns : unit -> int64 = "belr_monotonic_clock_ns"

exception Deadline_exceeded of int
(** [Deadline_exceeded ms]: the request's wall-clock deadline of [ms]
    milliseconds passed mid-computation.  Rendered as [E0903]. *)

exception Budget_exceeded of int
(** [Budget_exceeded n]: the request performed more than [n] guarded
    steps.  Rendered as [E0903]. *)

(* Process-lifetime monotone count of resource-guard trips (depth limit,
   step budget, wall-clock deadline).  The metrics layer exports it as the
   [limits.trips] gauge, so a fleet operator sees guard pressure without
   parsing per-reply diagnostics. *)
let trips = ref 0

let trip_count () = !trips

(** Count a resource-guard trip recorded outside this module (e.g. the
    evaluator's fuel check). *)
let trip () = incr trips

(* --- evaluation fuel ---------------------------------------------------- *)

exception Fuel_exhausted of int
(** [Fuel_exhausted n]: the evaluator performed more than [n] steps.
    Rendered as the stable [E0905] diagnostic. *)

let default_eval_fuel = 1_000_000

let eval_fuel = ref default_eval_fuel

(** Set the evaluation step budget (the CLI's [--max-eval-steps]; clamped
    to be at least 1). *)
let set_eval_fuel n = eval_fuel := max 1 n

let eval_fuel_limit () = !eval_fuel

let deadline : int64 option ref = ref None

let deadline_ms_armed = ref 0

let step_budget : int option ref = ref None

let steps = ref 0

(** Clock reads happen once per [poll_mask + 1] polls (a power of two). *)
let poll_mask = 255

(** Arm a wall-clock deadline [ms] milliseconds from now and restart the
    step count.  [ms <= 0] means "already expired" (useful for tests). *)
let arm_deadline ~ms =
  deadline := Some (Int64.add (now_ns ()) (Int64.mul (Int64.of_int ms) 1_000_000L));
  deadline_ms_armed := ms;
  steps := 0

(** Cap guarded steps until the next {!clear_deadline}. *)
let set_step_budget n =
  step_budget := Some (max 1 n);
  steps := 0

(** Disarm both the deadline and the step budget (end of a request). *)
let clear_deadline () =
  deadline := None;
  step_budget := None;
  steps := 0

(** Has the armed deadline passed?  (Unconditional clock read — for
    coarse boundaries such as "before the next declaration", not hot
    loops.)  [false] when no deadline is armed. *)
let expired () =
  match !deadline with
  | Some d -> Int64.compare (now_ns ()) d > 0
  | None -> false

(** One guarded step: count it against the budget and, periodically,
    against the clock.  Called by every {!guard}; safe (and cheap) to
    call from any long-running loop that wants to be interruptible. *)
let poll () =
  let n = !steps + 1 in
  steps := n;
  (match !step_budget with
  | Some b when n > b ->
      incr trips;
      raise (Budget_exceeded b)
  | _ -> ());
  if n land poll_mask = 0 && expired () then begin
    incr trips;
    raise (Deadline_exceeded !deadline_ms_armed)
  end

(* --- per-session counter state ---------------------------------------- *)

(** A saved image of every registered counter's depth and peak.  A fresh
    state is all-zero; {!capture} overwrites it from the live counters and
    {!install} writes it back (zeroing counters registered since the
    capture), so a daemon can give each session its own depth/peak world
    while {!guard} keeps its single-word hot path. *)
type state = { mutable saved : (counter * int * int) list }

let fresh_state () = { saved = [] }

(** Save the live depths and peaks into [st]. *)
let capture st =
  st.saved <- List.map (fun c -> (c, c.c_depth, c.c_peak)) !registry

(** Make [st] the live counter world. *)
let install st =
  List.iter
    (fun c ->
      c.c_depth <- 0;
      c.c_peak <- 0)
    !registry;
  List.iter
    (fun (c, d, p) ->
      c.c_depth <- d;
      c.c_peak <- p)
    st.saved

(** Zero a saved state (session reset). *)
let clear_state st = st.saved <- []

(** [guard c f] runs [f ()] with [c] one level deeper, raising
    {!Limit_exceeded} when the budget is exhausted (and
    {!Deadline_exceeded}/{!Budget_exceeded} via {!poll} when a request
    deadline or step budget is armed).  The counter is restored even when
    [f] raises, so fail-fast callers that catch the error keep an
    accurate depth. *)
let guard c f =
  poll ();
  if c.c_depth >= !max_depth then begin
    incr trips;
    raise (Limit_exceeded (c.c_name, !max_depth))
  end;
  let d = c.c_depth + 1 in
  c.c_depth <- d;
  if d > c.c_peak then c.c_peak <- d;
  match f () with
  | r ->
      c.c_depth <- d - 1;
      r
  | exception e ->
      c.c_depth <- d - 1;
      raise e
