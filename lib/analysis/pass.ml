(** The reusable analysis-pass framework behind [belr lint].

    A pass is a named analysis over a checked signature that reports its
    findings through the shared {!Belr_support.Diagnostics.sink} — the
    same sink the checking pipeline used, so one run yields one unified,
    deduplicated diagnostic stream and one exit code.

    Passes run under {!Belr_support.Diagnostics.recover}: a crashing pass
    becomes a [B0002] bug diagnostic (exit code 2), never a lost run, and
    the remaining passes still execute.  Each pass is timed under a
    [lint:<name>] telemetry span so [--stats]/[--profile] break analysis
    time down per pass.

    Every pass receives the run's {!Facts}: the signature's entries in
    id order and its subordination relation, each computed once per run
    (the relation kept across runs of a session), so no pass sorts the
    signature or re-runs the closure itself. *)

open Belr_support

type t = {
  p_name : string;  (** short stable name, e.g. ["subord"] *)
  p_doc : string;  (** one-line description for [-v] listings *)
  p_run : Belr_lf.Sign.t -> Facts.t -> Diagnostics.sink -> unit;
}

let findings_so_far sink =
  Diagnostics.error_count sink + Diagnostics.warning_count sink

(** Run every pass in order over [sg] and its [facts], emitting
    into [sink]; returns the per-pass finding counts (errors + warnings
    attributed to that pass), in pass order.  When the [--max-errors] cap
    trips ({!Diagnostics.Stop}), the remaining passes are skipped and a
    final [E0002] note is emitted, as in the checking pipeline; the counts
    then cover the passes that ran, the tripping one included. *)
let run_all (passes : t list) (sg : Belr_lf.Sign.t) (facts : Facts.t)
    (sink : Diagnostics.sink) : (string * int) list =
  let counts = ref [] in
  let run p =
    let before = findings_so_far sink in
    Fun.protect
      ~finally:(fun () ->
        counts := (p.p_name, findings_so_far sink - before) :: !counts)
      (fun () ->
        Telemetry.with_span ("lint:" ^ p.p_name) (fun () ->
            ignore (Diagnostics.recover sink (fun () -> p.p_run sg facts sink))))
  in
  Diagnostics.with_stop sink (fun () -> List.iter run passes);
  List.rev !counts
