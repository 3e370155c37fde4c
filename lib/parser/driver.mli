(** The fault-tolerant checking driver behind [belr check].

    Lives in the library (rather than [bin/]) so the diagnostics story —
    multi-error reporting, per-declaration recovery, resource guards, exit
    codes — is testable without spawning the executable.  All diagnostics
    flow through one {!Belr_support.Diagnostics.sink}; the caller renders
    them (the CLI dumps to stderr, keeping stdout machine-readable) and
    maps the sink to an exit code. *)

open Belr_support

(** Read a file, closing the channel even on exception.  A missing or
    unreadable file becomes an [E0701] diagnostic naming the file, not an
    uncaught [Sys_error]. *)
val read_file : Diagnostics.sink -> string -> string option

(** Check named sources in order (later sources see the declarations of
    earlier ones), recovering per declaration; always returns the
    signature accumulated so far, even after the [--max-errors] cap. *)
val check_sources : Diagnostics.sink -> (string * string) list -> Belr_lf.Sign.t

(** Check files from disk; unreadable files are reported and skipped. *)
val check_files : Diagnostics.sink -> string list -> Belr_lf.Sign.t

(** {1 The analysis registry} *)

(** What one analyzer run yields beyond its diagnostics (which go to the
    shared sink): its own report sections, its serve reply payload, and
    its [-v] listing — each built only when a caller asks for it. *)
type outcome = {
  sections : (string * Json.t) list Lazy.t;
      (** the [belr-<name>/1] report sections between [files] and
          [findings] *)
  reply : Json.t Lazy.t;  (** the serve reply's [result] *)
  listing : unit Fmt.t;  (** the [-v] listing *)
}

(** One whole-signature analyzer.  [name] is at once the CLI subcommand,
    the [check --<name>] flag, the serve method, the telemetry span, the
    serve cache key and the [belr-<name>/1] schema id. *)
type analysis = {
  name : string;
  doc : string;  (** what the analyzer checks, for the CLI help *)
  past : string;  (** the CLI's success line: "N file(s) <past>: …" *)
  run : Belr_lf.Sign.t -> Belr_analysis.Facts.t -> Diagnostics.sink -> outcome;
}

(** The signature analyses (subordination, adequacy, sorts, unused
    declarations, shadowing); [passes] selects them ([--only]/[--skip]).
    The pass runner absorbs the error cap itself, so the per-pass counts
    cover the passes that ran. *)
val lint_analysis : ?passes:Belr_analysis.Pass.t list -> unit -> analysis

(** The totality analyzer (the paper's §6.1 future work): size-change
    termination and deep coverage; [depth] bounds coverage splitting,
    [budget] the size-change closure. *)
val total_analysis : ?depth:int -> ?budget:int -> unit -> analysis

(** The regular-worlds + strictness analyzer ([%block] / [%worlds],
    DESIGN.md §S25); [check_strict] runs the strict-occurrence pass. *)
val worlds_analysis : ?check_strict:bool -> unit -> analysis

(** The mode & uniqueness analyzer ([%mode], DESIGN.md §S27). *)
val modes_analysis : unit -> analysis

(** The registry, with default options, in the order [belr check] runs
    its analyzers. *)
val analyses : analysis list

(** Run [analyses] in order over a checked signature, reporting through
    the {e same} sink the checking pipeline used — one diagnostic stream,
    one exit code.  Each runs under its [name] span; the facts they read
    (subordination, call graph) are computed at most once for all of
    them. *)
val run_analyses :
  analysis list -> Diagnostics.sink -> Belr_lf.Sign.t -> outcome list

val run_analysis : analysis -> Diagnostics.sink -> Belr_lf.Sign.t -> outcome

(** The [belr-<name>/1] report of one run: the shared envelope (schema,
    files, findings, summary, exit code) around the analyzer's own
    sections.  [findings] carries {e every} diagnostic in the sink, the
    checking ones included. *)
val report_json :
  files:string list -> Diagnostics.sink -> analysis -> outcome -> Json.t

(** {1 Session-scoped entry points}

    The same entry points, but run inside an explicit
    {!Belr_lf.Session.t} world: the session's own store arenas, memo
    tables, and limit counters are installed for the duration of the call
    and the result signature is recorded as the session's signature.
    These are what [belr serve] and any embedding host should call;
    the plain functions above keep the process-global world and remain
    the batch CLI's path. *)

val check_sources_in :
  Belr_lf.Session.t -> Diagnostics.sink -> (string * string) list -> Belr_lf.Sign.t

(** Run one analyzer over the session's signature.  The subordination
    relation the session's previous run left is reused while the family
    ids and generating edges are unchanged (DESIGN.md §S28), and the
    relation this run reads is kept for the next one. *)
val run_analysis_in :
  analysis -> Belr_lf.Session.t -> Diagnostics.sink -> outcome

(** One-line aliases of {!run_analysis_in}, kept for the benchmark
    harness. *)

val lint_in : Belr_lf.Session.t -> Diagnostics.sink -> outcome

val total_in : Belr_lf.Session.t -> Diagnostics.sink -> outcome

val worlds_in : Belr_lf.Session.t -> Diagnostics.sink -> outcome

val modes_in : Belr_lf.Session.t -> Diagnostics.sink -> outcome
