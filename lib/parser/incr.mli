(** The incremental engine behind [belr serve]: one source text, checked
    again and again as it is edited, into one signature.

    A {!check} re-submits the whole text.  The engine parses only the
    text between the unchanged prefix and suffix of the previous one,
    and reuses the entries outside it: the prefix's as they are, the
    suffix's relocated — each keeps its declaration as parsed plus a
    (bytes, lines) displacement, which the splice adds to.  It diffs the
    result against the previous text {e per declaration} (content hash
    over the declaration's source slice), and finds the candidates for
    re-checking: the edited, new and previously failed declarations,
    every declaration that mentions or declares a name one of them
    declares (transitively, via surface references —
    {!Ext.referenced_names}), and every declaration whose scope a
    reorder changed.  The walk over the name indexes, which the engine
    keeps and the splice updates, touches the candidates only.  The
    removed declarations and the seeds are retired from the signature
    ({!Belr_lf.Sign.retire}) and the candidates walked in order: a
    re-checked declaration takes its old ids back wherever its payload
    is α-equal to the old one, and a candidate none of whose mentioned
    names changed meaning is left (or put back) untouched instead of
    re-checked — the early cutoff, sound because checking reads other
    declarations only through the names it mentions (DESIGN.md §S23).
    Unchanged declarations keep their signature entries and ids, so the
    work done, and the memory allocated, track how far the edit's
    meaning reaches, not the file.

    {b Invariant.}  After [check t sink sg ~name src], the signature
    [sg] (up to the ids it assigns), the diagnostics in [sink], every
    {!analysis}, and every entry's key, hash, references and relocated
    declaration ({!decl}) equal those of a fresh check of [src] under
    [name] (a new [t] and an empty signature), whatever sequence of
    texts [t] checked before.  The edit-sequence property in
    [test/test_serve.ml] tests this after every edit. *)

open Belr_support
open Belr_lf

type entry = private {
  en_key : string;
      (** primary declared name + occurrence index (stable across edits
          of other declarations; duplicates get distinct keys) *)
  en_names : string list;  (** every name the declaration binds *)
  en_refs : string list;  (** every name it mentions (surface) *)
  en_worlds : string list;  (** the worlds it provides ({!Ext.world_names}) *)
  en_hash : int;  (** content hash of its source slice *)
  en_parsed : Ext.decl;
      (** the declaration as parsed, by this check or an earlier one: its
          locations are those of the text it was parsed from *)
  mutable en_bytes : int;
  mutable en_lines : int;
      (** how far its text moved since it was parsed: {!decl} *)
  mutable en_ok : bool;  (** did its last (re-)check succeed? *)
  mutable en_stamp : int;
      (** the number ({!checks}) of the check that last re-checked it —
          or left it marked failed when a deadline or the error cap cut
          the check short *)
  mutable en_pos : int;  (** its position in the text's declarations *)
  en_book : book;  (** what the engine keeps about it for itself *)
}

and book

(** An entry's declaration where it stands now: {!en_parsed} relocated
    by the displacement ({!Ext.shift_decl}), exactly what a full parse of
    the current text gives. *)
val decl : entry -> Ext.decl

(** The engine state: the last checked text and source name, its
    entries with their key table and name indexes, and the analysis
    caches. *)
type t

val create : unit -> t

(** Forget the text, its entries and the analysis caches (the check
    count goes on, so stamps stay increasing).  The caller resets the
    signature. *)
val reset : t -> unit

(** What a check did. *)
type report = {
  r_decls : int;  (** declarations in the text *)
  r_failed : int;  (** of which failed (or were left unchecked) *)
  r_rechecked : int;  (** declarations checked by this call *)
  r_reused : int;  (** declarations kept or restored unchanged *)
  r_deadline_hit : bool;
      (** the deadline or step budget ({!Limits.expired}) cut the walk
          short: the rest is marked failed and re-checks next time *)
}

(** Check [src], named [name] in its locations, into [sg], reporting to
    [sink], under the invariant above.  [sg] must be the signature of
    [t]'s previous checks (and the caller installs its session world).
    Runs the ["parse"] span and counts the declarations the parser
    produced on the [serve.parsed_decls] counter.  The error cap of
    [sink] can stop it mid-walk ({!Diagnostics.Stop}); [t] and [sg] are
    consistent then too, and the next check re-checks what was
    skipped. *)
val check :
  t -> Diagnostics.sink -> Sign.t -> name:string -> string -> report

(** Run [analyze] (a whole-signature analysis of [sg], reporting through
    [sink]) under the per-declaration cache for the analysis [name].  On
    a hit — every declaration's (key, content hash, check verdict,
    current location) unchanged since the cached run — the cached
    findings are replayed into [sink] and the cached result returned
    without re-running the analysis, so a warm reply is
    indistinguishable from a cold one.  The hit test compares the
    entries in place against the array the cached run stored, reading
    each location's displacement without relocating it, so a hit
    allocates nothing per declaration.  On a miss the analysis re-runs
    over the whole signature (the passes are signature folds, not
    per-declaration ones), after the locations [sg] records for the
    names of every declaration that moved since they were recorded are
    brought up to date: a check leaves them as they were, since only the
    analyzers read them.  Returns [(result,
    rechecked, reused)]: on a miss [rechecked] counts the declarations
    some check has re-checked since the cached run (stamped later than
    it) — the union of what those checks re-checked, a measure of the
    edits in between, not of the analysis's own work — and [reused] the
    rest, mirroring {!report}.  With no cached run every declaration
    counts; a hit counts all as reused. *)
val analysis :
  t ->
  Diagnostics.sink ->
  Sign.t ->
  string ->
  (unit -> Json.t) ->
  Json.t * int * int

(** {1 Inspection} *)

(** The entries of the last check, in declaration order: the ones it
    reused are the previous check's records, relocated — read their
    declarations through {!decl}. *)
val entries : t -> entry list

(** The checks run so far: the last one stamped its re-checked entries
    with this number. *)
val checks : t -> int

(** The entries of a full parse of [src]. *)
val entry_list : string -> Ext.decl list -> entry list

(** The entries the last {!check}'s invalidation walk reached, in
    declaration order: its candidates for re-checking.  An entry is a
    seed, which re-checks whatever happens, when:
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
    only if a name it mentions changed meaning.  One walk from the seeds
    and the removed entries over the name → entries indexes of
    [en_names], [en_refs] and [en_worlds], which the engine keeps;
    DESIGN.md §S23 argues that this is sound, and the edit-sequence
    property compares these entries with a reference rule's. *)
val candidates : t -> entry list

(** The engine's own indexes and key table, as {!check} updates them,
    equal to those built afresh from its entries: [Error] names the
    first difference. *)
val consistent : t -> (unit, string) result

(** The cut of [d] in [src]: the start of the line holding its first
    token — the keyword introducing it — provided only blanks precede
    that keyword on its line.  No token and no [%] comment spans a line
    break, so lexing [src] up to the cut yields the tokens of everything
    before [d], and lexing from it yields [d]'s and everything after.
    [None] when the keyword shares its line with earlier text, or is not
    where a declaration of [d]'s kind puts it (a comment between keyword
    and name). *)
val decl_cut : string -> Ext.decl -> int option
