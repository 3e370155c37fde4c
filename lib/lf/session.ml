(** A session: one isolated checking world.

    The kernel keeps five pieces of ambient mutable state — the
    hash-consing store ({!Belr_syntax.Store.state}), the hereditary
    substitution memo tables ({!Hsub.tables}), the weak-head
    normalization memo tables ({!Whnf.tables}), the equality fast-path
    counts ([Belr_syntax.Equal.phys_hits]/[phys_misses]), and the
    {!Belr_support.Limits} depth counters — plus the signature Σ, which
    is already a first-class value ({!Sign.t}).  A [Session.t] packs all
    six, and {!with_} brackets a computation so that world is installed
    for its duration and restored afterwards (exceptions included).

    Invariants (DESIGN.md §S23):

    - {e no cross-session sharing}: terms interned in one session's store
      are never representatives in another's; memo entries, intern
      statistics, and depth peaks are all per-session.  Unique term ids
      stay process-global and monotone, which is exactly what keeps a
      session's memo sound across {!reset} and store clears.
    - {e crash-only}: a session damaged by a mid-declaration exception is
      safe to {!reset} (or simply drop) — nothing it built is reachable
      from any other session, so discarding it cannot dangle.
    - installation is not reentrant per session: [with_ s] inside
      [with_ s] would capture [s]'s live counters as the "outer" world;
      the single-threaded serve loop never nests sessions.

    Batch runs ([belr check] etc.) never construct a session; they run in
    the boot store/memo state and behave exactly as before. *)

open Belr_support
open Belr_syntax

(** What an analysis library derives from the session's signature and
    keeps between runs, to reuse while its inputs are unchanged (the
    library that defines it extends this type: this one cannot name it).
    {!reset} and {!drop_caches} forget it. *)
type facts = ..

type t = {
  mutable sn_sign : Sign.t;
  mutable sn_store : Store.state;
  mutable sn_hsub : Hsub.tables;
  mutable sn_whnf : Whnf.tables;
  mutable sn_phys_hits : int;
  mutable sn_phys_misses : int;
  sn_limits : Limits.state;
  mutable sn_facts : facts option;
}

let create () =
  {
    sn_sign = Sign.create ();
    sn_store = Store.fresh_state ();
    sn_hsub = Hsub.fresh_tables ();
    sn_whnf = Whnf.fresh_tables ();
    sn_phys_hits = 0;
    sn_phys_misses = 0;
    sn_limits = Limits.fresh_state ();
    sn_facts = None;
  }

let sign s = s.sn_sign

(** Run [f] inside session [s]: install its store, memo tables, and
    equality and limit counters; on the way out (normal or exceptional),
    save the counters back into [s] and restore the previous world. *)
let with_ (s : t) (f : unit -> 'a) : 'a =
  let prev_store = Store.current_state () in
  let prev_hsub = Hsub.current_tables () in
  let prev_whnf = Whnf.current_tables () in
  let outer_limits = Limits.fresh_state () in
  Limits.capture outer_limits;
  Store.use_state s.sn_store;
  Hsub.use_tables s.sn_hsub;
  Whnf.use_tables s.sn_whnf;
  let outer_hits = !Equal.phys_hits and outer_misses = !Equal.phys_misses in
  Equal.phys_hits := s.sn_phys_hits;
  Equal.phys_misses := s.sn_phys_misses;
  Limits.install s.sn_limits;
  Fun.protect
    ~finally:(fun () ->
      Limits.capture s.sn_limits;
      s.sn_phys_hits <- !Equal.phys_hits;
      s.sn_phys_misses <- !Equal.phys_misses;
      Equal.phys_hits := outer_hits;
      Equal.phys_misses := outer_misses;
      Store.use_state prev_store;
      Hsub.use_tables prev_hsub;
      Whnf.use_tables prev_whnf;
      Limits.install outer_limits)
    f

(** Discard everything the session holds and start over with an empty
    signature and fresh store/memo/limit state (the crash-only rebuild
    path, and the [reset] protocol request). *)
let reset (s : t) : unit =
  s.sn_sign <- Sign.create ();
  s.sn_store <- Store.fresh_state ();
  s.sn_hsub <- Hsub.fresh_tables ();
  s.sn_whnf <- Whnf.fresh_tables ();
  s.sn_phys_hits <- 0;
  s.sn_phys_misses <- 0;
  s.sn_facts <- None;
  Limits.clear_state s.sn_limits

(** Drop the session's kernel caches but keep its signature (the serve
    memory-pressure reset): clear the store's arenas and metadata in
    place, and empty both memo worlds, whose entries hold pre-clear
    nodes alive.  Sharing is lost, soundness is not: the signature's
    terms outlive the clear as unshared nodes ([Equal] falls back to
    structure, metadata is recomputed on first query), and ids stay
    monotone, so no memo key can name a post-clear node by mistake.
    Intern and memo hit counters are kept.  The kept analysis facts go
    too: a memory-pressure reset keeps nothing it can rebuild. *)
let drop_caches (s : t) : unit =
  s.sn_facts <- None;
  with_ s (fun () ->
      Store.store_clear ();
      Hsub.clear_memo ();
      Whnf.clear_memo ())

(** Live interned nodes in the session's store (the memory-pressure
    watermark input).  Must be called outside {!with_}[ s] brackets only
    if no other session is installed; the serve loop calls it inside. *)
let store_live () : int = (Lf.store_stats ()).Lf.st_live
