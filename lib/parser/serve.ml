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
    the engine diffs it against the session's previous text {e per
    declaration} (content hash over the declaration's source slice) and
    re-checks only the invalidation closure of the edited declarations:
    the declarations themselves, everything referencing their names
    (transitively, via surface references — {!Ext.referenced_names}),
    everything downstream in the subordination order
    ({!Belr_analysis.Subord.dependents} — [a ≼ b] means [a]-terms occur
    in [b]-terms, so an edit to [a] can change [b]'s meaning), members of
    the same [rec … and …] group (a group elaborates as one declaration),
    and every declaration that previously failed (so an erroneous-then-
    fixed edit fully recovers).  Unchanged declarations keep their
    signature entries — ids are stable under {!Belr_lf.Sign.retract_names}
    — so the work done is proportional to the edit, not the file. *)

open Belr_support
open Belr_syntax
open Belr_lf
module J = Json

let schema_id = "belr-serve/1"

(* --- per-declaration incremental records ------------------------------- *)

type entry = {
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
          last found it invalid — and re-checked it, or left it marked
          failed when a deadline or the error cap cut the check short *)
}

type analysis_cache = {
  ac_sig : (string * int * bool) list;
      (** (key, content hash, last-check verdict) per declaration when
          the analysis ran — the cache is valid iff this still matches *)
  ac_stamp : int;
      (** [ss_checks] when the analysis ran: the entries stamped later
          are the ones a miss reports as re-analyzed *)
  ac_result : J.t;
  ac_diags : Diagnostics.t list;
      (** the findings the analysis emitted, replayed on a cache hit so
          a warm reply is indistinguishable from a cold one *)
}
(** A whole-signature analysis result (one per {!Driver.analyses}
    entry) memoized per declaration content-hash: a warm request over an
    unedited signature replays the cached reply instead of re-running
    the analyzer. *)

type session = {
  ss_name : string;
  ss_core : Session.t;
  mutable ss_entries : entry list;  (** declaration order *)
  mutable ss_text : string;  (** the last submitted source text *)
  mutable ss_parse_ok : bool;
      (** the last parse was error-free (precondition for reusing its
          declarations across the unchanged text prefix) *)
  mutable ss_checks : int;
      (** session checks run so far: the stamp source of [en_stamp] *)
  ss_caches : (string, analysis_cache) Hashtbl.t;
      (** keyed by analysis name *)
}

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

(* --- the metrics registry (DESIGN.md §S24) ------------------------------ *)

(* Registered once at module load (the registry is idempotent anyway);
   recording is a flag check when metrics are off. *)
let m_requests =
  Metrics.counter ~help:"serve requests handled (all methods)"
    "serve.requests"

let m_protocol_errors =
  Metrics.counter ~help:"malformed or rejected serve requests (E0904)"
    "serve.protocol_errors"

let m_replies_ok = Metrics.counter ~help:"replies with status ok" "serve.replies.ok"

let m_replies_degraded =
  Metrics.counter ~help:"replies with status degraded" "serve.replies.degraded"

let m_replies_error =
  Metrics.counter ~help:"replies with status error" "serve.replies.error"

let m_decls_rechecked =
  Metrics.counter ~help:"declarations re-checked by the incremental engine"
    "serve.decls.rechecked"

let m_decls_reused =
  Metrics.counter ~help:"declarations reused by the incremental engine"
    "serve.decls.reused"

(** Every serve method: [check], one per {!Driver.analyses} entry, then
    the session and server-wide methods. *)
let methods =
  ("check" :: List.map (fun a -> a.Driver.name) Driver.analyses)
  @ [ "reset"; "metrics"; "health" ]

(** ["check, lint, …, or health"], for the unknown-method rejection. *)
let expected_methods =
  match List.rev methods with
  | last :: rest -> String.concat ", " (List.rev rest) ^ ", or " ^ last
  | [] -> ""

(** Per-method latency histograms; the [serve.check] p50/p99 is the
    headline number the bench overhead gate (E9) reads back. *)
let m_method_hist : (string * Metrics.histogram) list =
  List.map
    (fun m ->
      ( m,
        Metrics.histogram
          ~help:(Printf.sprintf "latency of serve %s requests (ns)" m)
          ("serve." ^ m) ))
    methods

let g_sessions = Metrics.gauge ~help:"live serve sessions" "serve.sessions"

let g_pressure_resets =
  Metrics.gauge ~help:"watermark-triggered session store resets"
    "serve.pressure_resets"

let g_deadline_overruns =
  Metrics.gauge ~help:"requests degraded by a deadline or step budget"
    "serve.deadline_overruns"

let g_store_live = Metrics.gauge ~help:"live interned store nodes" "store.live"

let g_store_interned =
  Metrics.gauge ~help:"total interned store nodes" "store.interned"

let g_store_dedup =
  Metrics.gauge ~help:"store dedup ratio (hits / lookups)" "store.dedup_ratio"

let g_whnf_hits =
  Metrics.gauge ~help:"whnf memo hits" "whnf.memo_hits"

let g_whnf_misses =
  Metrics.gauge ~help:"whnf memo misses" "whnf.memo_misses"

let g_whnf_forced =
  Metrics.gauge ~help:"delayed substitutions forced by whnf" "whnf.forced"

let g_whnf_eager =
  Metrics.gauge ~help:"whnf eager fallbacks to full substitution"
    "whnf.eager"

let g_gc_heap = Metrics.gauge ~help:"GC heap words" "gc.heap_words"

let g_gc_top_heap =
  Metrics.gauge ~help:"GC top heap words (peak)" "gc.top_heap_words"

let g_gc_minor =
  Metrics.gauge ~help:"GC minor collections" "gc.minor_collections"

let g_gc_major =
  Metrics.gauge ~help:"GC major collections" "gc.major_collections"

let g_limit_trips =
  Metrics.gauge ~help:"resource-guard trips (depth/deadline/budget)"
    "limits.trips"

let g_tele_dropped =
  Metrics.gauge ~help:"telemetry span events dropped by the ring buffer"
    "telemetry.events_dropped"

let g_log_dropped =
  Metrics.gauge ~help:"log lines dropped by the rate bound" "log.dropped"

let create ?deadline_ms ?(max_depth = Limits.default_max_depth)
    ?(max_errors = 64) ?watermark ?slow_ms () : t =
  Metrics.set_enabled true;
  {
    sv_sessions = Hashtbl.create 8;
    sv_deadline_ms = deadline_ms;
    sv_max_depth = max_depth;
    sv_max_errors = max_errors;
    sv_watermark = watermark;
    sv_slow_ms = slow_ms;
    sv_started_ns = Limits.now_ns ();
    sv_requests = 0;
    sv_rid = 0;
    sv_pressure_resets = 0;
    sv_deadline_overruns = 0;
  }

let uptime_ns (t : t) : int =
  Int64.to_int (Int64.sub (Limits.now_ns ()) t.sv_started_ns)

(** Run [f] inside the world of every live session. *)
let each_session (t : t) (f : unit -> unit) : unit =
  Hashtbl.iter (fun _ ses -> Session.with_ ses.ss_core f) t.sv_sessions

(** Live interned store nodes, summed over the live sessions. *)
let live_nodes (t : t) : int =
  let n = ref 0 in
  each_session t (fun () -> n := !n + Session.store_live ());
  !n

(** Sample the point-in-time gauges: GC; the store and whnf counts
    summed over the live sessions; the {!Limits} peak watermarks
    (exported per subsystem), the maximum over the live sessions; and
    the server's own degradation counters.  Called only where the gauges
    are read — the [metrics] method, and [belr serve --metrics] before it
    writes the exposition — because the store census is O(store): it
    counts every arena of every session. *)
let sample_gauges (t : t) : unit =
  let gc = Gc.quick_stat () in
  Metrics.set_int g_gc_heap gc.Gc.heap_words;
  Metrics.set_int g_gc_top_heap gc.Gc.top_heap_words;
  Metrics.set_int g_gc_minor gc.Gc.minor_collections;
  Metrics.set_int g_gc_major gc.Gc.major_collections;
  let live = ref 0 and interned = ref 0 and dedup_hits = ref 0 in
  let hits = ref 0 and misses = ref 0 and forced = ref 0 and eager = ref 0 in
  let peaks = ref (List.map (fun (name, _) -> (name, 0)) (Limits.peaks ())) in
  each_session t (fun () ->
      let st = Lf.store_stats () and ws = Whnf.stats () in
      live := !live + st.Lf.st_live;
      interned := !interned + st.Lf.st_interned;
      dedup_hits := !dedup_hits + st.Lf.st_dedup_hits;
      hits := !hits + ws.Whnf.ws_hits;
      misses := !misses + ws.Whnf.ws_misses;
      forced := !forced + ws.Whnf.ws_forced;
      eager := !eager + ws.Whnf.ws_eager;
      let ses_peaks = Limits.peaks () in
      peaks :=
        List.map
          (fun (name, p) -> (name, max p (List.assoc name ses_peaks)))
          !peaks);
  Metrics.set_int g_store_live !live;
  Metrics.set_int g_store_interned !interned;
  (* [Lf.dedup_ratio] over the summed counts *)
  Metrics.set g_store_dedup
    (if !interned = 0 then 0.0
     else float_of_int (!interned + !dedup_hits) /. float_of_int !interned);
  Metrics.set_int g_whnf_hits !hits;
  Metrics.set_int g_whnf_misses !misses;
  Metrics.set_int g_whnf_forced !forced;
  Metrics.set_int g_whnf_eager !eager;
  List.iter
    (fun (name, peak) ->
      Metrics.set_int (Metrics.gauge ("limits.peak." ^ name)) peak)
    !peaks;
  Metrics.set_int g_sessions (Hashtbl.length t.sv_sessions);
  Metrics.set_int g_pressure_resets t.sv_pressure_resets;
  Metrics.set_int g_deadline_overruns t.sv_deadline_overruns;
  Metrics.set_int g_limit_trips (Limits.trip_count ());
  Metrics.set_int g_tele_dropped (Telemetry.events_dropped ());
  Metrics.set_int g_log_dropped (Log.dropped ())

let find_session (t : t) (name : string) : session =
  match Hashtbl.find_opt t.sv_sessions name with
  | Some s -> s
  | None ->
      let s =
        {
          ss_name = name;
          ss_core = Session.create ();
          ss_entries = [];
          ss_text = "";
          ss_parse_ok = false;
          ss_checks = 0;
          ss_caches = Hashtbl.create 4;
        }
      in
      Hashtbl.replace t.sv_sessions name s;
      s

(* --- content hashing and slicing --------------------------------------- *)

(* FNV-1a over the slice: [Hashtbl.hash] samples long strings, which
   would make "no change" collide with "change past the sample window" —
   unacceptable for an invalidation oracle. *)
let content_hash (s : string) : int =
  let h = ref (0xcbf29ce484222325L |> Int64.to_int) in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x100000001b3 land max_int)
    s;
  !h

(** Pair each declaration with its source slice: from its start offset to
    the next declaration's start (the last one runs to end-of-string), so
    every byte of the text belongs to exactly one slice and any textual
    edit lands in some declaration's hash.  A ghost location (only
    possible for synthetic empty groups) degrades to offset 0 — its
    holder then re-checks whenever anything before it changes, which is
    sound. *)
let decl_slices (src : string) (decls : Ext.decl list) :
    (Ext.decl * string) list =
  let n = String.length src in
  let off d =
    let l = Ext.decl_loc d in
    if Loc.is_ghost l then 0 else min n l.Loc.start_pos.Loc.offset
  in
  let rec go = function
    | [] -> []
    | [ d ] ->
        let o = off d in
        [ (d, String.sub src o (n - o)) ]
    | d :: (d2 :: _ as rest) ->
        let o = off d and o2 = off d2 in
        (d, String.sub src o (max 0 (o2 - o))) :: go rest
  in
  go decls

(** Keys are [name#k] where [k] counts prior declarations with the same
    primary name — so a legitimately re-declared name (an error, but one
    the engine must survive) cannot alias two entries.  A declaration
    reused from the previous parse ([olds] holds the previous entries)
    keeps its cached reference list — the physical-equality check makes
    the reuse exact, never heuristic. *)
let entry_list ?(olds = []) (src : string) (decls : Ext.decl list) :
    entry list =
  let seen = Hashtbl.create 16 in
  let old_tbl = Hashtbl.create 16 in
  List.iter (fun o -> Hashtbl.replace old_tbl o.en_key o) olds;
  List.map
    (fun (d, slice) ->
      let names = Ext.declared_names d in
      let primary = match names with n :: _ -> n | [] -> "<empty>" in
      let k =
        match Hashtbl.find_opt seen primary with Some k -> k | None -> 0
      in
      Hashtbl.replace seen primary (k + 1);
      let key = primary ^ "#" ^ string_of_int k in
      let refs =
        match Hashtbl.find_opt old_tbl key with
        | Some o when o.en_decl == d -> o.en_refs
        | _ -> Ext.referenced_names d
      in
      {
        en_key = key;
        en_names = names;
        en_refs = refs;
        en_hash = content_hash slice;
        en_decl = d;
        en_ok = true;
        en_stamp = 0;
      })
    (decl_slices src decls)

(* --- prefix-stable incremental reparse ---------------------------------- *)

let common_prefix_len (a : string) (b : string) : int =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && String.unsafe_get a !i = String.unsafe_get b !i do
    incr i
  done;
  !i

(** [src] with every non-newline byte before [cut] blanked out.  The
    parser then skips the prefix as whitespace in one linear scan, and —
    because newlines survive — every offset, line, and column of the
    tail parse is identical to a full parse of [src]. *)
let blank_prefix (src : string) (cut : int) : string =
  let b = Bytes.of_string src in
  for i = 0 to cut - 1 do
    if Bytes.get b i <> '\n' then Bytes.set b i ' '
  done;
  Bytes.to_string b

let decl_start (d : Ext.decl) : int =
  let l = Ext.decl_loc d in
  if Loc.is_ghost l then 0 else l.Loc.start_pos.Loc.offset

(** Declaration locations anchor at the declared {e name}; the
    introducing keyword ([LF], [LFR], [schema], [rec]) sits just before
    it.  Walk back over whitespace, then over the keyword's letters, so
    the reparse cut keeps the keyword in the tail.  Only whitespace and
    letters are crossed, so the scan can never escape past the previous
    declaration's [;] terminator or into a [%] comment. *)
let back_to_keyword (src : string) (off : int) : int =
  let back pred i =
    let j = ref (min i (String.length src)) in
    while !j > 0 && pred src.[!j - 1] do
      decr j
    done;
    !j
  in
  let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
  back is_letter (back is_ws off)

(** Parse [src], reusing the session's previous parse for every
    declaration whose source slice lies entirely inside the longest
    common prefix of the old and new text.  Only the tail — from the
    first changed declaration on — is re-lexed, so a warm re-check costs
    O(edit), not O(text).  Falls back to a full parse when the previous
    parse had errors (its declaration boundaries are untrustworthy). *)
let parse_incremental (sink : Diagnostics.sink) (ses : session)
    ~(name : string) (src : string) : Ext.decl list =
  let old = ses.ss_text in
  if (not ses.ss_parse_ok) || ses.ss_entries = [] then
    Parse.parse_program_tolerant sink ~name src
  else begin
    let p = common_prefix_len old src in
    (* a reused declaration must end (= next declaration's start) inside
       the unchanged prefix, and starts must stay monotone (ghost
       locations degrade to 0 and stop the reuse scan) *)
    let rec take acc prev_end = function
      | [] -> (List.rev acc, String.length old)
      | [ o ] ->
          if
            decl_start o.en_decl >= prev_end
            && String.length old <= p
          then (List.rev (o :: acc), String.length old)
          else (List.rev acc, decl_start o.en_decl)
      | o :: (o2 :: _ as rest) ->
          let s = decl_start o.en_decl and e = decl_start o2.en_decl in
          if s >= prev_end && e > s && e <= p then
            take (o :: acc) e rest
          else (List.rev acc, s)
    in
    let reused, cut = take [] 0 ses.ss_entries in
    (* reused entries always end <= p, but the empty-reuse stop case
       returns the first old declaration's start, which can exceed p
       (an edit in leading trivia, or an insertion before the first
       declaration); blanking [p, cut) would erase bytes of the {e new}
       text there, so fall back to a full parse instead *)
    let cut = if cut > p then 0 else back_to_keyword src cut in
    if cut = 0 then Parse.parse_program_tolerant sink ~name src
    else
      let tail =
        Parse.parse_program_tolerant sink ~name (blank_prefix src cut)
      in
      List.map (fun o -> o.en_decl) reused @ tail
  end

(* --- invalidation ------------------------------------------------------- *)

(** The subordination seed of a declaration: the type families its names
    resolve to in the {e current} signature (a sort contributes its
    refined family, a constant its target family).  Computed before
    retraction, so edited/removed declarations still resolve. *)
let entry_families (sg : Sign.t) (names : string list) : Lf.cid_typ list =
  List.filter_map
    (fun n ->
      match Sign.sym_opt sg n with
      | Some (Sign.Sym_typ a) -> Some a
      | Some (Sign.Sym_srt s) -> Some (Sign.srt_entry sg s).Sign.s_refines
      | Some (Sign.Sym_const c) -> Some (Sign.const_entry sg c).Sign.c_family
      | _ -> None)
    names

module SS = Set.Make (String)

(** Which new entries must re-check?  Returns the invalid subset of
    [news] (as a key set), given the previous entries and the session's
    pre-retraction signature. *)
let invalid_keys (sg : Sign.t) (olds : entry list) (news : entry list) :
    SS.t =
  let old_by_key = Hashtbl.create 32 in
  List.iter (fun e -> Hashtbl.replace old_by_key e.en_key e) olds;
  let new_keys =
    List.fold_left (fun s e -> SS.add e.en_key s) SS.empty news
  in
  let removed =
    List.filter (fun e -> not (SS.mem e.en_key new_keys)) olds
  in
  (* directly changed: new/edited content, or a previous failure (always
     retried so an erroneous-then-fixed declaration fully recovers) *)
  let changed e =
    match Hashtbl.find_opt old_by_key e.en_key with
    | None -> true
    | Some o -> o.en_hash <> e.en_hash || not o.en_ok
  in
  let seeds = List.filter changed news in
  (* subordination frontier of the edit (and of removals) *)
  let seed_fams =
    List.concat_map (fun e -> entry_families sg e.en_names) seeds
    @ List.concat_map (fun e -> entry_families sg e.en_names) removed
  in
  (* reachability over the direct subordination edges, not the full
     closure — the O(n³) closure would dominate warm re-checks (E8);
     with no seeds at all, don't even read the signature *)
  let dep_fams =
    if seed_fams = [] then []
    else Belr_analysis.Subord.dependents_of sg seed_fams
  in
  let dep_set = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace dep_set f ()) dep_fams;
  let in_dep_frontier e =
    seed_fams <> []
    && List.exists
         (fun f -> Hashtbl.mem dep_set f)
         (entry_families sg e.en_names)
  in
  (* fixpoint over surface references: an entry is invalid if it changed,
     sits on the subordination frontier, or mentions a name declared by
     an invalid or removed entry *)
  let invalid_names =
    ref
      (List.fold_left
         (fun s e -> List.fold_right SS.add e.en_names s)
         SS.empty (seeds @ removed))
  in
  let invalid =
    ref (List.fold_left (fun s e -> SS.add e.en_key s) SS.empty seeds)
  in
  let pass () =
    let grew = ref false in
    List.iter
      (fun e ->
        if not (SS.mem e.en_key !invalid) then
          if
            in_dep_frontier e
            || List.exists (fun r -> SS.mem r !invalid_names) e.en_refs
          then begin
            invalid := SS.add e.en_key !invalid;
            invalid_names :=
              List.fold_right SS.add e.en_names !invalid_names;
            grew := true
          end)
      news;
    !grew
  in
  while pass () do
    ()
  done;
  !invalid

(* --- whole-signature analysis caching ------------------------------------- *)

let cache_sig (entries : entry list) : (string * int * bool) list =
  List.map (fun e -> (e.en_key, e.en_hash, e.en_ok)) entries

(** Run [analyze] (a whole-signature analysis reporting through [sink])
    under the session's per-declaration content-hash cache for [name].
    On a hit — every declaration's (key, content hash, check verdict)
    unchanged since the cached run — the cached findings are replayed
    into [sink] and the cached result returned without re-running the
    analysis, so a warm reply is indistinguishable from a cold one.  On a miss the
    analysis re-runs over the whole signature (the passes are signature
    folds, not per-declaration ones); the reported [rechecked] counts the
    declarations some session check has processed since the cached run
    (stamped later than it) — the union of those checks' invalidation
    closures, so the declarations whose findings could actually have
    changed — and [reused] the rest, mirroring the [check] method's
    accounting.  With no cached run every declaration counts. *)
let with_analysis_cache (ses : session) (sink : Diagnostics.sink)
    (name : string) (analyze : unit -> J.t) : J.t * int * int =
  let news = ses.ss_entries in
  let now = cache_sig news in
  match Hashtbl.find_opt ses.ss_caches name with
  | Some c when c.ac_sig = now ->
      Diagnostics.with_stop sink (fun () ->
          List.iter (Diagnostics.emit sink) c.ac_diags);
      (c.ac_result, 0, List.length news)
  | cached ->
      let since = Option.fold ~none:0 ~some:(fun c -> c.ac_stamp) cached in
      let rechecked =
        List.fold_left
          (fun n e -> if e.en_stamp > since then n + 1 else n)
          0 news
      in
      let reused = List.length news - rechecked in
      let result = analyze () in
      Hashtbl.replace ses.ss_caches name
        {
          ac_sig = now;
          ac_stamp = ses.ss_checks;
          ac_result = result;
          ac_diags = Diagnostics.all sink;
        };
      (result, rechecked, reused)

(* --- request handlers --------------------------------------------------- *)

let sign_summary_json (sg : Sign.t) : J.t =
  let s = Sign.summary sg in
  J.Obj
    [
      ("typs", J.Int s.Sign.n_typs);
      ("srts", J.Int s.Sign.n_srts);
      ("consts", J.Int s.Sign.n_consts);
      ("schemas", J.Int s.Sign.n_schemas);
      ("sschemas", J.Int s.Sign.n_sschemas);
      ("recs", J.Int s.Sign.n_recs);
    ]

(** Run the incremental check of [src] inside the session world.
    Returns [(result, rechecked, reused, deadline_hit)]. *)
let check_in_session (sink : Diagnostics.sink) (ses : session)
    ?(name = "<serve>") (src : string) : J.t * int * int * bool =
  let sg = Session.sign ses.ss_core in
  let errs0 = Diagnostics.error_count sink in
  let decls =
    Telemetry.with_span "parse" (fun () ->
        parse_incremental sink ses ~name src)
  in
  ses.ss_text <- src;
  ses.ss_parse_ok <- Diagnostics.error_count sink = errs0;
  ses.ss_checks <- ses.ss_checks + 1;
  let stamp = ses.ss_checks in
  let olds = ses.ss_entries in
  let news = entry_list ~olds src decls in
  let invalid = invalid_keys sg olds news in
  let new_keys =
    List.fold_left (fun s e -> SS.add e.en_key s) SS.empty news
  in
  (* retract everything that is gone or about to be re-processed *)
  List.iter
    (fun o ->
      if (not (SS.mem o.en_key new_keys)) || SS.mem o.en_key invalid then
        Sign.retract_names sg o.en_names)
    olds;
  let old_by_key = Hashtbl.create 32 in
  List.iter (fun o -> Hashtbl.replace old_by_key o.en_key o) olds;
  let rechecked = ref 0 and reused = ref 0 in
  let deadline_hit = ref false in
  (* the sink's error cap can abort the loop below mid-way (Stop from
     [Diagnostics.emit]) — but the old entries are already retracted and
     [ss_text] updated, so [news] must be committed regardless.
     Pre-mark every to-re-check entry failed and stamped with this check
     (the loop overwrites the verdict when it actually processes one) and
     commit in a [finally]: entries the abort skipped then re-check on
     the next request instead of being reused as stale successes over an
     older text.  A reused (non-invalid) entry always has an old entry
     under its key, whose verdict and stamp it carries over. *)
  List.iter
    (fun e ->
      if SS.mem e.en_key invalid then begin
        e.en_ok <- false;
        e.en_stamp <- stamp
      end
      else
        let o = Hashtbl.find old_by_key e.en_key in
        e.en_ok <- o.en_ok;
        e.en_stamp <- o.en_stamp)
    news;
  Fun.protect
    ~finally:(fun () -> ses.ss_entries <- news)
    (fun () ->
      List.iter
        (fun e ->
          if SS.mem e.en_key invalid then
            if !deadline_hit || Limits.expired () then begin
              (* out of time: leave the rest unchecked-but-marked-failed
                 so the next request re-checks them; poison their names
                 so survivors that reference them degrade gracefully *)
              deadline_hit := true;
              List.iter (Sign.poison sg) e.en_names
            end
            else begin
              incr rechecked;
              Process.process_decl_tolerant sink sg e.en_decl;
              e.en_ok <-
                not (List.exists (Sign.is_poisoned sg) e.en_names)
            end
          else incr reused)
        news);
  let result =
    J.Obj
      [
        ("summary", sign_summary_json sg);
        ("decls", J.Int (List.length news));
        ( "failed",
          J.Int (List.length (List.filter (fun e -> not e.en_ok) news)) );
      ]
  in
  (result, !rechecked, !reused, !deadline_hit)

(* --- the protocol layer ------------------------------------------------- *)

type request = {
  rq_id : J.t;
  rq_method : string;
  rq_session : string;
  rq_source : string option;
  rq_file : string option;
  rq_deadline_ms : int option;
  rq_step_budget : int option;
  rq_max_depth : int option;
}

let parse_request (j : J.t) : (request, string) result =
  match j with
  | J.Obj _ -> (
      let str k = Option.bind (J.member k j) J.to_str in
      let int k = Option.bind (J.member k j) J.to_int in
      match str "method" with
      | None -> Result.Error "request lacks a \"method\" string"
      | Some m ->
          Ok
            {
              rq_id = Option.value (J.member "id" j) ~default:J.Null;
              rq_method = m;
              rq_session = Option.value (str "session") ~default:"default";
              rq_source = str "source";
              rq_file = str "file";
              rq_deadline_ms = int "deadline_ms";
              rq_step_budget = int "step_budget";
              rq_max_depth = int "max_depth";
            })
  | _ -> Result.Error "request is not a JSON object"

let reply ~id ~rid ~session ~status ~exit_code ?(result = J.Null) ~diags
    ~telemetry () : J.t =
  (match status with
  | "ok" -> Metrics.inc m_replies_ok
  | "degraded" -> Metrics.inc m_replies_degraded
  | _ -> Metrics.inc m_replies_error);
  J.Obj
    [
      ("schema", J.String schema_id);
      ("id", id);
      ("request_id", J.String rid);
      ("session", J.String session);
      ("status", J.String status);
      ("exit_code", J.Int exit_code);
      ("result", result);
      ("diagnostics", J.List (List.map Diagnostics.to_json diags));
      ("telemetry", J.Obj telemetry);
    ]

(** A protocol-level rejection: stable [E0904], nothing touched (but
    counted, logged, and carrying the request id like any reply). *)
let protocol_error ?(id = J.Null) ?(session = "-") ~rid msg : J.t =
  Metrics.inc m_protocol_errors;
  let d =
    Diagnostics.make ~code:"E0904" Diagnostics.Error
      "malformed serve request: %s" msg
  in
  Log.event ~level:Log.Warn "serve.protocol_error"
    [ ("request_id", J.String rid); ("session", J.String session);
      ("detail", J.String msg) ];
  reply ~id ~rid ~session ~status:"error" ~exit_code:1 ~diags:[ d ]
    ~telemetry:[] ()

let has_code (diags : Diagnostics.t list) (code : string) : bool =
  List.exists (fun d -> d.Diagnostics.d_code = code) diags

(** Span-tree JSON of the spans recorded during one request (from ring
    position [mark] on): completion-ordered entries with their nesting
    depth — enough to reconstruct the tree — plus a truncation marker
    when the ring wrapped over the request's oldest spans. *)
let span_tree_json (mark : int) : J.t =
  let evs, truncated = Telemetry.events_since mark in
  let spans =
    List.map
      (fun (ev : Telemetry.event) ->
        J.Obj
          ([
             ("name", J.String ev.Telemetry.ev_name);
             ( "dur_us",
               J.Float (Int64.to_float ev.Telemetry.ev_dur_ns /. 1e3) );
             ("depth", J.Int ev.Telemetry.ev_depth);
           ]
          @
          if ev.Telemetry.ev_arg = "" then []
          else [ ("detail", J.String ev.Telemetry.ev_arg) ]))
      evs
  in
  J.Obj
    ([ ("spans", J.List spans) ]
    @ if truncated then [ ("truncated", J.Bool true) ] else [])

(** Handle one parsed request.  Everything that can raise runs inside the
    session bracket with a sink; exceptions escaping {e this} function
    are engine bugs handled by {!handle_line}'s crash-only wrapper. *)
let handle_request (t : t) ~(rid : string) (rq : request) : J.t =
  t.sv_requests <- t.sv_requests + 1;
  Metrics.inc m_requests;
  Limits.set_max_depth
    (Option.value rq.rq_max_depth ~default:t.sv_max_depth);
  (* clear first, unconditionally: protocol-error paths below return
     without [finish], so a previous request's step budget could still
     be armed (and [arm_deadline] alone does not clear it) *)
  Limits.clear_deadline ();
  (match
     match rq.rq_deadline_ms with Some ms -> Some ms | None -> t.sv_deadline_ms
   with
  | Some ms -> Limits.arm_deadline ~ms
  | None -> ());
  Option.iter Limits.set_step_budget rq.rq_step_budget;
  let sink = Diagnostics.sink ~max_errors:t.sv_max_errors () in
  let t0 = Limits.now_ns () in
  let telemetry_was = Telemetry.enabled () in
  if not telemetry_was then Telemetry.set_enabled true;
  Telemetry.set_request_id rid;
  let decl_spans0 = Telemetry.phase_count "decl" in
  let ring_mark = Telemetry.events_recorded () in
  let finish ?result ?(degraded = false) ?(extra_telemetry = []) () =
    Telemetry.clear_request_id ();
    if not telemetry_was then Telemetry.set_enabled false;
    Limits.clear_deadline ();
    (* memory watermark: an oversized session store is cleared in place —
       sharing (not soundness) is lost, and the reply says so *)
    let pressure =
      match (t.sv_watermark, Hashtbl.find_opt t.sv_sessions rq.rq_session) with
      | Some w, Some ses
        when Session.with_ ses.ss_core Session.store_live > w ->
          Session.drop_caches ses.ss_core;
          t.sv_pressure_resets <- t.sv_pressure_resets + 1;
          Diagnostics.emit sink
            (Diagnostics.make ~code:"W0901" Diagnostics.Warning
               "session %s: store passed the live-node watermark %d and \
                was reset (sharing lost, results unaffected)"
               ses.ss_name w);
          true
      | _ -> false
    in
    let diags = Diagnostics.all sink in
    let status =
      if Diagnostics.bug_count sink > 0 then "error"
      else if degraded || pressure || has_code diags "E0903" then "degraded"
      else "ok"
    in
    if has_code diags "E0903" then
      t.sv_deadline_overruns <- t.sv_deadline_overruns + 1;
    let elapsed_ns = Int64.sub (Limits.now_ns ()) t0 in
    let elapsed_ms = Int64.to_float elapsed_ns /. 1e6 in
    (match List.assoc_opt rq.rq_method m_method_hist with
    | Some h -> Metrics.observe h (Int64.to_int elapsed_ns)
    | None -> ());
    let exit_code = Diagnostics.exit_code sink in
    let log_counts =
      List.filter_map
        (fun (k, v) ->
          match (k, v) with
          | ("rechecked" | "reused"), J.Int n -> Some (k, J.Int n)
          | _ -> None)
        extra_telemetry
    in
    Log.event "serve.request"
      ([
         ("request_id", J.String rid);
         ("session", J.String rq.rq_session);
         ("method", J.String rq.rq_method);
         ("status", J.String status);
         ("exit_code", J.Int exit_code);
         ("duration_ms", J.Float elapsed_ms);
       ]
      @ log_counts);
    (match t.sv_slow_ms with
    | Some slow when elapsed_ms >= slow ->
        (* the request blew the latency threshold: dump its span tree so
           the hot phase is identifiable post-hoc, correlated by id *)
        Log.event ~level:Log.Warn "serve.slow"
          [
            ("request_id", J.String rid);
            ("session", J.String rq.rq_session);
            ("method", J.String rq.rq_method);
            ("duration_ms", J.Float elapsed_ms);
            ("slow_ms", J.Float slow);
            ("span_tree", span_tree_json ring_mark);
          ]
    | _ -> ());
    reply ~id:rq.rq_id ~rid ~session:rq.rq_session ~status ~exit_code
      ?result ~diags
      ~telemetry:
        ([
           ("elapsed_ms", J.Float elapsed_ms);
           ( "decl_spans",
             J.Int (Telemetry.phase_count "decl" - decl_spans0) );
         ]
        @ extra_telemetry)
      ()
  in
  (* protocol rejections return without [finish]: restore the telemetry
     flag and the ambient request id here too, or a rejected request
     would leak both into the next one *)
  let reject msg =
    Telemetry.clear_request_id ();
    if not telemetry_was then Telemetry.set_enabled false;
    protocol_error ~id:rq.rq_id ~session:rq.rq_session ~rid msg
  in
  (* an exception escaping the dispatch below is an engine bug headed for
     the crash-only B0002 wrapper in [handle_line]: restore the ambient
     telemetry state here, where [telemetry_was] is known — or the
     enabled flag (and with it process-wide span recording) leaks into
     every later request.  The [serve-dispatch] fault site makes this
     path testable end-to-end (every kernel site is absorbed by
     per-declaration recovery long before it could escape here). *)
  let crash_restore exn =
    Telemetry.clear_request_id ();
    if not telemetry_was then Telemetry.set_enabled false;
    raise exn
  in
  try
    Fault.hit "serve-dispatch";
    (* [metrics] and [health] are server-wide: they read every live
       session and create none *)
    match rq.rq_method with
  | "metrics" ->
      sample_gauges t;
      finish ~result:(Metrics.to_json ()) ()
  | "health" ->
      finish
        ~result:
          (J.Obj
             [
               ("status", J.String "up");
               ("uptime_ns", J.Int (uptime_ns t));
               ("requests", J.Int t.sv_requests);
               ("sessions", J.Int (Hashtbl.length t.sv_sessions));
               ("live_nodes", J.Int (live_nodes t));
               ("pressure_resets", J.Int t.sv_pressure_resets);
               ("deadline_overruns", J.Int t.sv_deadline_overruns);
               ("limit_trips", J.Int (Limits.trip_count ()));
               ( "telemetry_events_dropped",
                 J.Int (Telemetry.events_dropped ()) );
               ("log_lines_dropped", J.Int (Log.dropped ()));
             ])
        ()
  | meth -> (
      (* every other method works on the named session, created on
         first use *)
      let ses = find_session t rq.rq_session in
      match
        (meth, List.find_opt (fun a -> a.Driver.name = meth) Driver.analyses)
      with
      | _, Some a ->
          let result, rechecked, reused =
            with_analysis_cache ses sink a.Driver.name (fun () ->
                let o = Driver.run_analysis_in a ses.ss_core sink in
                Lazy.force o.Driver.reply)
          in
          finish ~result
            ~extra_telemetry:
              [ ("rechecked", J.Int rechecked); ("reused", J.Int reused) ]
            ()
      | "check", None -> (
          let src =
            match (rq.rq_source, rq.rq_file) with
            | Some s, _ -> Ok (s, "<serve>")
            | None, Some f -> (
                match Driver.read_file sink f with
                | Some s -> Ok (s, f)
                | None -> Result.Error (`Io f))
            | None, None -> Result.Error `Missing
          in
          match src with
          | Result.Error `Missing ->
              reject "method \"check\" needs a \"source\" or \"file\" string"
          | Result.Error (`Io _) ->
              (* E0701 is already in the sink; nothing was touched *)
              finish ()
          | Ok (src, name) ->
              let result = ref J.Null in
              let rechecked = ref 0 and reused = ref 0 in
              let degraded = ref false in
              Session.with_ ses.ss_core (fun () ->
                  Diagnostics.with_stop sink (fun () ->
                      let r, rc, ru, dl = check_in_session sink ses ~name src in
                      result := r;
                      rechecked := rc;
                      reused := ru;
                      degraded := dl));
              (if
                 !degraded && not (has_code (Diagnostics.all sink) "E0903")
               then
                 let ms =
                   Option.value rq.rq_deadline_ms
                     ~default:(Option.value t.sv_deadline_ms ~default:0)
                 in
                 Diagnostics.emit sink
                   (Diagnostics.make ~code:"E0903" Diagnostics.Error
                      "resource limit exceeded: the request deadline of %d ms \
                       passed; %d declaration(s) left unchecked"
                      ms
                      (List.length
                         (List.filter (fun e -> not e.en_ok) ses.ss_entries))));
              Metrics.add m_decls_rechecked !rechecked;
              Metrics.add m_decls_reused !reused;
              finish ~result:!result ~degraded:!degraded
                ~extra_telemetry:
                  [
                    ("rechecked", J.Int !rechecked); ("reused", J.Int !reused);
                  ]
                ())
      | "reset", None ->
          (* capture the session's watermarks {e before} discarding its
             world: a reset is exactly when an operator wants to know how
             hot the session ran, and the values are unrecoverable after *)
          let peaks, live =
            Session.with_ ses.ss_core (fun () ->
                ( Limits.peaks (),
                  (Belr_syntax.Lf.store_stats ()).Belr_syntax.Lf.st_live ))
          in
          Session.reset ses.ss_core;
          ses.ss_entries <- [];
          ses.ss_text <- "";
          ses.ss_parse_ok <- false;
          Hashtbl.reset ses.ss_caches;
          finish
            ~result:
              (J.Obj
                 [
                   ("reset", J.Bool true);
                   ( "peaks_before_reset",
                     J.Obj
                       (List.filter_map
                          (fun (name, peak) ->
                            if peak > 0 then Some (name, J.Int peak) else None)
                          peaks) );
                   ("store_live_before_reset", J.Int live);
                 ])
            ()
      | m, None ->
          reject
            (Printf.sprintf "unknown method %S (expected %s)" m
               expected_methods))
  with exn -> crash_restore exn

(** Handle one input line, total: whatever happens, the caller gets a
    reply string (or [None] for blank lines) and the loop keeps going.
    An exception escaping the handler is an engine bug: the session is
    discarded (crash-only — its world is unreachable from any other
    session, so dropping it is safe) and reported as a [B0002]-class
    error reply. *)
let handle_line (t : t) (line : string) : string option =
  let line = String.trim line in
  if line = "" then None
  else begin
    (* one id per non-blank input line, minted before parsing so even a
       rejected line is correlatable across reply, log, and trace *)
    t.sv_rid <- t.sv_rid + 1;
    let rid = "r" ^ string_of_int t.sv_rid in
    let reply_json =
      match J.parse line with
      | Result.Error msg -> protocol_error ~rid msg
      | Ok j -> (
          match parse_request j with
          | Result.Error msg -> protocol_error ~rid msg
          | Ok rq -> (
              try handle_request t ~rid rq
              with exn ->
                Telemetry.clear_request_id ();
                Limits.clear_deadline ();
                Limits.reset ();
                Hashtbl.remove t.sv_sessions rq.rq_session;
                Log.event ~level:Log.Error "serve.engine_fault"
                  [
                    ("request_id", J.String rid);
                    ("session", J.String rq.rq_session);
                    ("method", J.String rq.rq_method);
                    ("detail", J.String (Printexc.to_string exn));
                  ];
                let d =
                  Diagnostics.make ~code:"B0002" Diagnostics.Bug
                    "unexpected exception in the serve engine (session %s \
                     discarded): %s"
                    rq.rq_session (Printexc.to_string exn)
                in
                reply ~id:rq.rq_id ~rid ~session:rq.rq_session
                  ~status:"error" ~exit_code:2 ~diags:[ d ] ~telemetry:[]
                  ()))
    in
    Some (J.to_string ~compact:true reply_json)
  end

(** The stdin/stdout loop: read lines until EOF, one reply per request
    line, flushed eagerly so a driving editor sees replies promptly. *)
let run (t : t) (ic : in_channel) (oc : out_channel) : unit =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        (match handle_line t line with
        | Some r ->
            output_string oc r;
            output_char oc '\n';
            flush oc
        | None -> ());
        loop ()
  in
  loop ()
