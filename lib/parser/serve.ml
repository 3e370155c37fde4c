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
    the engine parses only the text between the unchanged prefix and
    suffix of the previous one (reusing, relocated, the declarations
    outside it), diffs the result against the session's previous text
    {e per declaration} (content hash over the declaration's source
    slice), and finds the candidates for re-checking: the edited, new and
    previously failed declarations, every declaration that mentions or
    declares a name one of them declares (transitively, via surface
    references — {!Ext.referenced_names}), and every declaration whose
    scope a reorder changed.  Candidates are retired from the signature
    ({!Belr_lf.Sign.retire}) and walked in order: a re-checked
    declaration takes its old ids back wherever its payload is α-equal
    to the old one, and a candidate none of whose mentioned names
    changed meaning is restored untouched instead of re-checked — the
    early cutoff, sound because checking reads other declarations only
    through the names it mentions (DESIGN.md §S23).  Unchanged
    declarations keep their signature entries and ids, so the work done
    tracks how far the edit's meaning reaches, not the file. *)

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
          last re-checked it — or left it marked failed when a deadline
          or the error cap cut the check short *)
}

type analysis_cache = {
  ac_sig : (string * int * bool * Loc.t) list;
      (** (key, content hash, last-check verdict, location) per
          declaration when the analysis ran — the cache is valid iff this
          still matches: text in no declaration's slice moves every
          location without changing any hash *)
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
  mutable ss_source : string;
      (** the source name of the last check, which its locations carry *)
  mutable ss_parse_ok : bool;
      (** the last parse was error-free (precondition for reusing its
          declarations across the unchanged prefix and suffix) *)
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
          ss_source = "";
          ss_parse_ok = false;
          ss_checks = 0;
          ss_caches = Hashtbl.create 4;
        }
      in
      Hashtbl.replace t.sv_sessions name s;
      s

(* --- content hashing and slicing --------------------------------------- *)

(* FNV-1a over the bytes [o, e) of [src], read in place: [Hashtbl.hash]
   samples long strings, which would make "no change" collide with
   "change past the sample window" — unacceptable for an invalidation
   oracle. *)
let content_hash (src : string) (o : int) (e : int) : int =
  let h = ref (0xcbf29ce484222325L |> Int64.to_int) in
  for i = o to e - 1 do
    h :=
      (!h lxor Char.code (String.unsafe_get src i)) * 0x100000001b3
      land max_int
  done;
  !h

(** Where a declaration's source slice starts in [src]: its anchor, the
    start of {!Ext.decl_loc} (the declared name, or the keyword of a
    [schema] or [%] directive).  A ghost location (only possible for
    synthetic empty groups) degrades to offset 0 — its holder then
    re-checks whenever anything before it changes, which is sound. *)
let anchor (src : string) (d : Ext.decl) : int =
  let l = Ext.decl_loc d in
  if Loc.is_ghost l then 0
  else min (String.length src) l.Loc.start_pos.Loc.offset

(** A check's declarations in three runs: [rp_prefix] reused from the
    previous check as they were, [rp_middle] parsed by this check, and
    [rp_suffix] reused with their locations shifted (each previous entry
    with its relocated declaration). *)
type reparse = {
  rp_prefix : entry list;
  rp_middle : Ext.decl list;
  rp_suffix : (entry * Ext.decl) list;
}

(** The entries of [src]'s declarations, in order.  Keys are [name#k]
    where [k] counts prior declarations with the same primary name — so a
    legitimately re-declared name (an error, but one the engine must
    survive) cannot alias two entries.

    A declaration's content hash covers its source slice: from its
    anchor to the next declaration's (the last one's runs to the end of
    the text), so any edit from the first anchor on lands in some
    declaration's hash.  The bytes before the first anchor — leading
    trivia and the first declaration's keyword — belong to no slice; an
    edit there changes no declaration ([LF] and [LFR] parse alike) unless
    it changes the declaration list itself.  A reused entry keeps its
    names, references and hash; only the last prefix entry, whose slice
    now ends at a reparsed declaration, and the reparsed ones hash their
    slices. *)
let entries_of (src : string) (rp : reparse) : entry list =
  let seen = Hashtbl.create 64 in
  let entry d names refs hash =
    let primary = match names with n :: _ -> n | [] -> "<empty>" in
    let k = Option.value (Hashtbl.find_opt seen primary) ~default:0 in
    Hashtbl.replace seen primary (k + 1);
    {
      en_key = primary ^ "#" ^ string_of_int k;
      en_names = names;
      en_refs = refs;
      en_hash = hash;
      en_decl = d;
      en_ok = true;
      en_stamp = 0;
    }
  in
  let n_prefix = List.length rp.rp_prefix in
  (* (declaration, the entry it is reused from, does that hash still
     hold) *)
  let items =
    List.mapi (fun i o -> (o.en_decl, Some o, i < n_prefix - 1)) rp.rp_prefix
    @ List.map (fun d -> (d, None, false)) rp.rp_middle
    @ List.map (fun (o, d) -> (d, Some o, true)) rp.rp_suffix
  in
  let rec go acc = function
    | [] -> List.rev acc
    | (d, from, keep) :: rest ->
        let hash () =
          let o = anchor src d in
          let e =
            match rest with
            | (d2, _, _) :: _ -> anchor src d2
            | [] -> String.length src
          in
          content_hash src o (max o e)
        in
        let e =
          match from with
          | Some o ->
              entry d o.en_names o.en_refs (if keep then o.en_hash else hash ())
          | None ->
              entry d (Ext.declared_names d) (Ext.referenced_names d) (hash ())
        in
        go (e :: acc) rest
  in
  go [] items

(** The entries of a full parse of [src]. *)
let entry_list (src : string) (decls : Ext.decl list) : entry list =
  entries_of src { rp_prefix = []; rp_middle = decls; rp_suffix = [] }

(* --- incremental reparse -------------------------------------------------- *)

(** The declarations the parser produced for a check — not the reused
    or shifted ones; a unit test holds an edit in the middle of a large
    session to two at most. *)
let c_parsed_decls = Telemetry.counter "serve.parsed_decls"

let common_prefix_len (a : string) (b : string) : int =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && String.unsafe_get a !i = String.unsafe_get b !i do
    incr i
  done;
  !i

(** The length of the longest common suffix of [a] and [b], at most
    [bound]. *)
let common_suffix_len (a : string) (b : string) (bound : int) : int =
  let la = String.length a and lb = String.length b in
  let i = ref 0 in
  while
    !i < bound
    && String.unsafe_get a (la - 1 - !i) = String.unsafe_get b (lb - 1 - !i)
  do
    incr i
  done;
  !i

let count_newlines (src : string) (o : int) (e : int) : int =
  let n = ref 0 in
  for i = o to e - 1 do
    if String.unsafe_get src i = '\n' then incr n
  done;
  !n

(** The cut of [d] in [src]: the start of the line holding its first
    token — the keyword introducing it — provided only blanks precede
    that keyword on its line.  No token and no [%] comment spans a line
    break, so lexing [src] up to the cut yields the tokens of everything
    before [d], and lexing from it yields [d]'s and everything after.
    [None] when the keyword shares its line with earlier text, or is not
    where a declaration of [d]'s kind puts it (a comment between keyword
    and name). *)
let decl_cut (src : string) (d : Ext.decl) : int option =
  let l = Ext.decl_loc d in
  let a = l.Loc.start_pos.Loc.offset in
  if Loc.is_ghost l || a > String.length src then None
  else
    let back pred i =
      let j = ref i in
      while !j > 0 && pred src.[!j - 1] do
        decr j
      done;
      !j
    in
    let is_blank c = c = ' ' || c = '\t' || c = '\r' in
    let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
    let keyword =
      match d with
      | Ext.Dtyp _ | Ext.Dmutual _ | Ext.Drec _ ->
          (* anchored at the declared name: the keyword is the word
             before it *)
          let w = back (fun c -> is_blank c || c = '\n') a in
          let k = back is_letter w in
          let kw = String.sub src k (w - k) in
          let expected =
            match d with Ext.Drec _ -> [ "rec" ] | _ -> [ "LF"; "LFR" ]
          in
          if List.mem kw expected then Some k else None
      | Ext.Dschema _ | Ext.Dblock _ | Ext.Dworlds _ | Ext.Dmode _ ->
          (* anchored at the keyword itself *)
          Some a
    in
    match keyword with
    | None -> None
    | Some k ->
        let b = back is_blank k in
        if b = 0 || src.[b - 1] = '\n' then Some b else None

(** The lexer cursor at [d]'s cut [c] in [src]: [c] starts a line, whose
    number is [d]'s line less the line breaks between cut and anchor. *)
let cursor_at (src : string) (d : Ext.decl) (c : int) : Lexer.cursor =
  let l = (Ext.decl_loc d).Loc.start_pos in
  {
    Lexer.c_offset = c;
    c_line = l.Loc.line - count_newlines src c l.Loc.offset;
    c_bol = c;
  }

(** The first index from [lo] on whose declaration's anchor in [text] is
    at or past [off] ([Array.length olds] if none).  Binary search: the
    anchors of an error-free parse increase. *)
let first_from (text : string) (olds : entry array) (lo : int) (off : int) :
    int =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if anchor text olds.(mid).en_decl >= off then go lo mid
      else go (mid + 1) hi
  in
  go lo (Array.length olds)

(** Parse [src] against the session's previous parse, so a warm re-check
    parses the edit, not the text.  The previous declarations split into
    a prefix whose text, up to the cut (see {!decl_cut}) of the first
    declaration not reused, lies in the longest common prefix of the old
    and new text; a suffix whose text, from the cut of its first
    declaration on, lies in the longest common suffix; and the middle
    between them.  Only the middle is lexed, starting at the prefix cut's
    offset and line; the suffix's declarations are reused shifted by the
    byte and line distance their text moved (columns stay: the text moved
    from a line start on).  Splicing is exact: every declaration ends in
    [;] and no parse decision looks past it, so the tokens between two
    cuts parse to the declarations a full parse finds there.

    Falls back to a tail parse — lexing everything after the prefix
    cut — when the middle parse reports any diagnostic, so parse errors
    and resynchronization read exactly as in a full parse; a tail that
    does not lex leaves no declarations at all, as a full parse would.
    Parses everything when the previous parse had errors (its
    declaration boundaries are untrustworthy) or the source name changed
    (the reused declarations' locations name the old one). *)
let parse_incremental (sink : Diagnostics.sink) (ses : session)
    ~(name : string) (src : string) : reparse =
  let parse ?from ?stop sink =
    Option.map
      (fun lexemes ->
        let ds = Parse.parse_lexemes_tolerant sink lexemes in
        Telemetry.add c_parsed_decls (List.length ds);
        ds)
      (Parse.lex_tolerant sink ~name ?from ?stop src)
  in
  let spliced prefix middle suffix =
    { rp_prefix = prefix; rp_middle = middle; rp_suffix = suffix }
  in
  let whole () = spliced [] (Option.value (parse sink) ~default:[]) [] in
  if (not ses.ss_parse_ok) || ses.ss_entries = [] || name <> ses.ss_source
  then whole ()
  else begin
    let old = ses.ss_text in
    let olds = Array.of_list ses.ss_entries in
    let n = Array.length olds in
    let p = common_prefix_len old src in
    (* entries [0, k) are reused; the parse starts at entry [k]'s cut,
       inside the common prefix (or at the top of the text) *)
    let rec prefix_cut k =
      if k < 0 then (0, Lexer.origin)
      else
        match decl_cut old olds.(k).en_decl with
        | Some c when c <= p -> (k, cursor_at old olds.(k).en_decl c)
        | _ -> prefix_cut (k - 1)
    in
    let k, from = prefix_cut (min (n - 1) (first_from old olds 0 (p + 1))) in
    let prefix = Array.to_list (Array.sub olds 0 k) in
    let tail () =
      match parse ~from sink with
      | Some ds -> spliced prefix ds []
      | None -> spliced [] [] []
    in
    (* entries [m, n) are reused shifted: entry [m]'s cut lies in the
       common suffix (which never overlaps the prefix) and starts a line
       in the new text too *)
    let lo = String.length old and ln = String.length src in
    let s = common_suffix_len old src (min lo ln - p) in
    let bytes = ln - lo in
    let rec suffix_cut m =
      if m >= n then None
      else
        match decl_cut old olds.(m).en_decl with
        | Some e
          when e >= lo - s && (e + bytes = 0 || src.[e + bytes - 1] = '\n') ->
            Some (m, e)
        | _ -> suffix_cut (m + 1)
    in
    match suffix_cut (first_from old olds k (lo - s)) with
    | None -> tail ()
    | Some (m, e) -> (
        let probe = Diagnostics.sink () in
        match parse ~from ~stop:(e + bytes) probe with
        | Some middle when Diagnostics.all probe = [] ->
            let first = olds.(m).en_decl in
            let lines =
              from.Lexer.c_line
              + count_newlines src from.Lexer.c_offset (e + bytes)
              - (cursor_at old first e).Lexer.c_line
            in
            spliced prefix middle
              (List.map
                 (fun o -> (o, Ext.shift_decl ~bytes ~lines o.en_decl))
                 (Array.to_list (Array.sub olds m (n - m))))
        | _ -> tail ())
  end

(* --- invalidation ------------------------------------------------------- *)

module SS = Set.Make (String)

(** Which new entries are candidates for re-checking, and which of them
    are seeds that re-check whatever happens?  [news.(i)] is a seed when:
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
    only if a name it mentions changed meaning ({!check_in_session}).
    One walk from the seeds and the removed entries over name → entries
    indexes built from [en_names], [en_refs] and the schemas' worlds;
    DESIGN.md §S23 argues that this is sound.  Returns
    [(candidates, seeds)]. *)
let invalidate (olds : entry list) (news : entry array) :
    bool array * bool array =
  let nn = Array.length news in
  let old_at = Hashtbl.create 64 in
  List.iteri (fun j o -> Hashtbl.replace old_at o.en_key (j, o)) olds;
  let new_at = Hashtbl.create 64 in
  Array.iteri (fun i e -> Hashtbl.replace new_at e.en_key i) news;
  (* name → positions of the entries declaring it, providing it as a
     world, or mentioning it; ascending *)
  let declarers = Hashtbl.create 256
  and providers = Hashtbl.create 16
  and users = Hashtbl.create 256 in
  let at tbl x = Option.value (Hashtbl.find_opt tbl x) ~default:[] in
  let add tbl i x = Hashtbl.replace tbl x (i :: at tbl x) in
  for i = nn - 1 downto 0 do
    List.iter (add declarers i) news.(i).en_names;
    List.iter (add providers i) (Ext.world_names news.(i).en_decl);
    List.iter (add users i) news.(i).en_refs
  done;
  (* the entries that put [x] in scope, ascending *)
  let scope x =
    match at providers x with
    | [] -> at declarers x
    | ps -> List.merge compare (at declarers x) ps
  in
  let invalid = Array.make nn false and seed = Array.make nn false in
  let work = Stack.create () in
  let mark i =
    if not invalid.(i) then begin
      invalid.(i) <- true;
      Stack.push i work
    end
  in
  let mark_seed i =
    seed.(i) <- true;
    mark i
  in
  let taint (e : entry) =
    List.iter
      (fun x ->
        List.iter mark (at declarers x);
        List.iter mark (at users x))
      e.en_names;
    List.iter (fun w -> List.iter mark (at users w)) (Ext.world_names e.en_decl)
  in
  Array.iteri
    (fun i e ->
      match Hashtbl.find_opt old_at e.en_key with
      | None -> mark_seed i
      | Some (_, o) ->
          if o.en_hash <> e.en_hash || not o.en_ok then mark_seed i)
    news;
  List.iter (fun o -> if not (Hashtbl.mem new_at o.en_key) then taint o) olds;
  (* a scope flip needs two surviving entries to swap, so compare scopes
     only when the survivors' old positions no longer increase *)
  let last = ref (-1) and reordered = ref false in
  Array.iter
    (fun e ->
      match Hashtbl.find_opt old_at e.en_key with
      | Some (j, _) ->
          if j < !last then reordered := true;
          last := j
      | None -> ())
    news;
  if !reordered then begin
    (* name → (position, key) of its first old declarer or provider *)
    let first_old = Hashtbl.create 256 in
    List.iteri
      (fun j o ->
        List.iter
          (fun x ->
            if not (Hashtbl.mem first_old x) then
              Hashtbl.replace first_old x (j, o.en_key))
          (o.en_names @ Ext.world_names o.en_decl))
      olds;
    Array.iteri
      (fun i e ->
        match Hashtbl.find_opt old_at e.en_key with
        | Some (j, _) ->
            let flipped r =
              let was =
                match Hashtbl.find_opt first_old r with
                | Some (f, k) when f < j -> Some k
                | _ -> None
              in
              let is =
                match scope r with
                | f :: _ when f < i -> Some news.(f).en_key
                | _ -> None
              in
              was <> is
            in
            if List.exists flipped e.en_refs then mark_seed i
        | None -> ())
      news
  end;
  while not (Stack.is_empty work) do
    let i = Stack.pop work in
    taint news.(i);
    List.iter
      (fun r ->
        match scope r with
        | f :: _ as ds when f > i -> List.iter mark_seed ds
        | _ -> ())
      news.(i).en_refs
  done;
  (invalid, seed)

(** The candidates of {!invalidate} as a key set. *)
let invalid_keys (olds : entry list) (news : entry list) : SS.t =
  let news = Array.of_list news in
  let invalid, _ = invalidate olds news in
  let keys = ref SS.empty in
  Array.iteri
    (fun i e -> if invalid.(i) then keys := SS.add e.en_key !keys)
    news;
  !keys

(* --- whole-signature analysis caching ------------------------------------- *)

let cache_sig (entries : entry list) : (string * int * bool * Loc.t) list =
  List.map
    (fun e -> (e.en_key, e.en_hash, e.en_ok, Ext.decl_loc e.en_decl))
    entries

(** Run [analyze] (a whole-signature analysis reporting through [sink])
    under the session's per-declaration cache for [name].  On a hit —
    every declaration's (key, content hash, check verdict, location)
    unchanged since the cached run — the cached findings are replayed
    into [sink] and the cached result returned without re-running the
    analysis, so a warm reply is indistinguishable from a cold one.  On a
    miss the analysis re-runs over the whole signature (the passes are
    signature folds, not per-declaration ones); the reported [rechecked]
    counts the declarations some session check has re-checked since the
    cached run (stamped later than it) — the union of what those checks
    re-checked, a measure of the edits in between, not of the analysis's
    own work — and [reused] the rest, mirroring the [check] method's
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
  let rp =
    Telemetry.with_span "parse" (fun () ->
        parse_incremental sink ses ~name src)
  in
  ses.ss_text <- src;
  ses.ss_source <- name;
  ses.ss_parse_ok <- Diagnostics.error_count sink = errs0;
  ses.ss_checks <- ses.ss_checks + 1;
  let stamp = ses.ss_checks in
  let olds = ses.ss_entries in
  let news = Array.of_list (entries_of src rp) in
  let candidate, seed = invalidate olds news in
  let new_at = Hashtbl.create 64 in
  Array.iteri (fun i e -> Hashtbl.replace new_at e.en_key i) news;
  (* retire everything that is gone or a candidate: the walk below puts
     back, or re-binds to its old id, whatever keeps its meaning *)
  let old_by_key = Hashtbl.create 64 in
  List.iter
    (fun o ->
      Hashtbl.replace old_by_key o.en_key o;
      match Hashtbl.find_opt new_at o.en_key with
      | Some i when not candidate.(i) -> ()
      | _ -> Sign.retire sg o.en_names)
    olds;
  (* world lookup and the modes analysis read schemas and functions in
     source order *)
  Array.iteri
    (fun i e ->
      match e.en_decl with
      | Ext.Dschema _ | Ext.Drec _ ->
          List.iter (fun n -> Sign.set_rank sg n i) e.en_names
      | _ -> ())
    news;
  let rechecked = ref 0 and reused = ref 0 in
  let deadline_hit = ref false in
  (* the sink's error cap can abort the loop below mid-way (Stop from
     [Diagnostics.emit]) — but the old entries are already retired and
     [ss_text] updated, so [news] must be committed regardless.
     Pre-mark every candidate failed and stamped with this check (the
     loop overwrites the verdict when it actually processes one) and
     commit in a [finally], after {!Sign.settle} retracts whatever is
     still retired: candidates the abort skipped then re-check on the
     next request instead of being reused as stale successes over an
     older text.  A reused entry always has an old entry under its key,
     whose verdict and stamp it carries over — and whose recorded
     locations it refreshes when its text moved. *)
  Array.iteri
    (fun i e ->
      if candidate.(i) then begin
        e.en_ok <- false;
        e.en_stamp <- stamp
      end
      else begin
        let o = Hashtbl.find old_by_key e.en_key in
        e.en_ok <- o.en_ok;
        e.en_stamp <- o.en_stamp;
        if
          e.en_decl != o.en_decl
          && Ext.decl_loc e.en_decl <> Ext.decl_loc o.en_decl
        then Process.record_locs sg e.en_decl
      end)
    news;
  (* early cutoff: a candidate that is no seed, and none of whose
     mentioned names changed meaning, reads exactly what it read before *)
  let unaffected e =
    Sign.restorable sg e.en_names
    && not
         (List.exists
            (fun r -> (not (List.mem r e.en_names)) && Sign.changed sg r)
            e.en_refs)
  in
  Fun.protect
    ~finally:(fun () ->
      Sign.settle sg;
      ses.ss_entries <- Array.to_list news)
    (fun () ->
      Array.iteri
        (fun i e ->
          if not candidate.(i) then incr reused
          else if !deadline_hit || Limits.expired () then begin
            (* out of time: leave the rest unchecked-but-marked-failed
               so the next request re-checks them; poison their names
               so survivors that reference them degrade gracefully *)
            deadline_hit := true;
            List.iter (Sign.poison sg) e.en_names
          end
          else if (not seed.(i)) && unaffected e then begin
            let o = Hashtbl.find old_by_key e.en_key in
            Sign.restore sg e.en_names;
            Process.record_locs sg e.en_decl;
            e.en_ok <- o.en_ok;
            e.en_stamp <- o.en_stamp;
            incr reused
          end
          else begin
            incr rechecked;
            Process.process_decl_tolerant sink sg e.en_decl;
            e.en_ok <- not (List.exists (Sign.is_poisoned sg) e.en_names)
          end)
        news);
  let result =
    J.Obj
      [
        ("summary", sign_summary_json sg);
        ("decls", J.Int (Array.length news));
        ( "failed",
          J.Int
            (Array.fold_left (fun n e -> if e.en_ok then n else n + 1) 0 news)
        );
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
          ses.ss_source <- "";
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
