open Belr_support
open Belr_lf
module J = Json

(* --- per-declaration records and the engine state ------------------------ *)

type entry = {
  en_key : string;
  en_names : string list;
  en_refs : string list;
  en_worlds : string list;  (** {!Ext.world_names} of the declaration *)
  en_hash : int;
  en_parsed : Ext.decl;
  mutable en_bytes : int;
  mutable en_lines : int;
  mutable en_ok : bool;
  mutable en_stamp : int;
  mutable en_pos : int;
  en_book : book;
}

(** What the engine keeps about an entry for itself. *)
and book = {
  mutable bk_loc_bytes : int;
  mutable bk_loc_lines : int;
      (** the displacement at which the signature's recorded locations of
          its names were last written ([unrecorded]: they were not) *)
  mutable bk_old : entry option;
      (** during a check, the previous entry under the key of an entry the
          check created *)
  mutable bk_prev : int;
      (** during a check, the position of that previous entry (-1: none) *)
  mutable bk_born : int;  (** the check that created it *)
  mutable bk_cand : int;
  mutable bk_seed : int;
  mutable bk_lazy : int;
      (** the invalidation walk that made it a candidate / a seed / a
          candidate retired only if the walk finds it affected *)
}

let unrecorded = min_int

(** What an analysis run saw of one declaration. *)
type seen = {
  sd_key : string;
  sd_hash : int;  (** content hash *)
  sd_ok : bool;  (** last-check verdict *)
  sd_loc : Loc.t;  (** location, displacement applied *)
}

type analysis_cache = {
  ac_seen : seen array;
      (** per declaration, in order, when the analysis ran — the cache is
          valid iff every entry still matches in place: text in no
          declaration's slice moves every location without changing any
          hash *)
  ac_stamp : int;
      (** [i_checks] when the analysis ran: the entries stamped later
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

(** Name → the entries declaring it, providing it as a world, or
    mentioning it, in no particular order; and primary name → the
    entries it is the primary name of (their keys count them). *)
type index = {
  ix_declarers : (string, entry list) Hashtbl.t;
  ix_providers : (string, entry list) Hashtbl.t;
  ix_users : (string, entry list) Hashtbl.t;
  ix_primaries : (string, entry list) Hashtbl.t;
}

(** The work list of the invalidation walk, kept from walk to walk. *)
type stack = { mutable st_items : entry array; mutable st_top : int }

let stack () = { st_items = [||]; st_top = 0 }

type t = {
  mutable i_arr : entry array;
      (** the entries in declaration order, in [[0, i_len)]; the rest is
          spare capacity *)
  mutable i_len : int;
  i_by_key : (string, entry) Hashtbl.t;
  i_ix : index;
  i_work : stack;  (** the invalidation walk's work list *)
  mutable i_text : string;  (** the last checked source text *)
  mutable i_source : string;
      (** the source name of the last check, which its locations carry *)
  mutable i_parse_ok : bool;
      (** the last parse was error-free (precondition for reusing its
          declarations across the unchanged prefix and suffix) *)
  mutable i_checks : int;
      (** checks run so far: the stamp source of [en_stamp] *)
  i_caches : (string, analysis_cache) Hashtbl.t;
      (** keyed by analysis name *)
}

let new_index () =
  {
    ix_declarers = Hashtbl.create 256;
    ix_providers = Hashtbl.create 16;
    ix_users = Hashtbl.create 256;
    ix_primaries = Hashtbl.create 256;
  }

let create () : t =
  {
    i_arr = [||];
    i_len = 0;
    i_by_key = Hashtbl.create 256;
    i_ix = new_index ();
    i_work = stack ();
    i_text = "";
    i_source = "";
    i_parse_ok = false;
    i_checks = 0;
    i_caches = Hashtbl.create 4;
  }

let reset (t : t) : unit =
  t.i_arr <- [||];
  t.i_len <- 0;
  Hashtbl.reset t.i_by_key;
  Hashtbl.reset t.i_ix.ix_declarers;
  Hashtbl.reset t.i_ix.ix_providers;
  Hashtbl.reset t.i_ix.ix_users;
  Hashtbl.reset t.i_ix.ix_primaries;
  t.i_work.st_items <- [||];
  t.i_text <- "";
  t.i_source <- "";
  t.i_parse_ok <- false;
  Hashtbl.reset t.i_caches

let entries (t : t) : entry list = Array.to_list (Array.sub t.i_arr 0 t.i_len)

let candidates (t : t) : entry list =
  List.filter (fun e -> e.en_book.bk_cand = t.i_checks) (entries t)
let checks (t : t) : int = t.i_checks

let decl (e : entry) : Ext.decl =
  Ext.shift_decl ~bytes:e.en_bytes ~lines:e.en_lines e.en_parsed

type report = {
  r_decls : int;
  r_failed : int;
  r_rechecked : int;
  r_reused : int;
  r_deadline_hit : bool;
}

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

(** Where a declaration's source slice starts: its anchor, the start of
    {!Ext.decl_loc} (the declared name, or the keyword of a [schema] or
    [%] directive), moved [bytes] further down.  A ghost location (only
    possible for synthetic empty groups) degrades to offset 0 — its
    holder then re-checks whenever anything before it changes, which is
    sound. *)
let anchor_at (src : string) (d : Ext.decl) (bytes : int) : int =
  let l = Ext.decl_loc d in
  if Loc.is_ghost l then 0
  else min (String.length src) (l.Loc.start_pos.Loc.offset + bytes)

(** An entry's anchor in the text its displacement is relative to. *)
let anchor (src : string) (e : entry) : int =
  anchor_at src e.en_parsed e.en_bytes

let primary (names : string list) : string =
  match names with n :: _ -> n | [] -> "<empty>"

let key_of (p : string) (k : int) : string = p ^ "#" ^ string_of_int k

(** A new entry for [d], parsed from [src]: not yet checked, its names'
    locations not recorded. *)
let make_entry ~key ~names ~hash ~pos (d : Ext.decl) : entry =
  {
    en_key = key;
    en_names = names;
    en_refs = Ext.referenced_names d;
    en_worlds = Ext.world_names d;
    en_hash = hash;
    en_parsed = d;
    en_bytes = 0;
    en_lines = 0;
    en_ok = false;
    en_stamp = 0;
    en_pos = pos;
    en_book =
      {
        bk_loc_bytes = unrecorded;
        bk_loc_lines = 0;
        bk_old = None;
        bk_prev = -1;
        bk_born = 0;
        bk_cand = 0;
        bk_seed = 0;
        bk_lazy = 0;
      };
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
    it changes the declaration list itself. *)
let entry_list (src : string) (decls : Ext.decl list) : entry list =
  let seen = Hashtbl.create 64 in
  let rec go i acc = function
    | [] -> List.rev acc
    | d :: rest ->
        let o = anchor_at src d 0 in
        let e =
          match rest with
          | d2 :: _ -> anchor_at src d2 0
          | [] -> String.length src
        in
        let names = Ext.declared_names d in
        let p = primary names in
        let k = Option.value (Hashtbl.find_opt seen p) ~default:0 in
        Hashtbl.replace seen p (k + 1);
        let en =
          make_entry ~key:(key_of p k) ~names
            ~hash:(content_hash src o (max o e))
            ~pos:i d
        in
        go (i + 1) (en :: acc) rest
  in
  go 0 [] decls

(* --- the name indexes ---------------------------------------------------- *)

(* the walk looks names up once per candidate: without allocating *)
let at tbl x = match Hashtbl.find tbl x with l -> l | exception Not_found -> []

let add tbl e x = Hashtbl.replace tbl x (e :: at tbl x)

(* [l] without [e], sharing the tail after it *)
let rec drop e = function
  | [] -> []
  | x :: r -> if x == e then r else x :: drop e r

let remove tbl e x =
  match drop e (at tbl x) with
  | [] -> Hashtbl.remove tbl x
  | l -> Hashtbl.replace tbl x l

let index_entry (ix : index) (e : entry) =
  List.iter (add ix.ix_declarers e) e.en_names;
  List.iter (add ix.ix_providers e) e.en_worlds;
  List.iter (add ix.ix_users e) e.en_refs;
  add ix.ix_primaries e (primary e.en_names)

let unindex_entry (ix : index) (e : entry) =
  List.iter (remove ix.ix_declarers e) e.en_names;
  List.iter (remove ix.ix_providers e) e.en_worlds;
  List.iter (remove ix.ix_users e) e.en_refs;
  remove ix.ix_primaries e (primary e.en_names)

(** The position of the first entry that puts [x] in scope — declares
    it, or provides it as a world — or [max_int]. *)
let first_scope (ix : index) (x : string) : int =
  let rec low m = function [] -> m | e :: es -> low (min m e.en_pos) es in
  low (low max_int (at ix.ix_declarers x)) (at ix.ix_providers x)

(* --- invalidation ------------------------------------------------------- *)

(** The invalidation walk of the check numbered [t.i_checks]: mark every
    entry reached from [seeds] and the [removed] entries over [t]'s name
    indexes as a candidate ([bk_cand]), the seeds and the entries the
    forward rule reaches also as seeds ([bk_seed]).  Returns the number
    of candidates.  It allocates nothing per candidate: a warm check
    reaches many, and keeps most.  See {!candidates} for the rules. *)
let close (t : t) (seeds : entry list) (removed : entry list) : int =
  let ix = t.i_ix and work = t.i_work and gen = t.i_checks in
  let count = ref 0 in
  let mark1 e =
    if e.en_book.bk_cand <> gen then begin
      e.en_book.bk_cand <- gen;
      incr count;
      if work.st_top = Array.length work.st_items then begin
        let a = Array.make (max 64 (2 * work.st_top)) e in
        Array.blit work.st_items 0 a 0 work.st_top;
        work.st_items <- a
      end;
      work.st_items.(work.st_top) <- e;
      work.st_top <- work.st_top + 1
    end
  in
  let rec mark = function
    | [] -> ()
    | e :: es ->
        mark1 e;
        mark es
  in
  let rec mark_seeds = function
    | [] -> ()
    | e :: es ->
        e.en_book.bk_seed <- gen;
        mark1 e;
        mark_seeds es
  in
  let rec taint = function
    | [] -> ()
    | x :: xs ->
        mark (at ix.ix_declarers x);
        mark (at ix.ix_users x);
        taint xs
  in
  let rec taint_worlds = function
    | [] -> ()
    | w :: ws ->
        mark (at ix.ix_users w);
        taint_worlds ws
  in
  (* a name mentioned at [pos] that only later entries put in scope *)
  let rec forward pos = function
    | [] -> ()
    | r :: rs ->
        let f = first_scope ix r in
        if f <> max_int && f > pos then begin
          mark_seeds (at ix.ix_declarers r);
          mark_seeds (at ix.ix_providers r)
        end;
        forward pos rs
  in
  mark_seeds seeds;
  List.iter
    (fun o ->
      taint o.en_names;
      taint_worlds o.en_worlds)
    removed;
  while work.st_top > 0 do
    work.st_top <- work.st_top - 1;
    let e = work.st_items.(work.st_top) in
    taint e.en_names;
    taint_worlds e.en_worlds;
    forward e.en_pos e.en_refs
  done;
  !count

(** The survivors whose scope a reorder flipped: [t]'s entries in
    order, each with the position of its previous entry ([bk_prev], -1
    if none), where [first_old] gives the position and key of a name's
    first declarer or provider in the previous order. *)
let flipped (t : t) (first_old : (string, int * string) Hashtbl.t) :
    entry list =
  let ix = t.i_ix and news = t.i_arr in
  let acc = ref [] in
  for i = 0 to t.i_len - 1 do
    let e = news.(i) in
    let j = e.en_book.bk_prev in
    if j >= 0 then begin
      let flips r =
        let was =
          match Hashtbl.find_opt first_old r with
          | Some (f, k) when f < j -> Some k
          | _ -> None
        in
        let f = first_scope ix r in
        let is = if f < i then Some news.(f).en_key else None in
        was <> is
      in
      if List.exists flips e.en_refs then acc := e :: !acc
    end
  done;
  !acc

(** Name → (position, key) of its first declarer or provider among the
    first [n] entries of [olds]. *)
let first_declarers (olds : entry array) (n : int) =
  let first_old = Hashtbl.create 256 in
  for j = 0 to n - 1 do
    let o = olds.(j) in
    List.iter
      (fun x ->
        if not (Hashtbl.mem first_old x) then
          Hashtbl.replace first_old x (j, o.en_key))
      (o.en_names @ o.en_worlds)
  done;
  first_old

(** The survivors' previous positions — [prev i] of new position [i]
    in [[from, len)], -1 for none — no longer increase: a scope flip
    needs two surviving entries to swap. *)
let reordered (from : int) (len : int) (prev : int -> int) : bool =
  let last = ref (-1) and out = ref false in
  for i = from to len - 1 do
    let j = prev i in
    if j >= 0 then begin
      if j < !last then out := true;
      last := j
    end
  done;
  !out

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

(** {!decl_cut} of [d] moved [bytes] further down [src]. *)
let cut_at (src : string) (d : Ext.decl) (bytes : int) : int option =
  let l = Ext.decl_loc d in
  let a = l.Loc.start_pos.Loc.offset + bytes in
  if Loc.is_ghost l || a > String.length src then None
  else
    let back pred i =
      let j = ref i in
      while !j > 0 && pred (String.unsafe_get src (!j - 1)) do
        decr j
      done;
      !j
    in
    let is_blank c = c = ' ' || c = '\t' || c = '\r' in
    let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
    (* the word [src[k, w)] is [kw] *)
    let is_word k w kw =
      w - k = String.length kw
      &&
      let rec same i = i = w - k || (src.[k + i] = kw.[i] && same (i + 1)) in
      same 0
    in
    let keyword =
      match d with
      | Ext.Dtyp _ | Ext.Dmutual _ | Ext.Drec _ ->
          (* anchored at the declared name: the keyword is the word
             before it *)
          let w = back (fun c -> is_blank c || c = '\n') a in
          let k = back is_letter w in
          let ok =
            match d with
            | Ext.Drec _ -> is_word k w "rec"
            | _ -> is_word k w "LF" || is_word k w "LFR"
          in
          if ok then Some k else None
      | Ext.Dschema _ | Ext.Dblock _ | Ext.Dworlds _ | Ext.Dmode _ ->
          (* anchored at the keyword itself *)
          Some a
    in
    match keyword with
    | None -> None
    | Some k ->
        let b = back is_blank k in
        if b = 0 || src.[b - 1] = '\n' then Some b else None

let decl_cut (src : string) (d : Ext.decl) : int option = cut_at src d 0

(** The lexer cursor at entry [e]'s cut [c] in [src]: [c] starts a line,
    whose number is [e]'s line less the line breaks between cut and
    anchor. *)
let cursor_at (src : string) (e : entry) (c : int) : Lexer.cursor =
  let l = (Ext.decl_loc e.en_parsed).Loc.start_pos in
  {
    Lexer.c_offset = c;
    c_line =
      l.Loc.line + e.en_lines
      - count_newlines src c (l.Loc.offset + e.en_bytes);
    c_bol = c;
  }

(** The first index from [lo] below [n] whose entry's anchor in [text] is
    at or past [off] ([n] if none).  Binary search: the anchors of an
    error-free parse increase. *)
let first_from (text : string) (olds : entry array) (n : int) (lo : int)
    (off : int) : int =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if anchor text olds.(mid) >= off then go lo mid else go (mid + 1) hi
  in
  go lo n

(** How a check's declarations relate to the previous check's entries:
    entries [[0, sp_keep)] stay as they are, [sp_middle] is parsed by
    this check, and entries [[sp_from, n)] are reused moved [sp_bytes]
    bytes and [sp_lines] lines down. *)
type splice = {
  sp_keep : int;
  sp_middle : Ext.decl list;
  sp_from : int;
  sp_bytes : int;
  sp_lines : int;
}

(** Parse [src] against the previous parse, so a warm re-check parses
    the edit, not the text.  The previous declarations split into a
    prefix whose text, up to the cut (see {!decl_cut}) of the first
    declaration not reused, lies in the longest common prefix of the old
    and new text; a suffix whose text, from the cut of its first
    declaration on, lies in the longest common suffix; and the middle
    between them.  Only the middle is lexed, starting at the prefix cut's
    offset and line; the suffix's declarations are reused moved by the
    byte and line distance their text moved (columns stay: the text moved
    from a line start on).  Splicing is exact: every declaration ends in
    [;] and no parse decision looks past it, so the tokens between two
    cuts parse to the declarations a full parse finds there.

    Falls back to the tail parse — lexing everything after the prefix
    cut — when the middle parse reports any diagnostic, so parse errors
    and resynchronization read exactly as in a full parse; a tail that
    does not lex leaves no declarations at all, as a full parse would.
    A whole parse is the tail parse from the top of the text with no
    prefix, taken when the previous parse had errors (its declaration
    boundaries are untrustworthy), there is no previous declaration, or
    the source name changed (the reused declarations' locations name the
    old one). *)
let parse_incremental (sink : Diagnostics.sink) (t : t) ~(name : string)
    (src : string) : splice =
  let n = t.i_len in
  let parse ?stop from sink =
    Option.map
      (fun lexemes ->
        let ds = Parse.parse_lexemes_tolerant sink lexemes in
        Telemetry.add c_parsed_decls (List.length ds);
        ds)
      (Parse.lex_tolerant sink ~name ~from ?stop src)
  in
  let tail k from =
    let keep, ds =
      match parse from sink with Some ds -> (k, ds) | None -> (0, [])
    in
    { sp_keep = keep; sp_middle = ds; sp_from = n; sp_bytes = 0; sp_lines = 0 }
  in
  if (not t.i_parse_ok) || n = 0 || name <> t.i_source then tail 0 Lexer.origin
  else begin
    let old = t.i_text in
    let olds = t.i_arr in
    let p = common_prefix_len old src in
    (* entries [0, k) are reused; the parse starts at entry [k]'s cut,
       inside the common prefix (or at the top of the text) *)
    let rec prefix_cut k =
      if k < 0 then (0, Lexer.origin)
      else
        let e = olds.(k) in
        match cut_at old e.en_parsed e.en_bytes with
        | Some c when c <= p -> (k, cursor_at old e c)
        | _ -> prefix_cut (k - 1)
    in
    let k, from = prefix_cut (min (n - 1) (first_from old olds n 0 (p + 1))) in
    (* entries [m, n) are reused moved: entry [m]'s cut lies in the
       common suffix (which never overlaps the prefix) and starts a line
       in the new text too *)
    let lo = String.length old and ln = String.length src in
    let s = common_suffix_len old src (min lo ln - p) in
    let bytes = ln - lo in
    let rec suffix_cut m =
      if m >= n then None
      else
        let e = olds.(m) in
        match cut_at old e.en_parsed e.en_bytes with
        | Some c
          when c >= lo - s && (c + bytes = 0 || src.[c + bytes - 1] = '\n') ->
            Some (m, c)
        | _ -> suffix_cut (m + 1)
    in
    match suffix_cut (first_from old olds n k (lo - s)) with
    | None -> tail k from
    | Some (m, c) -> (
        let probe = Diagnostics.sink () in
        match parse ~stop:(c + bytes) from probe with
        | Some middle when Diagnostics.all probe = [] ->
            let lines =
              from.Lexer.c_line
              + count_newlines src from.Lexer.c_offset (c + bytes)
              - (cursor_at old olds.(m) c).Lexer.c_line
            in
            { sp_keep = k; sp_middle = middle; sp_from = m; sp_bytes = bytes;
              sp_lines = lines }
        | _ -> tail k from)
  end

(* --- the splice: the entry array and its indexes, updated in place -------- *)

(** What a splice changed, for the invalidation walk. *)
type delta = {
  dl_added : entry list;
      (** entries the check created: the parsed ones, and copies of kept
          ones whose key or hash changed; each with [bk_old] and
          [bk_prev] set *)
  dl_removed : entry list;
      (** previous entries whose key no check entry carries any more *)
  dl_dropped : entry list;  (** every previous entry the splice let go *)
  dl_first_old : (string, int * string) Hashtbl.t option;
      (** {!first_declarers} of the previous order, when the survivors'
          order changed *)
}

(* the filler of the spare slots of the entry array *)
let spare = make_entry ~key:"" ~names:[] ~hash:0 ~pos:(-1) (Ext.Drec [])

(** Apply [sp] to [t]'s entries for the new text [src]: the kept prefix
    stays, its last entry re-hashed (its slice now ends elsewhere); the
    parsed middle comes in; the suffix moves by the splice's
    displacement, and the entries whose key the change renumbered are
    replaced by copies under their new key.  The array, the positions,
    the key table and the name indexes are updated in place; the work
    grows with the middle and the entries sharing a primary name with
    it, not with the text — apart from moving the suffix, which writes
    each of its entries' position and displacement. *)
let apply_splice (t : t) (src : string) (sp : splice) : delta =
  let n = t.i_len and arr = t.i_arr and ix = t.i_ix in
  let k = sp.sp_keep and m = sp.sp_from in
  let bytes = sp.sp_bytes and lines = sp.sp_lines in
  let mids = Array.of_list sp.sp_middle in
  let c = Array.length mids in
  let shift = c - (m - k) in
  let len = n + shift in
  (* the new position of a kept entry *)
  let moved o = if o.en_pos < k then o.en_pos else o.en_pos + shift in
  let next_anchor j =
    (* the anchor, in [src], of the entry at new position [j] *)
    if j >= len then String.length src
    else if j < k + c then anchor_at src mids.(j - k) 0
    else
      let o = arr.(j - shift) in
      anchor_at src o.en_parsed (o.en_bytes + bytes)
  in
  (* keys: the entries sharing a primary name with the middle or the
     dropped part are renumbered, in order *)
  let mid_names = Array.map Ext.declared_names mids in
  let touched = Hashtbl.create 8 in
  Array.iter
    (fun names -> Hashtbl.replace touched (primary names) ())
    mid_names;
  for j = k to m - 1 do
    Hashtbl.replace touched (primary arr.(j).en_names) ()
  done;
  (* primary name → the next occurrence number, from the kept prefix's
     count on *)
  let next = Hashtbl.create 8 in
  Hashtbl.iter
    (fun p () ->
      Hashtbl.replace next p
        (List.fold_left
           (fun n o -> if o.en_pos < k then n + 1 else n)
           0 (at ix.ix_primaries p)))
    touched;
  let number p =
    let n = Hashtbl.find next p in
    Hashtbl.replace next p (n + 1);
    key_of p n
  in
  let mid_keys = Array.map (fun names -> number (primary names)) mid_names in
  let rekeyed = ref [] in
  Hashtbl.iter
    (fun p () ->
      List.iter
        (fun o ->
          let key = number p in
          if key <> o.en_key then rekeyed := (o, key) :: !rekeyed)
        (List.sort
           (fun a b -> Int.compare a.en_pos b.en_pos)
           (List.filter (fun o -> o.en_pos >= m) (at ix.ix_primaries p))))
    touched;
  (* the entries this check creates *)
  let copy o ~key ~hash =
    let moves = o.en_pos >= m in
    {
      o with
      en_key = key;
      en_hash = hash;
      en_pos = moved o;
      en_bytes = (if moves then o.en_bytes + bytes else o.en_bytes);
      en_lines = (if moves then o.en_lines + lines else o.en_lines);
      en_book = { o.en_book with bk_old = None };
    }
  in
  let middle =
    Array.mapi
      (fun j d ->
        let o = anchor_at src d 0 in
        make_entry ~key:mid_keys.(j) ~names:mid_names.(j)
          ~hash:(content_hash src o (max o (next_anchor (k + j + 1))))
          ~pos:(k + j) d)
      mids
  in
  let copies =
    List.map (fun (o, key) -> (o, copy o ~key ~hash:o.en_hash)) !rekeyed
  in
  let copies =
    if k = 0 then copies
    else
      let o = arr.(k - 1) in
      let a = anchor src o in
      let hash = content_hash src a (max a (next_anchor k)) in
      if hash = o.en_hash then copies
      else (o, copy o ~key:o.en_key ~hash) :: copies
  in
  let added = Array.to_list middle @ List.map snd copies in
  let dropped =
    List.map fst copies @ Array.to_list (Array.sub arr k (m - k))
  in
  (* each created entry's previous entry is the one its key named *)
  List.iter
    (fun e ->
      let o = Hashtbl.find_opt t.i_by_key e.en_key in
      e.en_book.bk_born <- t.i_checks;
      e.en_book.bk_old <- o;
      e.en_book.bk_prev <- (match o with Some o -> o.en_pos | None -> -1);
      match o with
      | Some o ->
          e.en_ok <- o.en_ok;
          e.en_stamp <- o.en_stamp
      | None -> ())
    added;
  let added_keys = Hashtbl.create 8 in
  List.iter (fun e -> Hashtbl.replace added_keys e.en_key ()) added;
  let removed =
    List.filter (fun o -> not (Hashtbl.mem added_keys o.en_key)) dropped
  in
  (* the survivors' previous positions, in the new order: the kept
     prefix's increase and precede every other, so start at [k - 1] *)
  let copy_at = Hashtbl.create 8 in
  List.iter (fun (o, e) -> Hashtbl.replace copy_at o.en_pos e) copies;
  let prev_at j =
    (* of the entry the new position [j] holds *)
    if j < k || j >= k + c then
      let o = if j < k then arr.(j) else arr.(j - shift) in
      match Hashtbl.find_opt copy_at o.en_pos with
      | Some e -> e.en_book.bk_prev
      | None -> o.en_pos
    else middle.(j - k).en_book.bk_prev
  in
  let first_old =
    if reordered (max 0 (k - 1)) len prev_at then begin
      (* rare: number every survivor with its previous position *)
      for j = 0 to len - 1 do
        let p = prev_at j in
        if j < k then arr.(j).en_book.bk_prev <- p
        else if j >= k + c then arr.(j - shift).en_book.bk_prev <- p
      done;
      Some (first_declarers arr n)
    end
    else None
  in
  (* commit: key table, indexes, array, positions and displacements;
     a splice dropping a good part of the text (a tail parse) re-indexes
     from scratch, which costs less than unlinking entry by entry *)
  let bulk = List.compare_length_with dropped (16 + (len / 4)) > 0 in
  List.iter
    (fun o ->
      (match Hashtbl.find_opt t.i_by_key o.en_key with
      | Some o' when o' == o -> Hashtbl.remove t.i_by_key o.en_key
      | _ -> ());
      if not bulk then unindex_entry ix o)
    dropped;
  List.iter
    (fun e ->
      Hashtbl.replace t.i_by_key e.en_key e;
      if not bulk then index_entry ix e)
    added;
  if len > Array.length arr then begin
    let a = Array.make (max len (2 * Array.length arr)) spare in
    Array.blit arr 0 a 0 k;
    Array.blit arr m a (k + c) (n - m);
    t.i_arr <- a
  end
  else begin
    Array.blit arr m arr (k + c) (n - m);
    if len < n then Array.fill arr len (n - len) spare
  end;
  let a = t.i_arr in
  Array.blit middle 0 a k c;
  if shift <> 0 || bytes <> 0 || lines <> 0 then
    for j = k + c to len - 1 do
      let e = a.(j) in
      e.en_pos <- j;
      e.en_bytes <- e.en_bytes + bytes;
      e.en_lines <- e.en_lines + lines
    done;
  List.iter (fun (_, e) -> a.(e.en_pos) <- e) copies;
  t.i_len <- len;
  if bulk then begin
    Hashtbl.reset ix.ix_declarers;
    Hashtbl.reset ix.ix_providers;
    Hashtbl.reset ix.ix_users;
    Hashtbl.reset ix.ix_primaries;
    for j = len - 1 downto 0 do
      index_entry ix a.(j)
    done
  end;
  { dl_added = added; dl_removed = removed; dl_dropped = dropped;
    dl_first_old = first_old }

(* --- the check: parse, invalidate, walk ----------------------------------- *)

(** Record the locations of [e]'s names where it stands now: as parsed,
    then shifted by its displacement, without relocating the
    declaration. *)
let record_at (sg : Sign.t) (e : entry) : unit =
  Process.record_locs sg e.en_parsed;
  let rec shift = function
    | [] -> ()
    | x :: xs ->
        (* once per name: a declaration may bind a name twice *)
        (if not (List.mem x xs) then
           match Sign.decl_loc sg x with
           | Some l ->
               Sign.set_decl_loc sg x
                 (Ext.shift_loc ~bytes:e.en_bytes ~lines:e.en_lines l)
           | None -> ());
        shift xs
  in
  if e.en_bytes <> 0 || e.en_lines <> 0 then shift e.en_names;
  e.en_book.bk_loc_bytes <- e.en_bytes;
  e.en_book.bk_loc_lines <- e.en_lines

(** The signature records the names' locations as they are now: nothing
    to refresh. *)
let settled_locs (e : entry) : unit =
  e.en_book.bk_loc_bytes <- e.en_bytes;
  e.en_book.bk_loc_lines <- e.en_lines

(** Set the source ranks of the names of the schemas and functions
    among [names]: world lookup and the modes analysis read them in
    source order.  A name's rank is the position of its last declarer, as
    numbering every declaration in order would leave it. *)
let rank (t : t) (sg : Sign.t) (names : string list) : unit =
  let ranked e =
    match e.en_parsed with Ext.Dschema _ | Ext.Drec _ -> true | _ -> false
  in
  List.iter
    (fun x ->
      let r =
        List.fold_left
          (fun r e -> if ranked e then max r e.en_pos else r)
          (-1) (at t.i_ix.ix_declarers x)
      in
      if r >= 0 then Sign.set_rank sg x r)
    names

let check (t : t) (sink : Diagnostics.sink) (sg : Sign.t) ~(name : string)
    (src : string) : report =
  let errs0 = Diagnostics.error_count sink in
  let sp =
    Telemetry.with_span "parse" (fun () -> parse_incremental sink t ~name src)
  in
  t.i_text <- src;
  t.i_source <- name;
  t.i_parse_ok <- Diagnostics.error_count sink = errs0;
  t.i_checks <- t.i_checks + 1;
  let stamp = t.i_checks in
  let dl = apply_splice t src sp in
  let arr = t.i_arr and len = t.i_len in
  let created e = e.en_book.bk_born = stamp in
  (* seeds: the created entries that are new or changed, and every entry
     whose last check failed (always retried, so an erroneous-then-fixed
     declaration fully recovers); then the scope flips of a reorder *)
  let seeds = ref [] in
  List.iter
    (fun e ->
      match e.en_book.bk_old with
      | Some o when o.en_hash = e.en_hash && o.en_ok -> ()
      | _ -> seeds := e :: !seeds)
    dl.dl_added;
  for i = 0 to len - 1 do
    let e = arr.(i) in
    if (not e.en_ok) && not (created e) then seeds := e :: !seeds
  done;
  let flips =
    match dl.dl_first_old with
    | None -> []
    | Some first_old -> flipped t first_old
  in
  let ncands = close t (flips @ !seeds) dl.dl_removed in
  let cand e = e.en_book.bk_cand = stamp and seed e = e.en_book.bk_seed = stamp in
  (* the signature holds a candidate's names as its previous entry
     declared them ([spare], with none, if it is new) *)
  let previous e =
    if not (created e) then e
    else match e.en_book.bk_old with Some o -> o | None -> spare
  in
  (* retire now: the removed entries, the seeds, and every candidate
     that shares a name with another entry, or is a schema, [%worlds] or
     [%mode] — the walk below puts back, or re-binds to its old id,
     whatever keeps its meaning.  Any other candidate is retired only
     when the walk finds a changed name it mentions: no declaration the
     walk re-checks before it can see its names (one mentioning them
     would have made it a seed), and it provides no world. *)
  let retired_names = Hashtbl.create 16 in
  (* open the retire pass even when nothing is retired up front: the
     names the walk binds to new ids must read as changed *)
  Sign.retire sg [];
  let retire names =
    List.iter (fun x -> Hashtbl.replace retired_names x ()) names;
    Sign.retire sg names
  in
  List.iter (fun o -> retire o.en_names) dl.dl_removed;
  if ncands > 0 then
    for i = 0 to len - 1 do
      let e = arr.(i) in
      if cand e && seed e then retire (previous e).en_names
    done;
  let rec own e = function
    | [] -> true
    | x :: xs -> (
        (not (Hashtbl.mem retired_names x))
        && match at t.i_ix.ix_declarers x with
           | [ e' ] -> e' == e && own e xs
           | _ -> false)
  in
  if ncands > 0 then
    for i = 0 to len - 1 do
      let e = arr.(i) in
      if cand e && not (seed e) then
        match e.en_parsed with
        | (Ext.Dtyp _ | Ext.Dmutual _ | Ext.Drec _ | Ext.Dblock _)
          when own e e.en_names ->
            e.en_book.bk_lazy <- stamp
        | _ -> Sign.retire sg (previous e).en_names
    done;
  let lazily e = e.en_book.bk_lazy = stamp in
  (* source ranks: the created and dropped schemas and functions, and
     every one the splice moved *)
  List.iter (fun e -> rank t sg e.en_names) dl.dl_added;
  List.iter (fun o -> rank t sg o.en_names) dl.dl_dropped;
  if sp.sp_from - sp.sp_keep <> List.length sp.sp_middle then
    for i = sp.sp_keep + List.length sp.sp_middle to len - 1 do
      match arr.(i).en_parsed with
      | Ext.Dschema _ | Ext.Drec _ -> rank t sg arr.(i).en_names
      | _ -> ()
    done;
  let rechecked = ref 0 and restored = ref 0 in
  let deadline_hit = ref false in
  (* the position the walk is at: the sink's error cap can abort the walk
     there ([Stop] from {!Diagnostics.emit}) *)
  let cur = ref 0 in
  (* early cutoff: a candidate that is no seed, and none of whose
     mentioned names changed meaning, reads exactly what it read before *)
  let rec affected names = function
    | [] -> false
    | r :: rs ->
        ((not (List.mem r names)) && Sign.changed sg r) || affected names rs
  in
  let unaffected e = not (affected e.en_names e.en_refs) in
  let recheck e =
    incr rechecked;
    e.en_ok <- false;
    e.en_stamp <- stamp;
    (* it records its names' locations as it starts *)
    settled_locs e;
    Process.process_decl_tolerant sink sg (decl e);
    e.en_ok <- not (List.exists (Sign.is_poisoned sg) e.en_names)
  in
  (* a candidate the walk gives up on is left failed and stamped with
     this check, its names retired (so {!Sign.settle} retracts them) and
     no location recorded: the next check re-checks it *)
  let give_up e =
    if lazily e then Sign.retire sg e.en_names;
    e.en_ok <- false;
    e.en_stamp <- stamp;
    settled_locs e
  in
  Fun.protect
    ~finally:(fun () ->
      (* the candidates an abort skipped, and the one it cut short *)
      if !cur < len then begin
        let e = arr.(!cur) in
        if cand e then begin
          e.en_ok <- false;
          e.en_stamp <- stamp
        end;
        for i = !cur + 1 to len - 1 do
          if cand arr.(i) then give_up arr.(i)
        done
      end;
      Sign.settle sg;
      List.iter (fun e -> e.en_book.bk_old <- None) dl.dl_added)
    (fun () ->
      while !cur < len do
        let e = arr.(!cur) in
        if cand e then
          if !deadline_hit || Limits.expired () then begin
            (* out of time: leave the rest unchecked-but-marked-failed
               so the next check re-checks them; poison their names
               so survivors that reference them degrade gracefully *)
            deadline_hit := true;
            give_up e;
            List.iter (Sign.poison sg) e.en_names
          end
          else if lazily e then
            if unaffected e then incr restored
            else begin
              Sign.retire sg e.en_names;
              recheck e
            end
          else if
            (not (seed e)) && Sign.restorable sg e.en_names && unaffected e
          then begin
            (* put back; its verdict and stamp carry over *)
            Sign.restore sg e.en_names;
            e.en_book.bk_loc_bytes <- unrecorded;
            incr restored
          end
          else recheck e;
        incr cur
      done);
  let failed = ref 0 in
  for i = 0 to len - 1 do
    if not arr.(i).en_ok then incr failed
  done;
  {
    r_decls = len;
    r_failed = !failed;
    r_rechecked = !rechecked;
    r_reused = len - ncands + !restored;
    r_deadline_hit = !deadline_hit;
  }

let consistent (t : t) : (unit, string) result =
  let es = entries t in
  let fresh = new_index () in
  List.iter (index_entry fresh) es;
  let keys tbl =
    List.sort compare
      (Hashtbl.fold
         (fun x l acc ->
           (x, List.sort compare (List.map (fun e -> e.en_key) l)) :: acc)
         tbl [])
  in
  let entry i e r =
    if e.en_pos <> i then Some (e.en_key ^ ": position")
    else if e.en_key <> r.en_key then Some (e.en_key ^ ": key " ^ r.en_key)
    else
      match Hashtbl.find_opt t.i_by_key e.en_key with
      | Some e' when e' == e -> None
      | _ -> Some (e.en_key ^ ": not in the key table")
  in
  let index what kept built =
    if keys kept <> keys built then Some what else None
  in
  let rebuilt = entry_list t.i_text (List.map decl es) in
  match
    List.find_map Fun.id
      (List.concat
         [
           List.mapi (fun i (e, r) -> entry i e r) (List.combine es rebuilt);
           [
             (if Hashtbl.length t.i_by_key <> t.i_len then Some "stale keys"
              else None);
             index "declarers" t.i_ix.ix_declarers fresh.ix_declarers;
             index "providers" t.i_ix.ix_providers fresh.ix_providers;
             index "users" t.i_ix.ix_users fresh.ix_users;
             index "primaries" t.i_ix.ix_primaries fresh.ix_primaries;
           ];
         ])
  with
  | None -> Ok ()
  | Some what -> Error what

(* --- whole-signature analysis caching ------------------------------------- *)

let seen_of (e : entry) : seen =
  {
    sd_key = e.en_key;
    sd_hash = e.en_hash;
    sd_ok = e.en_ok;
    sd_loc =
      Ext.shift_loc ~bytes:e.en_bytes ~lines:e.en_lines
        (Ext.decl_loc e.en_parsed);
  }

(* [p] moved [bytes] bytes and [lines] lines down is [q] *)
let moved_to ~bytes ~lines (p : Loc.pos) (q : Loc.pos) =
  p.Loc.offset + bytes = q.Loc.offset
  && p.Loc.line + lines = q.Loc.line
  && p.Loc.col = q.Loc.col

(* [e] is the declaration [s] saw: {!seen_of}[ e = s], decided without
   allocating (the displaced location is compared field by field, as
   {!Ext.shift_loc} would build it) *)
let still (e : entry) (s : seen) : bool =
  let l = Ext.decl_loc e.en_parsed and m = s.sd_loc in
  let ghost = Loc.is_ghost l in
  let bytes = if ghost then 0 else e.en_bytes
  and lines = if ghost then 0 else e.en_lines in
  e.en_hash = s.sd_hash && e.en_ok = s.sd_ok
  && String.equal e.en_key s.sd_key
  && String.equal l.Loc.source m.Loc.source
  && moved_to ~bytes ~lines l.Loc.start_pos m.Loc.start_pos
  && moved_to ~bytes ~lines l.Loc.end_pos m.Loc.end_pos

let unchanged (t : t) (seen : seen array) : bool =
  Array.length seen = t.i_len
  &&
  let rec go i = i = t.i_len || (still t.i_arr.(i) seen.(i) && go (i + 1)) in
  go 0

(** Bring the signature's recorded locations up to the entries'
    displacements: the analyzers are their only readers.  A name two
    declarations bind is recorded where the later one stands, as a fresh
    check, which records every declaration's names in order, leaves it:
    once an entry is re-recorded, so is every later one sharing a name
    with it. *)
let refresh_locs (t : t) (sg : Sign.t) : unit =
  let written = Hashtbl.create 16 in
  for i = 0 to t.i_len - 1 do
    let e = t.i_arr.(i) in
    if
      e.en_book.bk_loc_bytes <> e.en_bytes
      || e.en_book.bk_loc_lines <> e.en_lines
      || (Hashtbl.length written > 0
         && List.exists (Hashtbl.mem written) e.en_names)
    then begin
      record_at sg e;
      List.iter
        (fun x ->
          match at t.i_ix.ix_declarers x with
          | [ _ ] -> ()
          | _ -> Hashtbl.replace written x ())
        e.en_names
    end
  done

let analysis (t : t) (sink : Diagnostics.sink) (sg : Sign.t) (name : string)
    (analyze : unit -> J.t) : J.t * int * int =
  match Hashtbl.find_opt t.i_caches name with
  | Some c when unchanged t c.ac_seen ->
      Diagnostics.with_stop sink (fun () ->
          List.iter (Diagnostics.emit sink) c.ac_diags);
      (c.ac_result, 0, t.i_len)
  | cached ->
      let since = Option.fold ~none:0 ~some:(fun c -> c.ac_stamp) cached in
      let rechecked = ref 0 in
      for i = 0 to t.i_len - 1 do
        if t.i_arr.(i).en_stamp > since then incr rechecked
      done;
      let seen = Array.init t.i_len (fun i -> seen_of t.i_arr.(i)) in
      refresh_locs t sg;
      let result = analyze () in
      Hashtbl.replace t.i_caches name
        {
          ac_seen = seen;
          ac_stamp = t.i_checks;
          ac_result = result;
          ac_diags = Diagnostics.all sink;
        };
      (result, !rechecked, t.i_len - !rechecked)
