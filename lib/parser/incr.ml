open Belr_support
open Belr_lf
module J = Json

(* --- per-declaration records and the engine state ------------------------ *)

type entry = {
  en_key : string;
  en_names : string list;
  en_refs : string list;
  en_hash : int;
  en_decl : Ext.decl;
  mutable en_ok : bool;
  mutable en_stamp : int;
}

type analysis_cache = {
  ac_sig : (string * int * bool * Loc.t) list;
      (** (key, content hash, last-check verdict, location) per
          declaration when the analysis ran — the cache is valid iff this
          still matches: text in no declaration's slice moves every
          location without changing any hash *)
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

type t = {
  mutable i_entries : entry list;  (** declaration order *)
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

let create () : t =
  {
    i_entries = [];
    i_text = "";
    i_source = "";
    i_parse_ok = false;
    i_checks = 0;
    i_caches = Hashtbl.create 4;
  }

let reset (t : t) : unit =
  t.i_entries <- [];
  t.i_text <- "";
  t.i_source <- "";
  t.i_parse_ok <- false;
  Hashtbl.reset t.i_caches

let entries (t : t) : entry list = t.i_entries
let checks (t : t) : int = t.i_checks

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

(** Parse [src] against the previous parse, so a warm re-check parses
    the edit, not the text.  The previous declarations split into a
    prefix whose text, up to the cut (see {!decl_cut}) of the first
    declaration not reused, lies in the longest common prefix of the old
    and new text; a suffix whose text, from the cut of its first
    declaration on, lies in the longest common suffix; and the middle
    between them.  Only the middle is lexed, starting at the prefix cut's
    offset and line; the suffix's declarations are reused shifted by the
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
    (src : string) : reparse =
  let parse ?stop from sink =
    Option.map
      (fun lexemes ->
        let ds = Parse.parse_lexemes_tolerant sink lexemes in
        Telemetry.add c_parsed_decls (List.length ds);
        ds)
      (Parse.lex_tolerant sink ~name ~from ?stop src)
  in
  let tail prefix from =
    match parse from sink with
    | Some ds -> { rp_prefix = prefix; rp_middle = ds; rp_suffix = [] }
    | None -> { rp_prefix = []; rp_middle = []; rp_suffix = [] }
  in
  if (not t.i_parse_ok) || t.i_entries = [] || name <> t.i_source then
    tail [] Lexer.origin
  else begin
    let old = t.i_text in
    let olds = Array.of_list t.i_entries in
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
    | None -> tail prefix from
    | Some (m, e) -> (
        let probe = Diagnostics.sink () in
        match parse ~stop:(e + bytes) from probe with
        | Some middle when Diagnostics.all probe = [] ->
            let first = olds.(m).en_decl in
            let lines =
              from.Lexer.c_line
              + count_newlines src from.Lexer.c_offset (e + bytes)
              - (cursor_at old first e).Lexer.c_line
            in
            {
              rp_prefix = prefix;
              rp_middle = middle;
              rp_suffix =
                List.map
                  (fun o -> (o, Ext.shift_decl ~bytes ~lines o.en_decl))
                  (Array.to_list (Array.sub olds m (n - m)));
            }
        | _ -> tail prefix from)
  end

(* --- invalidation ------------------------------------------------------- *)

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

(* --- the check: parse, invalidate, walk ----------------------------------- *)

let check (t : t) (sink : Diagnostics.sink) (sg : Sign.t) ~(name : string)
    (src : string) : report =
  let errs0 = Diagnostics.error_count sink in
  let rp =
    Telemetry.with_span "parse" (fun () -> parse_incremental sink t ~name src)
  in
  t.i_text <- src;
  t.i_source <- name;
  t.i_parse_ok <- Diagnostics.error_count sink = errs0;
  t.i_checks <- t.i_checks + 1;
  let stamp = t.i_checks in
  let olds = t.i_entries in
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
     [i_text] updated, so [news] must be committed regardless.
     Pre-mark every candidate failed and stamped with this check (the
     loop overwrites the verdict when it actually processes one) and
     commit in a [finally], after {!Sign.settle} retracts whatever is
     still retired: candidates the abort skipped then re-check on the
     next check instead of being reused as stale successes over an
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
      t.i_entries <- Array.to_list news)
    (fun () ->
      Array.iteri
        (fun i e ->
          if not candidate.(i) then incr reused
          else if !deadline_hit || Limits.expired () then begin
            (* out of time: leave the rest unchecked-but-marked-failed
               so the next check re-checks them; poison their names
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
  {
    r_decls = Array.length news;
    r_failed = Array.fold_left (fun n e -> if e.en_ok then n else n + 1) 0 news;
    r_rechecked = !rechecked;
    r_reused = !reused;
    r_deadline_hit = !deadline_hit;
  }

(* --- whole-signature analysis caching ------------------------------------- *)

let cache_sig (entries : entry list) : (string * int * bool * Loc.t) list =
  List.map
    (fun e -> (e.en_key, e.en_hash, e.en_ok, Ext.decl_loc e.en_decl))
    entries

let analysis (t : t) (sink : Diagnostics.sink) (name : string)
    (analyze : unit -> J.t) : J.t * int * int =
  let news = t.i_entries in
  let now = cache_sig news in
  match Hashtbl.find_opt t.i_caches name with
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
      Hashtbl.replace t.i_caches name
        {
          ac_sig = now;
          ac_stamp = t.i_checks;
          ac_result = result;
          ac_diags = Diagnostics.all sink;
        };
      (result, rechecked, reused)
