(** Subordination between LF type families.

    [a ≼ b] ("[a] is subordinate to [b]") holds when terms of family [a]
    can appear inside terms — or inside the types of terms — of family
    [b].  The relation is generated from the declared signature exactly as
    in Twelf/Beluga:

    - for every constant [c : Πx₁:A₁…Πxₙ:Aₙ. b·M⃗], each domain
      contributes [target(Aᵢ) ≼ b], recursively inside the [Aᵢ]
      (a domain [Πy:B.C] nested anywhere contributes
      [target(B) ≼ target(C)]);
    - for every family [b : Πx:A.K], the index domains contribute
      [target(A) ≼ b];
    - families of constants appearing in index terms [M⃗] of an atomic
      type [a·M⃗] are subordinate to [a];

    closed under reflexivity and transitivity.

    The result is the precondition for context strengthening: a
    declaration [x:A] can be pruned from the context of a term of family
    [b] whenever [target(A) ⋠ b].  The worlds and modes analyzers
    strengthen this way; the lint layer warns about vacuous dependencies
    and uses mutual subordination for the adequacy check.

    The closure is a function of exactly two inputs: the family ids and
    the generating edges between them.  {!build} writes the edges into a
    bitset over the family-id array and, given the relation of an earlier
    run whose ids and edge rows are equal to the new ones, returns that
    relation instead of closing again. *)

open Belr_support
open Belr_syntax
module Sign = Belr_lf.Sign

let c_rebuilt =
  Telemetry.counter ~help:"subordination closures computed"
    "analysis.subord.rebuilt"

type t = {
  so_ids : Lf.cid_typ array;  (** position → family id, sorted ascending *)
  so_words : int;  (** 64-bit words per row *)
  so_edges : Bytes.t;
      (** the generating edges, diagonal included, before the closure:
          rows as in [so_rel] *)
  so_rel : Bytes.t;
      (** one bitset row per family, [so_words] little-endian 64-bit words
          each: bit [j] of row [i] is set iff family at position [i] ≼
          family at position [j] *)
}

(* Byte offset of the word holding bit [j] of row [i]. *)
let word_at words i j = ((i * words) + (j lsr 6)) lsl 3

let bit j = Int64.shift_left 1L (j land 63)

let mem (rel : Bytes.t) words i j =
  Int64.logand (Bytes.get_int64_le rel (word_at words i j)) (bit j) <> 0L

let set (rel : Bytes.t) words i j =
  let o = word_at words i j in
  Bytes.set_int64_le rel o (Int64.logor (Bytes.get_int64_le rel o) (bit j))

(* Set bits of a word (SWAR popcount). *)
let popcount (x : int64) =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    add
      (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0f0f0f0f0f0f0f0fL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

(* Call [add a b] for every generating edge [a ≼ b] of the families
   [typs] and constants [consts] of [sg]. *)
let iter_edges (sg : Sign.t) ~typs ~consts
    (add : Lf.cid_typ -> Lf.cid_typ -> unit) =
  (* families of constants used in the index terms of an atomic type
     headed by [!into]: one visitor for the whole walk, since index terms
     hold no types *)
  let into = ref 0 in
  let index_refs =
    Refs.iter_normal (function
      | Refs.RConst c -> add (Sign.const_entry sg c).Sign.c_family !into
      | _ -> ())
  in
  let spine_families a sp =
    into := a;
    List.iter index_refs sp
  in
  let rec typ_edges (ty : Lf.typ) =
    match ty with
    | Lf.Atom (a, sp) -> spine_families a sp
    | Lf.Pi (_, a, b) ->
        add (Lf.typ_target a) (Lf.typ_target b);
        typ_edges a;
        typ_edges b
  in
  let rec kind_edges into (k : Lf.kind) =
    match k with
    | Lf.Ktype -> ()
    | Lf.Kpi (_, a, k) ->
        add (Lf.typ_target a) into;
        typ_edges a;
        kind_edges into k
  in
  Array.iter
    (fun (a, (te : Sign.typ_entry)) -> kind_edges a te.Sign.t_kind)
    typs;
  Array.iter
    (fun (_, (ce : Sign.const_entry)) -> typ_edges ce.Sign.c_typ)
    consts

let sorted_typs sg =
  let typs = Array.of_list (Sign.all_typs sg) in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) typs;
  typs

(** The generating edges [(a, b)] (meaning [a ≼ b]) read off the
    signature, {e before} the reflexive-transitive closure.  Exposed so
    the test suite can cross-check {!analyze} against a brute-force
    closure over the same edge set. *)
let direct_edges (sg : Sign.t) : (Lf.cid_typ * Lf.cid_typ) list =
  let edges = ref [] in
  iter_edges sg ~typs:(sorted_typs sg)
    ~consts:(Array.of_list (Sign.all_consts sg))
    (fun a b -> edges := (a, b) :: !edges);
  !edges

(* Position of family [a] in [ids.(lo) … ids.(hi - 1)], ascending, or -1. *)
let rec search (ids : Lf.cid_typ array) (a : Lf.cid_typ) lo hi : int =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let x = ids.(mid) in
    if x = a then mid
    else if x < a then search ids a (mid + 1) hi
    else search ids a lo mid

let find ids a = search ids a 0 (Array.length ids)

(* Warshall's closure of [rel] in place: whenever [k] is in row [i], row
   [k] is ORed into row [i] a 64-bit word at a time, so [n] families cost
   O(n²) bit tests plus O(n³/64) word operations. *)
let close n words (rel : Bytes.t) =
  for k = 0 to n - 1 do
    let row_k = word_at words k 0 in
    for i = 0 to n - 1 do
      if mem rel words i k then begin
        let row_i = word_at words i 0 in
        for q = 0 to words - 1 do
          let o = row_i + (q lsl 3) in
          Bytes.set_int64_le rel o
            (Int64.logor
               (Bytes.get_int64_le rel o)
               (Bytes.get_int64_le rel (row_k + (q lsl 3))))
        done
      end
    done
  done

(** The reflexive-transitive subordination relation of the families
    [typs] (ascending by id) and constants [consts] of [sg].  The
    generating edges are written straight into a bitset over the
    family-id array.  When [prev] was computed over the same family ids
    and its edge rows equal the new ones, [prev] itself is returned:
    the closure is a function of those two inputs alone.  Otherwise the
    rows are closed, which bumps [analysis.subord.rebuilt]. *)
let build ?prev (sg : Sign.t) ~(typs : (Lf.cid_typ * Sign.typ_entry) array)
    ~(consts : (Lf.cid_const * Sign.const_entry) array) : t =
  let n = Array.length typs in
  let same_ids =
    match prev with
    | Some p ->
        Array.length p.so_ids = n
        &&
        let rec eq i = i = n || (p.so_ids.(i) = fst typs.(i) && eq (i + 1)) in
        eq 0
    | None -> false
  in
  let ids =
    match prev with Some p when same_ids -> p.so_ids | _ -> Array.map fst typs
  in
  let words = (n + 63) lsr 6 in
  let edges = Bytes.make (n * words * 8) '\000' in
  for i = 0 to n - 1 do
    set edges words i i
  done;
  iter_edges sg ~typs ~consts (fun a b ->
      let i = find ids a and j = find ids b in
      if i >= 0 && j >= 0 then set edges words i j);
  match prev with
  | Some p when same_ids && Bytes.equal edges p.so_edges -> p
  | _ ->
      Telemetry.bump c_rebuilt;
      let rel = Bytes.copy edges in
      close n words rel;
      { so_ids = ids; so_words = words; so_edges = edges; so_rel = rel }

(** Compute the reflexive-transitive subordination relation of a
    signature from scratch. *)
let analyze (sg : Sign.t) : t =
  build sg ~typs:(sorted_typs sg) ~consts:(Array.of_list (Sign.all_consts sg))

(** [leq t a b]: is [a ≼ b]?  Unknown families are only related to
    themselves. *)
let leq (t : t) (a : Lf.cid_typ) (b : Lf.cid_typ) : bool =
  let i = find t.so_ids a and j = find t.so_ids b in
  if i >= 0 && j >= 0 then mem t.so_rel t.so_words i j else a = b

(** Mutual subordination [a ≼ b ∧ b ≼ a] — the families' terms can nest
    inside each other, so neither can be strengthened away from the
    other's contexts. *)
let mutual (t : t) a b = leq t a b && leq t b a

(** All families the relation was computed over. *)
let families (t : t) : Lf.cid_typ list = Array.to_list t.so_ids

(** Families downstream of [seeds]: every [b] with [a ≼ b] for some seed
    [a] (including the seeds themselves — the relation is reflexive).
    These are exactly the families whose terms or types can contain seed
    material. *)
let dependents (t : t) (seeds : Lf.cid_typ list) : Lf.cid_typ list =
  List.filter
    (fun b -> List.exists (fun a -> leq t a b) seeds)
    (families t)

(** The non-reflexive pairs [(a, b)] with [a ≼ b] and [a ≠ b], in a
    deterministic order. *)
let pairs (t : t) : (Lf.cid_typ * Lf.cid_typ) list =
  let out = ref [] in
  let n = Array.length t.so_ids in
  for i = n - 1 downto 0 do
    for j = n - 1 downto 0 do
      if i <> j && mem t.so_rel t.so_words i j then
        out := (t.so_ids.(i), t.so_ids.(j)) :: !out
    done
  done;
  !out

(** [List.length (pairs t)], counted from the set bits without building
    the list. *)
let pair_count (t : t) : int =
  let bits = ref 0 in
  for w = 0 to (Bytes.length t.so_rel lsr 3) - 1 do
    bits := !bits + popcount (Bytes.get_int64_le t.so_rel (w lsl 3))
  done;
  (* every diagonal bit is set: the relation is reflexive *)
  !bits - Array.length t.so_ids

(** Render the non-reflexive part of the relation, one [a =< b] line per
    pair, using the signature's family names. *)
let pp (sg : Sign.t) ppf (t : t) =
  match pairs t with
  | [] -> Fmt.pf ppf "subordination: no cross-family dependencies@."
  | ps ->
      Fmt.pf ppf "subordination (a =< b: a-terms occur in b-terms):@.";
      List.iter
        (fun (a, b) ->
          Fmt.pf ppf "  %s =< %s@." (Sign.typ_entry sg a).Sign.t_name
            (Sign.typ_entry sg b).Sign.t_name)
        ps
