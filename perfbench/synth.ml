(** The seeded synthetic signature behind [sig-scale], [serve-edit] and
    [serve-mixed], and everything the benchmark predicts about it.

    The signature has {!n_fams} LF families [sf0 … sf287].  Family [i]'s
    first constructor takes arguments of 1–3 earlier families: the
    nearest one that is not a leaf, plus seeded picks among the
    {!window} families before it.  So every family but the planted
    leaves is subordinate to every later one, the subordination
    relation has the same density under every seed, and an edit to
    family [i] invalidates every later family.  Around the families sit:

    - a planted leaf every 96 families that no declaration references
      (lint [W0704], once per constant);
    - one planted vacuous binder [sv<i> : {x : sf<j>} sf<i>] in each
      block of 64 families (lint [W0701]);
    - an LFR refinement [ss<i> <| sf<i>] on every 16th family, used by
      a [rec sq<i>] except on every 64th (never referenced: lint
      [W0704]);
    - [%mode] on the families below {!moded_below} (a downward-closed
      set, since constructors only take earlier families);
    - on every 32nd family a schema, a [%block], a [%worlds] and a
      [rec sr<i>] over the schema, so the worlds analyzer has
      extensions to check.

    The predictions (lint findings, invalidation closures) are computed
    from this construction alone, never by running belr. *)

let n_fams = 288

let window = 16

let moded_below = 64

let has_lfr i = i mod 16 = 15

let lfr_used i = has_lfr i && i mod 64 <> 63

let has_worlds i = i mod 32 = 3

let is_leaf i = i mod 96 = 85

type fam = {
  f_ctors : int list list;
      (** argument families of constructor [sc<i>_<k>], in order *)
  f_vacuous : int option;  (** [Some j]: the planted [sv<i> : {x : sf<j>} sf<i>] *)
}

type t = fam array

(** Shuffle an array in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let generate (seed : int) : t =
  let rng = Random.State.make [| 0x5e11; seed |] in
  (* one vacuous binder per block of 64, never first in its block *)
  let vac_at =
    Array.init ((n_fams + 63) / 64) (fun b ->
        1 + Random.State.int rng (min 64 (n_fams - (64 * b)) - 1))
  in
  let shuffled l =
    let a = Array.of_list l in
    shuffle rng a;
    Array.to_list a
  in
  (* the shape (how many argument families, how many constructors) is a
     function of i; the seed picks which families and in what order *)
  Array.init n_fams (fun i ->
      if i = 0 then { f_ctors = [ []; [ 0 ] ]; f_vacuous = None }
      else
        let prev = if is_leaf (i - 1) then i - 2 else i - 1 in
        let pool =
          List.filter
            (fun j -> j <> prev && not (is_leaf j))
            (List.init (i - max 0 (i - window)) (fun d -> max 0 (i - window) + d))
        in
        let others = List.filteri (fun k _ -> k < i mod 3) (shuffled pool) in
        let refs = shuffled (prev :: others) in
        let pick () = List.nth refs (Random.State.int rng (List.length refs)) in
        let extra =
          List.init (i mod 2 + (i / 2 mod 2)) (fun k ->
              if k = 0 then [ i; pick () ] else [ pick () ])
        in
        {
          f_ctors = refs :: extra;
          f_vacuous = (if vac_at.(i / 64) = i mod 64 then Some (pick ()) else None);
        })

(* --- edit state ----------------------------------------------------------- *)

(** What the serve workloads change: which families carry the extra
    constructor [sx<i> : sf<j> -> sf<i>] (with [j] the first argument
    family of [sc<i>_0], so no subordination edge is added), whether the
    §2 families [tm] / [deq] carry theirs, and where a planted
    ill-formed declaration sits (before family [k]). *)
type state = {
  st_extra : bool array;
  mutable st_tm : bool;
  mutable st_deq : bool;
  mutable st_bad : int option;
}

let base_state () =
  { st_extra = Array.make n_fams false; st_tm = false; st_deq = false;
    st_bad = None }

let fam_name i = Printf.sprintf "sf%d" i

let extra_arg (sg : t) i =
  match sg.(i).f_ctors with (j :: _) :: _ -> j | _ -> i

(* --- rendering ------------------------------------------------------------- *)

(** One declaration of the rendered signature: the names it binds, the
    names it mentions, and its text. *)
type decl = { d_names : string list; d_refs : string list; d_text : string }

let arrow args res =
  String.concat " -> " (List.map fam_name args @ [ res ])

let decls_of_fam (sg : t) (st : state) i : decl list =
  let f = sg.(i) in
  let me = fam_name i in
  let ctors =
    List.mapi (fun k args -> (Printf.sprintf "sc%d_%d" i k, arrow args me, args))
      f.f_ctors
    @ (match f.f_vacuous with
      | Some j -> [ (Printf.sprintf "sv%d" i, Printf.sprintf "{x : sf%d} %s" j me, [ j ]) ]
      | None -> [])
    @
    if st.st_extra.(i) then
      let j = extra_arg sg i in
      [ (Printf.sprintf "sx%d" i, arrow [ j ] me, [ j ]) ]
    else []
  in
  let refs_of args = List.sort_uniq compare (List.map fam_name args) in
  let lf =
    {
      d_names = me :: List.map (fun (c, _, _) -> c) ctors;
      d_refs = refs_of (List.concat_map (fun (_, _, a) -> a) ctors);
      d_text =
        Printf.sprintf "LF %s : type =\n%s;\n" me
          (String.concat "\n"
             (List.map (fun (c, ty, _) -> Printf.sprintf "| %s : %s" c ty) ctors));
    }
  in
  let mode =
    if i < moded_below then
      [ { d_names = [ me ^ "%mode" ]; d_refs = [ me ];
          d_text = Printf.sprintf "%%mode %s;\n" me } ]
    else []
  in
  let lfr =
    if has_lfr i then
      let s = Printf.sprintf "ss%d" i in
      let args = List.hd f.f_ctors in
      { d_names = [ s ]; d_refs = me :: Printf.sprintf "sc%d_0" i :: refs_of args;
        d_text =
          Printf.sprintf "LFR %s <| %s : sort =\n| sc%d_0 : %s;\n" s me i
            (arrow args s) }
      ::
      (if lfr_used i then
         [ { d_names = [ Printf.sprintf "sq%d" i ]; d_refs = [ s ];
             d_text =
               Printf.sprintf "rec sq%d : [ |- %s] -> [ |- %s] = fn d => d;\n" i s s } ]
       else [])
    else []
  in
  let worlds =
    if has_worlds i then
      let g = Printf.sprintf "sg%d" i and b = Printf.sprintf "sb%d" i in
      [
        { d_names = [ g; g ^ "^" ]; d_refs = [ me ];
          d_text = Printf.sprintf "schema %s = | sw%d : block (x : %s);\n" g i me };
        { d_names = [ b ]; d_refs = [ me ];
          d_text = Printf.sprintf "%%block %s = block (x : %s);\n" b me };
        { d_names = [ me ^ "%worlds" ]; d_refs = [ b; me ];
          d_text = Printf.sprintf "%%worlds (%s) %s;\n" b me };
        { d_names = [ Printf.sprintf "sr%d" i ]; d_refs = [ g; me ];
          d_text =
            Printf.sprintf
              "rec sr%d : (Psi : %s) [Psi |- %s] -> [Psi |- %s] =\n\
               mlam Psi => fn d => d;\n"
              i g me me };
      ]
    else []
  in
  (lf :: mode) @ lfr @ worlds

let bad_decl k =
  {
    d_names = [ Printf.sprintf "sbad%d" k; Printf.sprintf "sbadc%d" k ];
    d_refs = [ Printf.sprintf "snothere%d" k ];
    d_text =
      Printf.sprintf "LF sbad%d : type =\n| sbadc%d : snothere%d -> sbad%d;\n" k k
        k k;
  }

(** The synthetic declarations in source order under [st]. *)
let decls (sg : t) (st : state) : decl list =
  List.concat
    (List.init n_fams (fun i ->
         (if st.st_bad = Some i then [ bad_decl i ] else [])
         @ decls_of_fam sg st i))

let text_of (ds : decl list) : string =
  String.concat "\n" (List.map (fun d -> d.d_text) ds)

(* --- predictions ------------------------------------------------------------ *)

(** Lint findings of the synthetic signature under [st], by code: one
    [W0701] per planted vacuous binder; one [W0704] per constant of a
    family nothing outside it references (a family counts as referenced
    by another family's constructor, a refinement of it, or a
    schema/[%block]/[%worlds]/[rec] naming it), and one per refinement
    no [rec] uses. *)
let lint_codes (sg : t) (st : state) : (string * int) list =
  let used = Array.make n_fams false in
  Array.iteri
    (fun i f ->
      List.iter
        (List.iter (fun j -> if j <> i then used.(j) <- true))
        f.f_ctors;
      Option.iter (fun j -> used.(j) <- true) f.f_vacuous;
      if has_lfr i || has_worlds i then used.(i) <- true)
    sg;
  let vacuous = ref 0 and unused = ref 0 in
  Array.iteri
    (fun i f ->
      if f.f_vacuous <> None then incr vacuous;
      if not used.(i) then
        unused :=
          !unused + List.length f.f_ctors
          + (if f.f_vacuous <> None then 1 else 0)
          + if st.st_extra.(i) then 1 else 0;
      if has_lfr i && not (lfr_used i) then incr unused)
    sg;
  List.filter (fun (_, n) -> n > 0) [ ("W0701", !vacuous); ("W0704", !unused) ]

(** Declaration counts of the checked base signature, keyed like
    [Sign.summary]. *)
let counts (sg : t) : (string * int) list =
  let count p = List.length (List.filter p (List.init n_fams Fun.id)) in
  let consts =
    Array.fold_left
      (fun n f ->
        n + List.length f.f_ctors + if f.f_vacuous <> None then 1 else 0)
      0 sg
  in
  List.sort compare
    [
      ("typs", n_fams);
      ("srts", count has_lfr);
      ("consts", consts);
      ("schemas", count has_worlds);
      ("sschemas", 0);
      ("recs", count has_worlds + count lfr_used);
    ]

(** Declarations transitively mentioning any of [names] (including the
    declarations binding them): what an edit to the declarations binding
    [names] can change, i.e. the useful part of an incremental re-check. *)
let closure (ds : decl list) (names : string list) : int =
  let bad = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace bad n ()) names;
  let hit = Array.make (List.length ds) false in
  let arr = Array.of_list ds in
  let grew = ref true in
  while !grew do
    grew := false;
    Array.iteri
      (fun k d ->
        if
          (not hit.(k))
          && List.exists (Hashtbl.mem bad) (d.d_names @ d.d_refs)
        then begin
          hit.(k) <- true;
          grew := true;
          List.iter (fun n -> Hashtbl.replace bad n ()) d.d_names
        end)
      arr
  done;
  Array.fold_left (fun n h -> if h then n + 1 else n) 0 hit
