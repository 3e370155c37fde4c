(** The invalidation rule of the incremental server before it dropped the
    subordination frontier, kept verbatim as a test oracle: the
    candidates of each check the engine runs ({!Belr_parser.Incr.candidates},
    read after the check) must stay inside this one (up to the reorder
    and shared-name rules this one lacks).  Only the
    frontier's reachability, which the analysis library no longer
    provides, is inlined: [dependents_of] is its former
    [Subord.dependents_of], verbatim. *)

open Belr_syntax
open Belr_lf
open Belr_parser.Incr
module SS = Set.Make (String)

let dependents_of (sg : Sign.t) (seeds : Lf.cid_typ list) : Lf.cid_typ list
    =
  let succs : (Lf.cid_typ, Lf.cid_typ list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (a, b) ->
      let old = Option.value (Hashtbl.find_opt succs a) ~default:[] in
      Hashtbl.replace succs a (b :: old))
    (Belr_analysis.Subord.direct_edges sg);
  let seen : (Lf.cid_typ, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec visit a =
    if not (Hashtbl.mem seen a) then begin
      Hashtbl.replace seen a ();
      List.iter visit (Option.value (Hashtbl.find_opt succs a) ~default:[])
    end
  in
  List.iter visit seeds;
  List.sort compare (Hashtbl.fold (fun a () acc -> a :: acc) seen [])

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
    else dependents_of sg seed_fams
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
