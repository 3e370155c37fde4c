(** A conservative coverage checker for refinement patterns — the paper's
    §6.1 future work ("refinements allow validating the correctness of
    functions containing non-exhaustive pattern matching…a natural next
    step is therefore to develop a coverage…checker").

    The sorting rules deliberately do {e not} require coverage (§4.1);
    this checker is an optional analysis, run by the totality analyzer
    ([Totality], [belr total]).  It is conservative in the usual
    direction: {!deep_check} never accepts an uncovered match, but may
    report a match as uncovered when a cleverer analysis could prove the
    missing cases impossible.

    For a scrutinee (or a nested hole) of sort [Ψ ⊢ Q] the split
    candidates are:

    - every constant carrying a sort in [Q]'s family (for [Q = s·sp]) or
      every constructor of the family (for [Q = ⌊a·sp⌋]) — this is where
      refinements shrink the obligation: [pred] on [pos] needs no [z]
      case;
    - a parameter-variable case for every component of every world of the
      context's schema whose target family matches [Q]'s, plus every
      matching projection of a concrete block in [Ψ].

    A candidate is impossible if its result sort {e rigidly clashes}
    with [Q] (distinct constants in the same spine position), which is
    how the impossible variable cases of [aeq-trans]'s inner matches are
    dismissed. *)

open Belr_syntax
open Belr_lf
open Belr_core
open Lf

(** Rigid head of a normal term, if any. *)
let rec rigid_head (m : normal) : cid_const option =
  match m with
  | Root (Const c, _) -> Some c
  | Lam (_, m) -> rigid_head m
  | _ -> None

(** Do two terms rigidly clash (distinct constant heads)? *)
let clashes (m1 : normal) (m2 : normal) : bool =
  match (rigid_head m1, rigid_head m2) with
  | Some c1, Some c2 -> c1 <> c2
  | _ -> false

let spine_clashes sp1 sp2 =
  List.length sp1 = List.length sp2 && List.exists2 clashes sp1 sp2

(** The result spine of a constant's sort at family [target]. *)
let result_spine (sg : Sign.t) (c : cid_const) ~(target : srt) : spine option =
  let rec target_spine = function
    | SAtom (_, sp) | SEmbed (_, sp) -> sp
    | SPi (_, _, s) -> target_spine s
  in
  match target with
  | SAtom (s_fam, _) -> (
      match Sign.csort sg ~const:c ~family:s_fam with
      | Some (s, _) -> Some (target_spine s)
      | None -> None)
  | SEmbed (_, _) ->
      let rec typ_spine = function
        | Atom (_, sp) -> sp
        | Pi (_, _, b) -> typ_spine b
      in
      Some (typ_spine (Sign.const_entry sg c).Sign.c_typ)
  | SPi _ -> None

(** Candidate constants for an atomic scrutinee sort. *)
let constant_candidates (sg : Sign.t) (q : srt) : cid_const list =
  match q with
  | SAtom (s, _) -> Sign.constants_of_srt sg s
  | SEmbed (a, _) -> Sign.constants_of_typ sg a
  | SPi _ -> []

(** Does sort [s] target the same family as the scrutinee sort [q]
    (reading [q] through its embedding when needed)? *)
let family_matches (sg : Sign.t) (s : srt) (q : srt) : bool =
  let fam_of = function
    | SAtom (sid, _) -> `S sid
    | SEmbed (a, _) -> `T a
    | SPi _ -> `None
  in
  let rec tgt = function SPi (_, _, b) -> tgt b | s -> s in
  match (fam_of (tgt s), fam_of (tgt q)) with
  | `S s1, `S s2 -> s1 = s2
  | `T a1, `T a2 -> a1 = a2
  | `S s1, `T a2 -> (Sign.srt_entry sg s1).Sign.s_refines = a2
  | `T _, `S _ -> false (* an embedded assumption cannot inhabit a proper sort *)
  | _ -> false

(** Variable candidates: projections (world-name, component index) that
    could inhabit the scrutinee sort. *)
let variable_candidates (sg : Sign.t) (omega : Meta.mctx) (psi : Ctxs.sctx)
    (q : srt) : string list =
  let of_selem prefix (f : Ctxs.selem) =
    List.concat
      (List.mapi
         (fun k (_, s) ->
           if family_matches sg s q then
             [ Printf.sprintf "%s#%s.%d" prefix
                 (Belr_support.Name.to_string f.Ctxs.f_name)
                 (k + 1) ]
           else [])
         f.Ctxs.f_block)
  in
  let schema_cands =
    match psi.Ctxs.s_var with
    | None -> []
    | Some i -> (
        match Msub.mctx_lookup_shifted omega i with
        | Some (Meta.MDCtx (_, h)) ->
            let entry = Sign.sschema_entry sg h in
            let elems =
              if psi.Ctxs.s_promoted then
                (Sign.embed_schema sg entry.Sign.h_refines).Ctxs.h_elems
              else entry.Sign.h_elems
            in
            List.concat_map (of_selem "") elems
        | _ -> (
            (* world-bounded fallback: the context variable's schema is
               not recoverable from omega, but declared [%worlds] still
               bound what any context at this family can contain — its
               blocks are the only assumptions a variable case could
               project from *)
            let fam =
              match q with
              | SAtom (s, _) -> Some (Sign.srt_entry sg s).Sign.s_refines
              | SEmbed (a, _) -> Some a
              | SPi _ -> None
            in
            match Option.bind fam (Sign.worlds_of sg) with
            | None -> []
            | Some w ->
                List.concat_map
                  (fun b ->
                    let be = Sign.block_entry sg b in
                    List.concat
                      (List.mapi
                         (fun k (_, s) ->
                           if family_matches sg s q then
                             [ Printf.sprintf "#%s.%d" be.Sign.b_name (k + 1) ]
                           else [])
                         be.Sign.b_fields))
                  w.Sign.w_blocks))
  in
  let concrete_cands =
    List.concat_map
      (function
        | Ctxs.SCDecl (x, s) ->
            if family_matches sg s q then
              [ Belr_support.Name.to_string x ]
            else []
        | Ctxs.SCBlock (x, f, _) ->
            of_selem (Belr_support.Name.to_string x ^ ":") f)
      psi.Ctxs.s_decls
  in
  schema_cands @ concrete_cands

(* ===== depth-bounded nested splitting ================================== *)

(** The totality analyzer's engine (DESIGN.md §S22).  Comparing pattern
    {e heads} one level deep would be unsound in both directions for
    nested patterns ([z] + [s z] "covers" [nat]); this is a
    Maranget-style usefulness computation instead: a case is covered iff
    no value vector is useful (matches no branch), where candidate values
    are enumerated per hole from the refinement-aware candidate sets
    above (constants of the hole's sort family minus rigid-clash
    impossibilities, variables and projections licensed by the context's
    schema) and constant candidates open sub-holes for their argument
    sorts down to a {e depth bound}.

    Pruning keeps the enumeration honest to refinements: a candidate
    whose result spine rigidly clashes with the hole's sort is skipped
    (clashes are stable under substitution, so no instance can match),
    and a hole whose candidate set is {e empty} is uninhabitable, so any
    vector through it is impossible.  At the depth bound the analysis
    gives up ({!DGaveUp}, surfaced as W0712) rather than guess — the
    bound caps the {e skeleton} depth, so only patterns nested deeper
    than [depth] constructors are affected. *)

type deep = DCovered | DUncovered of string list | DGaveUp

exception Gave_up

(** A matrix entry: a term pattern, or a wildcard (anything matches). *)
type pat = PFlex | PTerm of normal

(** Missing-case witness skeletons. *)
type skel = KWild | KConst of string * skel list | KVar of string

let rec render_skel = function
  | KWild -> "_"
  | KVar v -> v
  | KConst (c, []) -> c
  | KConst (c, args) ->
      "(" ^ String.concat " " (c :: List.map render_skel args) ^ ")"

let c_split = Belr_support.Telemetry.counter "total.split_candidates"
let c_pruned = Belr_support.Telemetry.counter "total.pruned_cases"

(** Witnesses reported per case are truncated at this many — coverage is
    already decided by the first one. *)
let max_witnesses = 16

let rec strip_lams = function Lam (_, m) -> strip_lams m | m -> m

let pat_is_flex = function
  | PFlex -> true
  | PTerm m -> ( match strip_lams m with Root (MVar _, _) -> true | _ -> false)

let rec split_at n xs =
  if n = 0 then ([], xs)
  else
    match xs with
    | [] -> ([], [])
    | x :: tl ->
        let a, b = split_at (n - 1) tl in
        (x :: a, b)

(** Projection index of a variable candidate string (the [".k"] suffix
    convention of {!variable_candidates}). *)
let proj_index (cand : string) : int option =
  match String.rindex_opt cand '.' with
  | Some i ->
      int_of_string_opt (String.sub cand (i + 1) (String.length cand - i - 1))
  | None -> None

(** Deep coverage of one case.  [omega] is the ambient meta-context (for
    schema lookup of context variables); candidates of nested holes are
    taken relative to the scrutinee's context [psi] — argument holes of
    first-order constants live in the same context, and the binders of
    higher-order arguments are handled by head-class matching. *)
let deep_check ?(depth = 3) ?(strict = true) (sg : Sign.t)
    (omega : Meta.mctx) (ms : Meta.msrt) (branches : Comp.branch list) : deep
    =
  match ms with
  | Meta.MSTerm (psi, q0) -> (
      let rows0 =
        List.map
          (fun (b : Comp.branch) ->
            match b.Comp.br_pat with
            | Meta.MOTerm (_, m) -> [ PTerm m ]
            | _ -> [ PFlex ])
          branches
      in
      let const_name c = (Sign.const_entry sg c).Sign.c_name in
      (* argument sorts of candidate [c] at hole sort [hq] *)
      let arg_srts c hq =
        match hq with
        | SAtom (s_fam, _) -> (
            match Sign.csort sg ~const:c ~family:s_fam with
            | Some (s, _) ->
                let rec doms = function SPi (_, a, b) -> a :: doms b | _ -> [] in
                doms s
            | None -> [])
        | SEmbed _ ->
            let rec doms = function
              | Pi (_, a, b) -> Embed.typ a :: doms b
              | Atom _ -> []
            in
            doms (Sign.const_entry sg c).Sign.c_typ
        | SPi _ -> []
      in
      (* [useful holes rows] = all (truncated) value-vector skeletons
         matching no row; [] means the matrix covers the holes *)
      let rec useful (holes : (srt * int) list) (rows : pat list list) :
          skel list list =
        match holes with
        | [] -> if rows = [] then [ [] ] else []
        | (SPi (_, _, b), d) :: rest ->
            (* λ-abstraction is forced, not a split: strip the binder *)
            let rows' =
              List.map
                (function
                  | PTerm (Lam (_, m)) :: tl -> PTerm m :: tl
                  | (p :: tl) when pat_is_flex p -> PFlex :: tl
                  | row -> row)
                rows
            in
            useful ((b, d) :: rest) rows'
        | (hq, d) :: rest -> (
            let q_spine =
              match hq with SAtom (_, sp) | SEmbed (_, sp) -> sp | SPi _ -> []
            in
            let consts =
              List.filter
                (fun c ->
                  match result_spine sg c ~target:hq with
                  | Some sp when spine_clashes sp q_spine ->
                      Belr_support.Telemetry.bump c_pruned;
                      false
                  | _ -> true)
                (constant_candidates sg hq)
            in
            let vars = variable_candidates sg omega psi hq in
            Belr_support.Telemetry.add c_split
              (List.length consts + List.length vars);
            if consts = [] && vars = [] then (
              (* uninhabitable hole: no vector passes through it.  The
                 pruning is justified only when every branch pattern is
                 strict ({!Belr_analysis.Strict}) — then matching truly
                 inverts, and empty candidates mean empty values.  With a
                 non-strict pattern in play we refuse to conclude and
                 give up (unless a catch-all row covers regardless). *)
              if strict then (
                Belr_support.Telemetry.bump c_pruned;
                [])
              else if List.exists (List.for_all pat_is_flex) rows then []
              else raise Gave_up)
            else if
              not
                (List.exists
                   (fun row ->
                     match row with p :: _ -> not (pat_is_flex p) | [] -> false)
                   rows)
            then
              (* no rigid first pattern: any (existing) value works *)
              List.map (fun w -> KWild :: w) (useful rest (List.map List.tl rows))
            else if d <= 0 then
              if List.exists (List.for_all pat_is_flex) rows then []
              else raise Gave_up
            else
              let missing = ref [] in
              let push w = if List.length !missing < max_witnesses then missing := w :: !missing in
              List.iter
                (fun c ->
                  let args = arg_srts c hq in
                  let n = List.length args in
                  let rows' =
                    List.filter_map
                      (fun row ->
                        match row with
                        | p :: tl when pat_is_flex p ->
                            Some (List.init n (fun _ -> PFlex) @ tl)
                        | PTerm (Root (Const c', sp)) :: tl when c' = c ->
                            if List.length sp = n then
                              Some (List.map (fun a -> PTerm a) sp @ tl)
                            else Some (List.init n (fun _ -> PFlex) @ tl)
                        | _ -> None)
                      rows
                  in
                  let holes' = List.map (fun a -> (a, d - 1)) args @ rest in
                  List.iter
                    (fun w ->
                      let wa, wrest = split_at n w in
                      push (KConst (const_name c, wa) :: wrest))
                    (useful holes' rows'))
                consts;
              List.iter
                (fun cand ->
                  let k = proj_index cand in
                  let rows' =
                    List.filter_map
                      (fun row ->
                        match row with
                        | p :: tl when pat_is_flex p -> Some tl
                        | PTerm m :: tl -> (
                            match strip_lams m with
                            | Root (Proj (_, k'), _) ->
                                if k = Some k' then Some tl else None
                            | Root ((BVar _ | PVar _), _) -> Some tl
                            | _ -> None)
                        | _ -> None)
                      rows
                  in
                  List.iter (fun w -> push (KVar cand :: w)) (useful rest rows'))
                vars;
              List.rev !missing)
      in
      match useful [ (q0, depth) ] rows0 with
      | [] -> DCovered
      | ws ->
          DUncovered
            (List.filter_map
               (function [ w ] -> Some (render_skel w) | _ -> None)
               ws)
      | exception Gave_up -> DGaveUp)
  | _ -> DCovered (* only boxed-term scrutinees are analyzed *)

(** Deep-coverage-check a declared function: one verdict per [case]
    expression in its body, in traversal order. *)
let deep_check_rec ?(depth = 3) (sg : Sign.t) (id : cid_rec) : deep list =
  match (Sign.rec_entry sg id).Sign.r_body with
  | None -> []
  | Some body ->
      let rec prefix omega (t : Comp.ctyp) (e : Comp.exp) =
        match (t, e) with
        | Comp.CPi (x, _, ms, t'), Comp.MLam (_, e') ->
            prefix (Check_comp.mdecl_of_msrt x ms :: omega) t' e'
        | Comp.CArr (_, t'), Comp.Fn (_, _, e') -> prefix omega t' e'
        | _, _ ->
            let out = ref [] in
            let rec walk omega (e : Comp.exp) =
              match e with
              | Comp.Var _ | Comp.RecConst _ | Comp.Box _ -> ()
              | Comp.Fn (_, _, e) | Comp.MLam (_, e) | Comp.MApp (e, _) ->
                  walk omega e
              | Comp.App (a, b) ->
                  walk omega a;
                  walk omega b
              | Comp.LetBox (_, a, b) ->
                  walk omega a;
                  walk omega b
              | Comp.Case (inv, scrut, brs) ->
                  walk omega scrut;
                  List.iter
                    (fun (b : Comp.branch) ->
                      walk (b.Comp.br_mctx @ omega) b.Comp.br_body)
                    brs;
                  let strict = Belr_analysis.Strict.branches_strict brs in
                  out :=
                    deep_check ~depth ~strict sg omega inv.Comp.inv_msrt brs
                    :: !out
            in
            walk omega e;
            List.rev !out
      in
      prefix [] (Sign.rec_entry sg id).Sign.r_styp body
