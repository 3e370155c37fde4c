(** Strict-occurrence analysis for case-branch patterns
    (Pfenning–Schürmann, "Automated Theorem Proving in a Simple
    Meta-Logic for LF"; DESIGN.md §S25).

    A pattern meta-variable [u] occurs {e strictly} when it appears, at a
    rigid position, as the head of a spine of {e distinct} bound
    variables: [u[x₁, …, xₙ]] with the [xᵢ] pairwise distinct variables
    (or distinct projections of block variables).  A rigid position is
    one not inside the substitution or spine of another meta- or
    parameter variable — the path from the pattern root passes only
    through constants, bound variables, and projections.

    Strictness is what makes pattern matching an {e inverse}: matching a
    closed instance against a strict occurrence determines [u]'s
    instantiation uniquely and totally, so a branch with strict patterns
    genuinely covers every instance its erasure suggests.  The coverage
    engine ({!Belr_comp.Coverage}) uses the per-case verdict computed
    here to justify its uninhabitable-hole pruning: with a non-strict
    pattern in play, an "empty" candidate set may simply mean the
    analysis cannot see the witness, so pruning is withheld.

    Following the standard definition, an occurrence in the {e sort} of
    another pattern variable (the branch's meta-context) also counts —
    index arguments forced by typing are determined just as firmly as
    spine positions. *)

open Belr_syntax
module Sign = Belr_lf.Sign

(* --- bound-variable views ---------------------------------------------- *)

(** View a normal term as a bound variable or a projection of one:
    [Some (i, 0)] for [xᵢ], [Some (i, k)] for [xᵢ.k].  No η-contraction
    is attempted — internal terms are η-long at base type, and a
    λ-wrapped occurrence is conservatively rejected. *)
let bvar_view (m : Lf.normal) : (int * int) option =
  match m with
  | Lf.Root (Lf.BVar i, []) -> Some (i, 0)
  | Lf.Root (Lf.Proj (Lf.BVar i, k), []) -> Some (i, k)
  | _ -> None

(** The variables of a substitution, when it is a {e pattern}
    substitution: every front a bound variable (or block projection), all
    pairwise distinct, and the explicit fronts disjoint from the range of
    the trailing shift.  Returns [None] otherwise. *)
let pattern_sub_vars (s : Lf.sub) : (int * int) list option =
  let distinct v seen = not (List.mem v seen) in
  let rec go d seen = function
    | Lf.Empty -> Some seen
    | Lf.Shift t ->
        (* after [d] dots, the tail maps index [d+j] to variable [t+j]:
           an explicit front [xᵢ] with [i > t] would repeat a variable
           the tail already produces *)
        if List.for_all (fun (i, _) -> i <= t) seen then Some seen else None
    | Lf.Dot (f, s') -> (
        match f with
        | Lf.Obj m -> (
            match bvar_view m with
            | Some v when distinct v seen -> go (d + 1) (v :: seen) s'
            | _ -> None)
        | Lf.Tup ms ->
            (* a tuple of distinct projections replacing a block *)
            let rec fronts seen = function
              | [] -> Some seen
              | m :: rest -> (
                  match bvar_view m with
                  | Some v when distinct v seen -> fronts (v :: seen) rest
                  | _ -> None)
            in
            Option.bind (fronts seen ms) (fun seen -> go (d + 1) seen s')
        | Lf.Undef -> None)
  in
  go 0 [] s

(** Is [Root (MVar (u, s), sp)] a strict occurrence shape — substitution
    and spine together a list of distinct bound variables? *)
let strict_shape (s : Lf.sub) (sp : Lf.spine) : bool =
  match pattern_sub_vars s with
  | None -> false
  | Some seen ->
      let rec args seen = function
        | [] -> true
        | m :: rest -> (
            match bvar_view m with
            | Some v when not (List.mem v seen) -> args (v :: seen) rest
            | _ -> false)
      in
      args seen sp

(* --- rigid traversal --------------------------------------------------- *)

(** Record every meta-variable with a strict occurrence in [m] into
    [note] (offset already applied by the caller).  Only rigid positions
    are walked: the spine of a constant, bound variable, or projection
    head is rigid; everything under a meta- or parameter-variable head is
    flexible and contributes nothing. *)
let rec strict_normal (note : int -> unit) (m : Lf.normal) : unit =
  match m with
  | Lf.Lam (_, m) -> strict_normal note m
  | Lf.Root (h, sp) -> (
      match h with
      | Lf.MVar (u, s) -> if strict_shape s sp then note u
      | Lf.Const _ | Lf.BVar _ -> List.iter (strict_normal note) sp
      | Lf.Proj (h', _) -> (
          (* a projection of a rigid head keeps its spine rigid *)
          let rec base = function Lf.Proj (h, _) -> base h | h -> h in
          match base h' with
          | Lf.Const _ | Lf.BVar _ -> List.iter (strict_normal note) sp
          | _ -> ())
      | Lf.PVar _ -> ())

let strict_srt (note : int -> unit) (s : Lf.srt) : unit =
  let rec srt = function
    | Lf.SAtom (_, sp) | Lf.SEmbed (_, sp) ->
        List.iter (strict_normal note) sp
    | Lf.SPi (_, s1, s2) -> srt s1; srt s2
  in
  srt s

let strict_sctx (note : int -> unit) (psi : Ctxs.sctx) : unit =
  List.iter
    (function
      | Ctxs.SCDecl (_, s) -> strict_srt note s
      | Ctxs.SCBlock (_, f, ms) ->
          List.iter (fun (_, s) -> strict_srt note s) f.Ctxs.f_block;
          List.iter (strict_normal note) ms)
    psi.Ctxs.s_decls

(* --- branch verdicts --------------------------------------------------- *)

(** The pattern variables of a branch without a strict occurrence, as
    [(position, name)] pairs — position 1-based into the branch's
    meta-context, innermost first (the indexing of [MVar]).  Only
    term-level pattern variables ([MDTerm]) are subject to strictness;
    context, substitution, and parameter variables name whole entities
    that matching binds directly. *)
let branch_nonstrict (b : Comp.branch) : (int * string) list =
  let n = List.length b.Comp.br_mctx in
  if n = 0 then []
  else begin
    let strict = Array.make (n + 1) false in
    let note_at offset u =
      let p = u + offset in
      if p >= 1 && p <= n then strict.(p) <- true
    in
    (match b.Comp.br_pat with
    | Meta.MOTerm (_, m) -> strict_normal (note_at 0) m
    | Meta.MOSub _ | Meta.MOCtx _ | Meta.MOParam _ -> ());
    (* occurrences in the sorts of other pattern variables: the entry at
       position j+1 is typed in the outer part of the meta-context, so an
       [MVar i] inside it refers to global position j+1+i *)
    List.iteri
      (fun j d ->
        let note = note_at (j + 1) in
        match d with
        | Meta.MDTerm (_, psi, s) ->
            strict_sctx note psi;
            strict_srt note s
        | Meta.MDSub (_, psi1, psi2) ->
            strict_sctx note psi1;
            strict_sctx note psi2
        | Meta.MDCtx _ -> ()
        | Meta.MDParam (_, psi, f, ms) ->
            strict_sctx note psi;
            List.iter (fun (_, s) -> strict_srt note s) f.Ctxs.f_block;
            List.iter (strict_normal note) ms)
      b.Comp.br_mctx;
    let name_of d =
      Belr_support.Name.to_string
        (match d with
        | Meta.MDTerm (x, _, _) -> x
        | Meta.MDSub (x, _, _) -> x
        | Meta.MDCtx (x, _) -> x
        | Meta.MDParam (x, _, _, _) -> x)
    in
    List.concat
      (List.mapi
         (fun j d ->
           match d with
           | Meta.MDTerm _ when not strict.(j + 1) -> [ (j + 1, name_of d) ]
           | _ -> [])
         b.Comp.br_mctx)
  end

(** Are all patterns of all [branches] strict?  The verdict the coverage
    engine consumes per [case]. *)
let branches_strict (branches : Comp.branch list) : bool =
  List.for_all (fun b -> branch_nonstrict b = []) branches

(** Non-strict pattern variables per [case] expression of a declared
    function's body, in traversal order: each element is the case's list
    of [(branch ordinal, position, name)] offenders (empty = all
    strict). *)
let rec_nonstrict (sg : Sign.t) (id : Lf.cid_rec) :
    (int * int * string) list list =
  match (Sign.rec_entry sg id).Sign.r_body with
  | None -> []
  | Some body ->
      let out = ref [] in
      let rec walk (e : Comp.exp) =
        match e with
        | Comp.Var _ | Comp.RecConst _ | Comp.Box _ -> ()
        | Comp.Fn (_, _, e) | Comp.MLam (_, e) | Comp.MApp (e, _) -> walk e
        | Comp.App (a, b) | Comp.LetBox (_, a, b) ->
            walk a;
            walk b
        | Comp.Case (_, scrut, brs) ->
            walk scrut;
            List.iter (fun (b : Comp.branch) -> walk b.Comp.br_body) brs;
            out :=
              List.concat
                (List.mapi
                   (fun i b ->
                     List.map
                       (fun (p, x) -> (i, p, x))
                       (branch_nonstrict b))
                   brs)
              :: !out
      in
      walk body;
      List.rev !out
