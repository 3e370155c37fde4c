(** Embedding of the type level back into the refinement level.

    The paper observes (§3.1.1, §3.2) that type-level judgments are
    exactly the unified judgments restricted to embedded sorts: an
    embedded subject never mentions a proper sort, so checking it never
    consults a sort assignment.  We exploit this to obtain the
    "conventional Beluga" computation-level type checker from the unified
    one: erase a program ({!Erase}), embed the result ({!Embed_t}), and
    check it — the run is a type-level derivation by construction.
    (The LF and contextual layers additionally have hand-written
    independent type-level checkers in [Belr_lf.Check_lf] and
    [Belr_lf.Check_meta_t], exercised by the conservativity tests.) *)

open Belr_syntax
open Belr_lf

let mtyp (sg : Sign.t) : Meta.mtyp -> Meta.msrt = function
  | Meta.MTTerm (g, a) -> Meta.MSTerm (Embed.ctx g, Embed.typ a)
  | Meta.MTSub (g1, g2) -> Meta.MSSub (Embed.ctx g1, Embed.ctx g2)
  | Meta.MTCtx g -> Meta.MSCtx (Sign.schema_entry sg g).Sign.g_trivial
  | Meta.MTParam (g, e, ms) ->
      Meta.MSParam (Embed.ctx g, Embed.elem ~refines:0 e, ms)

let mdecl_t (sg : Sign.t) : Meta.mdecl_t -> Meta.mdecl = function
  | Meta.TDTerm (n, g, a) -> Meta.MDTerm (n, Embed.ctx g, Embed.typ a)
  | Meta.TDSub (n, g1, g2) -> Meta.MDSub (n, Embed.ctx g1, Embed.ctx g2)
  | Meta.TDCtx (n, g) -> Meta.MDCtx (n, (Sign.schema_entry sg g).Sign.g_trivial)
  | Meta.TDParam (n, g, e, ms) ->
      Meta.MDParam (n, Embed.ctx g, Embed.elem ~refines:0 e, ms)

let mctx_t (sg : Sign.t) (delta : Meta.mctx_t) : Meta.mctx =
  List.map (mdecl_t sg) delta

let rec ctyp_t (sg : Sign.t) : Comp.ctyp_t -> Comp.ctyp = function
  | Comp.TBox mt -> Comp.CBox (mtyp sg mt)
  | Comp.TArr (t1, t2) -> Comp.CArr (ctyp_t sg t1, ctyp_t sg t2)
  | Comp.TPi (x, imp, mt, t) -> Comp.CPi (x, imp, mtyp sg mt, ctyp_t sg t)

let rec exp_t (sg : Sign.t) : Comp.exp_t -> Comp.exp = function
  | Comp.TVar i -> Comp.Var i
  | Comp.TRecConst r -> Comp.RecConst r
  | Comp.TBoxE mo -> Comp.Box mo
  | Comp.TFn (x, t, e) -> Comp.Fn (x, Option.map (ctyp_t sg) t, exp_t sg e)
  | Comp.TApp (e1, e2) -> Comp.App (exp_t sg e1, exp_t sg e2)
  | Comp.TMLam (x, e) -> Comp.MLam (x, exp_t sg e)
  | Comp.TMApp (e, mo) -> Comp.MApp (exp_t sg e, mo)
  | Comp.TLetBox (x, e1, e2) -> Comp.LetBox (x, exp_t sg e1, exp_t sg e2)
  | Comp.TCase (inv, e, brs) ->
      Comp.Case (inv_t sg inv, exp_t sg e, List.map (branch_t sg) brs)

and inv_t (sg : Sign.t) (i : Comp.inv_t) : Comp.inv =
  {
    Comp.inv_mctx = mctx_t sg i.Comp.tinv_mctx;
    Comp.inv_name = i.Comp.tinv_name;
    Comp.inv_msrt = mtyp sg i.Comp.tinv_mtyp;
    Comp.inv_body = ctyp_t sg i.Comp.tinv_body;
  }

and branch_t (sg : Sign.t) (b : Comp.branch_t) : Comp.branch =
  {
    Comp.br_mctx = mctx_t sg b.Comp.tbr_mctx;
    Comp.br_pat = b.Comp.tbr_pat;
    Comp.br_body = exp_t sg b.Comp.tbr_body;
  }

let cctx_t (sg : Sign.t) (phi : Comp.cctx_t) : Comp.cctx =
  List.map (fun (x, t) -> (x, ctyp_t sg t)) phi

(** The functions an expression references, each once. *)
let rec_refs (e : Comp.exp_t) : Lf.cid_rec list =
  let rec go acc = function
    | Comp.TVar _ | Comp.TBoxE _ -> acc
    | Comp.TRecConst r -> if List.mem r acc then acc else r :: acc
    | Comp.TFn (_, _, e) | Comp.TMLam (_, e) | Comp.TMApp (e, _) -> go acc e
    | Comp.TApp (e1, e2) | Comp.TLetBox (_, e1, e2) -> go (go acc e1) e2
    | Comp.TCase (_, e, brs) ->
        List.fold_left (fun acc b -> go acc b.Comp.tbr_body) (go acc e) brs
  in
  go [] e

(** Type-level computation checking [Δ; Ξ ⊢ e : τ], as the embedded
    fragment of the unified checker. *)
let check_exp_t (sg : Sign.t) (delta : Meta.mctx_t) (xi : Comp.cctx_t)
    (e : Comp.exp_t) (tau : Comp.ctyp_t) : unit =
  (* in the type-level run, references to declared functions must carry
     their (embedded) erased types, not their sorts; only the functions
     [e] references are embedded *)
  let recs =
    List.map
      (fun id -> (id, ctyp_t sg (Sign.rec_entry sg id).Sign.r_typ))
      (rec_refs e)
  in
  let env = Check_comp.make_env ~recs sg (mctx_t sg delta) (cctx_t sg xi) in
  Check_comp.check_exp env (exp_t sg e) (ctyp_t sg tau)
