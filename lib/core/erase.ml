(** Erasure: the computational content of conservativity.

    Every refinement-level object determines the type-level object it
    refines.  The paper phrases its judgments so that "everything to the
    right of ⊑ is an output" (§3.1.1); these functions compute those
    outputs.  Theorems 3.1.5 and 3.2.2 say that whenever the sort side is
    derivable, the erased side is derivable in conventional Beluga — the
    test suite checks this by running [Belr_lf.Check_lf] (and the comp
    level type checker) on the images.

    Erasure is compositional and commutes with hereditary substitution
    (terms are untouched), which is what lets the unified judgments
    recover typing derivations without extra lemmas (§3.2.1). *)

open Belr_syntax
open Belr_lf

(** Sort erasure, defined with the signature so that the analyzers
    share it. *)
let srt = Sign.erase_srt

let rec skind (sg : Sign.t) : Lf.skind -> Lf.kind = function
  | Lf.Ksort -> Lf.Ktype
  | Lf.Kspi (x, s, l) -> Lf.Kpi (x, srt sg s, skind sg l)

let sblock (sg : Sign.t) (b : Ctxs.sblock) : Ctxs.block =
  List.map (fun (x, s) -> (x, srt sg s)) b

let selem (sg : Sign.t) (f : Ctxs.selem) : Ctxs.elem =
  {
    Ctxs.e_name = f.Ctxs.f_name;
    Ctxs.e_params = List.map (fun (x, s) -> (x, srt sg s)) f.Ctxs.f_params;
    Ctxs.e_block = sblock sg f.Ctxs.f_block;
  }

let scentry (sg : Sign.t) : Ctxs.scentry -> Ctxs.centry = function
  | Ctxs.SCDecl (x, s) -> Ctxs.CDecl (x, srt sg s)
  | Ctxs.SCBlock (x, f, ms) -> Ctxs.CBlock (x, selem sg f, ms)

let sctx (sg : Sign.t) (psi : Ctxs.sctx) : Ctxs.ctx =
  {
    Ctxs.c_var = psi.Ctxs.s_var;
    Ctxs.c_decls = List.map (scentry sg) psi.Ctxs.s_decls;
  }

(** A refinement schema erases to the schema it refines. *)
let sschema (sg : Sign.t) (h : Lf.cid_sschema) : Lf.cid_schema =
  (Sign.sschema_entry sg h).Sign.h_refines

(* --- contextual layer -------------------------------------------------- *)

let msrt (sg : Sign.t) : Meta.msrt -> Meta.mtyp = function
  | Meta.MSTerm (psi, q) -> Meta.MTTerm (sctx sg psi, srt sg q)
  | Meta.MSSub (psi1, psi2) -> Meta.MTSub (sctx sg psi1, sctx sg psi2)
  | Meta.MSCtx h -> Meta.MTCtx (sschema sg h)
  | Meta.MSParam (psi, f, ms) -> Meta.MTParam (sctx sg psi, selem sg f, ms)

(** Meta-objects erase to themselves except for context objects, whose
    sort-level annotations are erased (§3.2: if [𝒩 ⊑ ℳ] are not contexts
    then [𝒩 = ℳ]). *)
let mobj (sg : Sign.t) : Meta.mobj -> Meta.mobj = function
  | Meta.MOCtx psi -> Meta.MOCtx (Embed.ctx (sctx sg psi))
  | o -> o

let mdecl (sg : Sign.t) : Meta.mdecl -> Meta.mdecl_t = function
  | Meta.MDTerm (n, psi, q) -> Meta.TDTerm (n, sctx sg psi, srt sg q)
  | Meta.MDSub (n, psi1, psi2) -> Meta.TDSub (n, sctx sg psi1, sctx sg psi2)
  | Meta.MDCtx (n, h) -> Meta.TDCtx (n, sschema sg h)
  | Meta.MDParam (n, psi, f, ms) ->
      Meta.TDParam (n, sctx sg psi, selem sg f, ms)

let mctx (sg : Sign.t) (omega : Meta.mctx) : Meta.mctx_t =
  List.map (mdecl sg) omega

(* --- computation level -------------------------------------------------- *)

let rec ctyp (sg : Sign.t) : Comp.ctyp -> Comp.ctyp_t = function
  | Comp.CBox ms -> Comp.TBox (msrt sg ms)
  | Comp.CArr (t1, t2) -> Comp.TArr (ctyp sg t1, ctyp sg t2)
  | Comp.CPi (x, imp, ms, t) -> Comp.TPi (x, imp, msrt sg ms, ctyp sg t)

let rec exp (sg : Sign.t) : Comp.exp -> Comp.exp_t = function
  | Comp.Var i -> Comp.TVar i
  | Comp.RecConst r -> Comp.TRecConst r
  | Comp.Box mo -> Comp.TBoxE (mobj sg mo)
  | Comp.Fn (x, t, e) -> Comp.TFn (x, Option.map (ctyp sg) t, exp sg e)
  | Comp.App (e1, e2) -> Comp.TApp (exp sg e1, exp sg e2)
  | Comp.MLam (x, e) -> Comp.TMLam (x, exp sg e)
  | Comp.MApp (e, mo) -> Comp.TMApp (exp sg e, mobj sg mo)
  | Comp.LetBox (x, e1, e2) -> Comp.TLetBox (x, exp sg e1, exp sg e2)
  | Comp.Case (inv, e, brs) ->
      Comp.TCase (inv_ sg inv, exp sg e, List.map (branch sg) brs)

and inv_ (sg : Sign.t) (i : Comp.inv) : Comp.inv_t =
  {
    Comp.tinv_mctx = mctx sg i.Comp.inv_mctx;
    Comp.tinv_name = i.Comp.inv_name;
    Comp.tinv_mtyp = msrt sg i.Comp.inv_msrt;
    Comp.tinv_body = ctyp sg i.Comp.inv_body;
  }

and branch (sg : Sign.t) (b : Comp.branch) : Comp.branch_t =
  {
    Comp.tbr_mctx = mctx sg b.Comp.br_mctx;
    Comp.tbr_pat = mobj sg b.Comp.br_pat;
    Comp.tbr_body = exp sg b.Comp.br_body;
  }
