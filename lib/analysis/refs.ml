(** Signature-reference traversals shared by the analysis passes.

    Every syntax class of the internal language gets a total [iter_*]
    visitor that calls a callback on each signature reference it contains
    — type and sort families, constants, (refinement) schemas, and
    computation-level functions.  The subordination analysis and the
    unused-declaration pass are both folds over these visitors, so the
    "what counts as a reference" question is answered in exactly one
    place.

    The traversals are deliberately defensive: they accept any
    syntactically possible term (delayed substitutions under meta- and
    parameter variables, [Undef] fronts), even shapes that checked
    signature entries cannot contain, because the lint passes also run
    over signatures recovered from partially failed inputs. *)

open Belr_syntax

(** One reference out of a declaration into the signature. *)
type target =
  | RTyp of Lf.cid_typ
  | RSrt of Lf.cid_srt
  | RConst of Lf.cid_const
  | RSchema of Lf.cid_schema
  | RSschema of Lf.cid_sschema
  | RRec of Lf.cid_rec

(* --- LF terms ---------------------------------------------------------- *)

let rec iter_head f (h : Lf.head) =
  match h with
  | Lf.Const c -> f (RConst c)
  | Lf.BVar _ -> ()
  | Lf.PVar (_, s) -> iter_sub f s
  | Lf.Proj (h, _) -> iter_head f h
  | Lf.MVar (_, s) -> iter_sub f s

and iter_normal f (m : Lf.normal) =
  match m with
  | Lf.Lam (_, body) -> iter_normal f body
  | Lf.Root (h, sp) ->
      iter_head f h;
      iter_spine f sp

(* [iter_spine f], without a closure per spine *)
and iter_spine f (sp : Lf.spine) =
  match sp with
  | [] -> ()
  | m :: sp ->
      iter_normal f m;
      iter_spine f sp

and iter_front f (fr : Lf.front) =
  match fr with
  | Lf.Obj m -> iter_normal f m
  | Lf.Tup ms -> iter_spine f ms
  | Lf.Undef -> ()

and iter_sub f (s : Lf.sub) =
  match s with
  | Lf.Empty | Lf.Shift _ -> ()
  | Lf.Dot (fr, s) ->
      iter_front f fr;
      iter_sub f s

(* --- LF types, kinds, sorts, sort kinds -------------------------------- *)

let rec iter_typ f (ty : Lf.typ) =
  match ty with
  | Lf.Atom (a, sp) ->
      f (RTyp a);
      iter_spine f sp
  | Lf.Pi (_, a, b) ->
      iter_typ f a;
      iter_typ f b

let rec iter_kind f (k : Lf.kind) =
  match k with
  | Lf.Ktype -> ()
  | Lf.Kpi (_, a, k) ->
      iter_typ f a;
      iter_kind f k

let rec iter_srt f (s : Lf.srt) =
  match s with
  | Lf.SAtom (q, sp) ->
      f (RSrt q);
      iter_spine f sp
  | Lf.SEmbed (a, sp) ->
      f (RTyp a);
      iter_spine f sp
  | Lf.SPi (_, s1, s2) ->
      iter_srt f s1;
      iter_srt f s2

let rec iter_skind f (l : Lf.skind) =
  match l with
  | Lf.Ksort -> ()
  | Lf.Kspi (_, s, l) ->
      iter_srt f s;
      iter_skind f l

(* --- blocks, schema elements, contexts --------------------------------- *)

let iter_elem f (e : Ctxs.elem) =
  List.iter (fun (_, t) -> iter_typ f t) e.Ctxs.e_params;
  List.iter (fun (_, t) -> iter_typ f t) e.Ctxs.e_block

let iter_selem f (e : Ctxs.selem) =
  List.iter (fun (_, s) -> iter_srt f s) e.Ctxs.f_params;
  List.iter (fun (_, s) -> iter_srt f s) e.Ctxs.f_block

let iter_sctx f (psi : Ctxs.sctx) =
  List.iter
    (function
      | Ctxs.SCDecl (_, s) -> iter_srt f s
      | Ctxs.SCBlock (_, e, ms) ->
          iter_selem f e;
          iter_spine f ms)
    psi.Ctxs.s_decls

(* --- contextual layer --------------------------------------------------- *)

let iter_msrt f (ms : Meta.msrt) =
  match ms with
  | Meta.MSTerm (psi, s) ->
      iter_sctx f psi;
      iter_srt f s
  | Meta.MSSub (psi1, psi2) ->
      iter_sctx f psi1;
      iter_sctx f psi2
  | Meta.MSCtx h -> f (RSschema h)
  | Meta.MSParam (psi, e, ms) ->
      iter_sctx f psi;
      iter_selem f e;
      iter_spine f ms

let iter_mobj f (mo : Meta.mobj) =
  match mo with
  | Meta.MOTerm (_, m) -> iter_normal f m
  | Meta.MOSub (_, s) -> iter_sub f s
  | Meta.MOCtx psi -> iter_sctx f psi
  | Meta.MOParam (_, h) -> iter_head f h

let iter_mdecl f (d : Meta.mdecl) =
  match d with
  | Meta.MDTerm (_, psi, s) ->
      iter_sctx f psi;
      iter_srt f s
  | Meta.MDSub (_, psi1, psi2) ->
      iter_sctx f psi1;
      iter_sctx f psi2
  | Meta.MDCtx (_, h) -> f (RSschema h)
  | Meta.MDParam (_, psi, e, ms) ->
      iter_sctx f psi;
      iter_selem f e;
      iter_spine f ms

(* --- computation level --------------------------------------------------- *)

let rec iter_ctyp f (t : Comp.ctyp) =
  match t with
  | Comp.CBox ms -> iter_msrt f ms
  | Comp.CArr (t1, t2) ->
      iter_ctyp f t1;
      iter_ctyp f t2
  | Comp.CPi (_, _, ms, t) ->
      iter_msrt f ms;
      iter_ctyp f t

let rec iter_exp f (e : Comp.exp) =
  match e with
  | Comp.Var _ -> ()
  | Comp.RecConst r -> f (RRec r)
  | Comp.Box mo -> iter_mobj f mo
  | Comp.Fn (_, topt, body) ->
      Option.iter (iter_ctyp f) topt;
      iter_exp f body
  | Comp.App (e1, e2) ->
      iter_exp f e1;
      iter_exp f e2
  | Comp.MLam (_, body) -> iter_exp f body
  | Comp.MApp (e, mo) ->
      iter_exp f e;
      iter_mobj f mo
  | Comp.LetBox (_, e1, e2) ->
      iter_exp f e1;
      iter_exp f e2
  | Comp.Case (inv, scrut, brs) ->
      List.iter (iter_mdecl f) inv.Comp.inv_mctx;
      iter_msrt f inv.Comp.inv_msrt;
      iter_ctyp f inv.Comp.inv_body;
      iter_exp f scrut;
      List.iter
        (fun (b : Comp.branch) ->
          List.iter (iter_mdecl f) b.Comp.br_mctx;
          iter_mobj f b.Comp.br_pat;
          iter_exp f b.Comp.br_body)
        brs

(* --- de Bruijn occurrence checks ---------------------------------------- *)

(** Does bound variable [i] (1-based, relative to where the query starts)
    occur in the term/type?  Used by the vacuous-Π warning: a binder whose
    index-1 variable never occurs in the body is an arrow in disguise. *)
let rec head_mentions_bvar i (h : Lf.head) =
  match h with
  | Lf.Const _ -> false
  | Lf.BVar j -> j = i
  | Lf.PVar (_, s) -> sub_mentions_bvar i s
  | Lf.Proj (h, _) -> head_mentions_bvar i h
  | Lf.MVar (_, s) -> sub_mentions_bvar i s

and normal_mentions_bvar i (m : Lf.normal) =
  match m with
  | Lf.Lam (_, body) -> normal_mentions_bvar (i + 1) body
  | Lf.Root (h, sp) -> head_mentions_bvar i h || spine_mentions_bvar i sp

and spine_mentions_bvar i (sp : Lf.spine) =
  match sp with
  | [] -> false
  | m :: sp -> normal_mentions_bvar i m || spine_mentions_bvar i sp

and front_mentions_bvar i (fr : Lf.front) =
  match fr with
  | Lf.Obj m -> normal_mentions_bvar i m
  | Lf.Tup ms -> List.exists (normal_mentions_bvar i) ms
  | Lf.Undef -> false

and sub_mentions_bvar i (s : Lf.sub) =
  match s with
  | Lf.Empty | Lf.Shift _ -> false
  | Lf.Dot (fr, s) -> front_mentions_bvar i fr || sub_mentions_bvar i s

let rec typ_mentions_bvar i (ty : Lf.typ) =
  match ty with
  | Lf.Atom (_, sp) -> spine_mentions_bvar i sp
  | Lf.Pi (_, a, b) -> typ_mentions_bvar i a || typ_mentions_bvar (i + 1) b

let rec kind_mentions_bvar i (k : Lf.kind) =
  match k with
  | Lf.Ktype -> false
  | Lf.Kpi (_, a, k) -> typ_mentions_bvar i a || kind_mentions_bvar (i + 1) k
