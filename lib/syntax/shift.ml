(** de Bruijn shifting (pure renaming).

    Two index spaces exist:
    - LF bound variables ([Lf.BVar]), bound by [Lam], Π, Σ (blocks), and
      context declarations;
    - meta-variables ([Lf.MVar], [Lf.PVar], context-variable roots), bound
      by the meta-context [Ω]/[Δ], comp-level [MLam]/[LetBox], and case
      branches.

    [shift_*] renames LF indices; [mshift_*] renames meta indices.  Both
    take the amount [d] and a cutoff [c] (indices [≤ c] are bound locally
    and untouched).  Renaming never creates redexes, so no hereditary
    machinery is needed here.

    Fast paths (PR 4): shifting by [d = 0] is the identity, and so is
    shifting a node whose max-free-index bound ([Store.mfi_*]) is at most
    the cutoff — every free index is untouched, so the input is returned
    with no traversal and no reallocation. *)

open Lf

(* ------------------------------------------------------------------ *)
(* LF-level shifting                                                   *)

let rec shift_head d c (h : head) : head =
  if d = 0 || mfi_head h <= c then h
  else
    match h with
    | Const _ -> h
    | BVar i -> if i > c then mk_bvar (i + d) else h
    | PVar (p, s) -> mk_pvar p (shift_sub d c s)
    | Proj (b, k) -> mk_proj (shift_head d c b) k
    | MVar (u, s) -> mk_mvar u (shift_sub d c s)

and shift_normal d c (m : normal) : normal =
  if d = 0 || mfi_normal m <= c then m
  else
    match m with
    | Lam (x, n) -> mk_lam x (shift_normal d (c + 1) n)
    | Root (h, sp) -> mk_root (shift_head d c h) (shift_spine d c sp)

and shift_spine d c sp =
  if d = 0 then sp else List.map (shift_normal d c) sp

and shift_front d c = function
  | Obj m -> Obj (shift_normal d c m)
  | Tup t -> Tup (List.map (shift_normal d c) t)
  | Undef -> Undef

and shift_sub d c (s : sub) : sub =
  if d = 0 || mfi_sub s <= c then s
  else
    match s with
    | Empty -> s
    | Shift n ->
        (* [Shift n] maps i ↦ i + n; composing with the renaming i ↦ i + d
           above cutoff c.  Under a cutoff this representation cannot stay
           a bare [Shift]; the checkers only shift closed-from-below
           substitutions (c = 0), which is the case we support exactly. *)
        if c = 0 then mk_shift (n + d)
        else if n >= c then mk_shift (n + d)
        else
          (* Expand the first components explicitly: indices 1..(c-n) are
             below the cutoff after shifting. *)
          let rec expand i acc =
            if i > c - n then acc
            else
              expand (i + 1) (fun tail ->
                  acc (mk_dot (Obj (bvar (i + n))) tail))
          in
          (expand 1 (fun tail -> tail)) (mk_shift (c + d))
    | Dot (f, s') -> mk_dot (shift_front d c f) (shift_sub d c s')

let rec shift_typ d c (a : typ) : typ =
  if d = 0 || mfi_typ a <= c then a
  else
    match a with
    | Atom (p, sp) -> mk_atom p (shift_spine d c sp)
    | Pi (x, a1, b) -> mk_pi x (shift_typ d c a1) (shift_typ d (c + 1) b)

let rec shift_srt d c (s : srt) : srt =
  if d = 0 || mfi_srt s <= c then s
  else
    match s with
    | SAtom (q, sp) -> mk_satom q (shift_spine d c sp)
    | SEmbed (a, sp) -> mk_sembed a (shift_spine d c sp)
    | SPi (x, s1, s2) -> mk_spi x (shift_srt d c s1) (shift_srt d (c + 1) s2)

let rec shift_kind d c : kind -> kind = function
  | Ktype -> Ktype
  | Kpi (x, a, k) -> Kpi (x, shift_typ d c a, shift_kind d (c + 1) k)

let rec shift_skind d c : skind -> skind = function
  | Ksort -> Ksort
  | Kspi (x, s, l) -> Kspi (x, shift_srt d c s, shift_skind d (c + 1) l)

let shift_block d c (b : Ctxs.block) : Ctxs.block =
  List.mapi (fun i (x, a) -> (x, shift_typ d (c + i) a)) b

let shift_sblock d c (b : Ctxs.sblock) : Ctxs.sblock =
  List.mapi (fun i (x, s) -> (x, shift_srt d (c + i) s)) b

let shift_elem d c (e : Ctxs.elem) : Ctxs.elem =
  let params = List.mapi (fun i (x, a) -> (x, shift_typ d (c + i) a)) e.Ctxs.e_params in
  let np = List.length params in
  { e with Ctxs.e_params = params; Ctxs.e_block = shift_block d (c + np) e.Ctxs.e_block }

let shift_selem d c (f : Ctxs.selem) : Ctxs.selem =
  let params = List.mapi (fun i (x, s) -> (x, shift_srt d (c + i) s)) f.Ctxs.f_params in
  let np = List.length params in
  { f with Ctxs.f_params = params; Ctxs.f_block = shift_sblock d (c + np) f.Ctxs.f_block }

(* ------------------------------------------------------------------ *)
(* Meta-level shifting                                                 *)

(* The store's mfi bound tracks LF indices only, so meta-level renaming
   has just the [d = 0] fast path. *)

let rec mshift_head d c (h : head) : head =
  if d = 0 then h
  else
    match h with
    | Const _ | BVar _ -> h
    | PVar (p, s) ->
        let p' = if p > c then p + d else p in
        mk_pvar p' (mshift_sub d c s)
    | Proj (b, k) -> mk_proj (mshift_head d c b) k
    | MVar (u, s) ->
        let u' = if u > c then u + d else u in
        mk_mvar u' (mshift_sub d c s)

and mshift_normal d c (m : normal) : normal =
  if d = 0 then m
  else
    match m with
    | Lam (x, n) -> mk_lam x (mshift_normal d c n)
    | Root (h, sp) -> mk_root (mshift_head d c h) (mshift_spine d c sp)

and mshift_spine d c sp =
  if d = 0 then sp else List.map (mshift_normal d c) sp

and mshift_front d c = function
  | Obj m -> Obj (mshift_normal d c m)
  | Tup t -> Tup (List.map (mshift_normal d c) t)
  | Undef -> Undef

and mshift_sub d c (s : sub) : sub =
  if d = 0 then s
  else
    match s with
    | Empty | Shift _ -> s
    | Dot (f, s') -> mk_dot (mshift_front d c f) (mshift_sub d c s')

let rec mshift_typ d c (a : typ) : typ =
  if d = 0 then a
  else
    match a with
    | Atom (p, sp) -> mk_atom p (mshift_spine d c sp)
    | Pi (x, a1, b) -> mk_pi x (mshift_typ d c a1) (mshift_typ d c b)

let rec mshift_srt d c (s : srt) : srt =
  if d = 0 then s
  else
    match s with
    | SAtom (q, sp) -> mk_satom q (mshift_spine d c sp)
    | SEmbed (a, sp) -> mk_sembed a (mshift_spine d c sp)
    | SPi (x, s1, s2) -> mk_spi x (mshift_srt d c s1) (mshift_srt d c s2)

let mshift_block d c (b : Ctxs.block) : Ctxs.block =
  List.map (fun (x, a) -> (x, mshift_typ d c a)) b

let mshift_sblock d c (b : Ctxs.sblock) : Ctxs.sblock =
  List.map (fun (x, s) -> (x, mshift_srt d c s)) b

let mshift_elem d c (e : Ctxs.elem) : Ctxs.elem =
  {
    e with
    Ctxs.e_params = List.map (fun (x, a) -> (x, mshift_typ d c a)) e.Ctxs.e_params;
    Ctxs.e_block = mshift_block d c e.Ctxs.e_block;
  }

let mshift_selem d c (f : Ctxs.selem) : Ctxs.selem =
  {
    f with
    Ctxs.f_params = List.map (fun (x, s) -> (x, mshift_srt d c s)) f.Ctxs.f_params;
    Ctxs.f_block = mshift_sblock d c f.Ctxs.f_block;
  }

let mshift_centry d c : Ctxs.centry -> Ctxs.centry = function
  | Ctxs.CDecl (x, a) -> Ctxs.CDecl (x, mshift_typ d c a)
  | Ctxs.CBlock (x, e, ms) ->
      Ctxs.CBlock (x, mshift_elem d c e, List.map (mshift_normal d c) ms)

let mshift_ctx d c (g : Ctxs.ctx) : Ctxs.ctx =
  let v =
    match g.Ctxs.c_var with
    | Some i when i > c -> Some (i + d)
    | v -> v
  in
  { Ctxs.c_var = v; Ctxs.c_decls = List.map (mshift_centry d c) g.Ctxs.c_decls }

let mshift_scentry d c : Ctxs.scentry -> Ctxs.scentry = function
  | Ctxs.SCDecl (x, s) -> Ctxs.SCDecl (x, mshift_srt d c s)
  | Ctxs.SCBlock (x, f, ms) ->
      Ctxs.SCBlock (x, mshift_selem d c f, List.map (mshift_normal d c) ms)

let mshift_sctx d c (psi : Ctxs.sctx) : Ctxs.sctx =
  let v =
    match psi.Ctxs.s_var with
    | Some i when i > c -> Some (i + d)
    | v -> v
  in
  {
    psi with
    Ctxs.s_var = v;
    Ctxs.s_decls = List.map (mshift_scentry d c) psi.Ctxs.s_decls;
  }

let mshift_hat d c (h : Meta.hat) : Meta.hat =
  match h.Meta.hat_var with
  | Some i when i > c -> { h with Meta.hat_var = Some (i + d) }
  | _ -> h

let mshift_msrt d c : Meta.msrt -> Meta.msrt = function
  | Meta.MSTerm (psi, s) -> Meta.MSTerm (mshift_sctx d c psi, mshift_srt d c s)
  | Meta.MSSub (psi1, psi2) ->
      Meta.MSSub (mshift_sctx d c psi1, mshift_sctx d c psi2)
  | Meta.MSCtx h -> Meta.MSCtx h
  | Meta.MSParam (psi, f, ms) ->
      Meta.MSParam
        (mshift_sctx d c psi, mshift_selem d c f, List.map (mshift_normal d c) ms)

let mshift_mtyp d c : Meta.mtyp -> Meta.mtyp = function
  | Meta.MTTerm (g, a) -> Meta.MTTerm (mshift_ctx d c g, mshift_typ d c a)
  | Meta.MTSub (g1, g2) -> Meta.MTSub (mshift_ctx d c g1, mshift_ctx d c g2)
  | Meta.MTCtx g -> Meta.MTCtx g
  | Meta.MTParam (g, e, ms) ->
      Meta.MTParam
        (mshift_ctx d c g, mshift_elem d c e, List.map (mshift_normal d c) ms)

let mshift_mobj d c : Meta.mobj -> Meta.mobj = function
  | Meta.MOTerm (h, m) -> Meta.MOTerm (mshift_hat d c h, mshift_normal d c m)
  | Meta.MOSub (h, s) -> Meta.MOSub (mshift_hat d c h, mshift_sub d c s)
  | Meta.MOCtx psi -> Meta.MOCtx (mshift_sctx d c psi)
  | Meta.MOParam (h, hd) -> Meta.MOParam (mshift_hat d c h, mshift_head d c hd)

let mshift_mdecl d c : Meta.mdecl -> Meta.mdecl = function
  | Meta.MDTerm (n, psi, s) ->
      Meta.MDTerm (n, mshift_sctx d c psi, mshift_srt d c s)
  | Meta.MDSub (n, psi1, psi2) ->
      Meta.MDSub (n, mshift_sctx d c psi1, mshift_sctx d c psi2)
  | Meta.MDCtx (n, h) -> Meta.MDCtx (n, h)
  | Meta.MDParam (n, psi, f, ms) ->
      Meta.MDParam
        ( n,
          mshift_sctx d c psi,
          mshift_selem d c f,
          List.map (mshift_normal d c) ms )

let mshift_mdecl_t d c : Meta.mdecl_t -> Meta.mdecl_t = function
  | Meta.TDTerm (n, g, a) -> Meta.TDTerm (n, mshift_ctx d c g, mshift_typ d c a)
  | Meta.TDSub (n, g1, g2) ->
      Meta.TDSub (n, mshift_ctx d c g1, mshift_ctx d c g2)
  | Meta.TDCtx (n, g) -> Meta.TDCtx (n, g)
  | Meta.TDParam (n, g, e, ms) ->
      Meta.TDParam
        (n, mshift_ctx d c g, mshift_elem d c e, List.map (mshift_normal d c) ms)

(** Look up declaration [i] of [Ω] and transport it to be valid in all of
    [Ω] (the stored entry lives in the prefix above index [i]). *)
let mctx_lookup_shifted (omega : Meta.mctx) (i : int) : Meta.mdecl option =
  Option.map (mshift_mdecl i 0) (Meta.mctx_lookup omega i)

let mctx_t_lookup_shifted (delta : Meta.mctx_t) (i : int) : Meta.mdecl_t option
    =
  Option.map (mshift_mdecl_t i 0) (Meta.mctx_t_lookup delta i)

let rec mshift_ctyp d c : Comp.ctyp -> Comp.ctyp = function
  | Comp.CBox ms -> Comp.CBox (mshift_msrt d c ms)
  | Comp.CArr (t1, t2) -> Comp.CArr (mshift_ctyp d c t1, mshift_ctyp d c t2)
  | Comp.CPi (x, imp, ms, t) ->
      Comp.CPi (x, imp, mshift_msrt d c ms, mshift_ctyp d (c + 1) t)

let rec mshift_ctyp_t d c : Comp.ctyp_t -> Comp.ctyp_t = function
  | Comp.TBox mt -> Comp.TBox (mshift_mtyp d c mt)
  | Comp.TArr (t1, t2) ->
      Comp.TArr (mshift_ctyp_t d c t1, mshift_ctyp_t d c t2)
  | Comp.TPi (x, imp, mt, t) ->
      Comp.TPi (x, imp, mshift_mtyp d c mt, mshift_ctyp_t d (c + 1) t)

let rec mshift_exp d c : Comp.exp -> Comp.exp = function
  | Comp.Var i -> Comp.Var i
  | Comp.RecConst r -> Comp.RecConst r
  | Comp.Box mo -> Comp.Box (mshift_mobj d c mo)
  | Comp.Fn (x, t, e) ->
      Comp.Fn (x, Option.map (mshift_ctyp d c) t, mshift_exp d c e)
  | Comp.App (e1, e2) -> Comp.App (mshift_exp d c e1, mshift_exp d c e2)
  | Comp.MLam (x, e) -> Comp.MLam (x, mshift_exp d (c + 1) e)
  | Comp.MApp (e, mo) -> Comp.MApp (mshift_exp d c e, mshift_mobj d c mo)
  | Comp.LetBox (x, e1, e2) ->
      Comp.LetBox (x, mshift_exp d c e1, mshift_exp d (c + 1) e2)
  | Comp.Case (inv, e, brs) ->
      Comp.Case (mshift_inv d c inv, mshift_exp d c e, List.map (mshift_branch d c) brs)

and mshift_inv d c (inv : Comp.inv) : Comp.inv =
  let n = List.length inv.Comp.inv_mctx in
  {
    Comp.inv_mctx = mshift_mctx_local d c inv.Comp.inv_mctx;
    Comp.inv_name = inv.Comp.inv_name;
    Comp.inv_msrt = mshift_msrt d (c + n) inv.Comp.inv_msrt;
    Comp.inv_body = mshift_ctyp d (c + n + 1) inv.Comp.inv_body;
  }

and mshift_branch d c (br : Comp.branch) : Comp.branch =
  let n = List.length br.Comp.br_mctx in
  {
    Comp.br_mctx = mshift_mctx_local d c br.Comp.br_mctx;
    Comp.br_pat = mshift_mobj d (c + n) br.Comp.br_pat;
    Comp.br_body = mshift_exp d (c + n) br.Comp.br_body;
  }

(** Shift a local meta-context extension [Ω₀] (innermost first) whose
    entries may refer both to each other and, beyond, to the ambient
    meta-context: entry at position [i] (0-based from innermost) is under
    [n - 1 - i] local binders. *)
and mshift_mctx_local d c (omega0 : Meta.mctx) : Meta.mctx =
  let n = List.length omega0 in
  List.mapi (fun i decl -> mshift_mdecl d (c + (n - 1 - i)) decl) omega0
