(** Application of meta-substitutions [⟦θ⟧] (§3.2, after Cave & Pientka).

    A meta-substitution instantiates meta-variables [u[σ]] with contextual
    terms, parameter variables with concrete (or other parameter)
    variables, and context variables with concrete contexts — splicing
    the instantiation into every context rooted at the variable.
    Instantiating [u] triggers hereditary substitution: [⟦Ψ̂.R/u⟧(u[σ]) =
    [⟦θ⟧σ]R].

    Meta renaming is the special case [θ = MShift d] (index [i] moves to
    [i + d]); it never instantiates, so it never reaches [Hsub].  At
    [MShift 0] every function returns its input unchanged.

    All functions take a cutoff [c]: indices [≤ c] are locally bound
    (by comp-level [MLam]/[LetBox]/branches) and untouched. *)

open Belr_support
open Belr_syntax
open Lf

(** The object [θ] instantiates index [i] with, if any (allocates only
    then). *)
let rec inst (theta : Meta.msub) (i : int) : Meta.mobj option =
  match theta with
  | Meta.MShift _ -> None
  | Meta.MDot (o, theta') -> if i = 1 then Some o else inst theta' (i - 1)

(** The index [θ] renames [i] to, when [inst θ i = None]. *)
let rec var (theta : Meta.msub) (i : int) : int =
  match theta with
  | Meta.MShift n -> i + n
  | Meta.MDot (_, theta') -> var theta' (i - 1)

let rec head c (theta : Meta.msub) (h : head) :
    [ `Head of head | `Norm of normal ] =
  match (theta, h) with
  | Meta.MShift 0, _ | _, (Const _ | BVar _) -> `Head h
  | _, MVar (u, s) -> (
      let s' = sub c theta s in
      if u <= c then `Head (mk_mvar u s')
      else
        match inst theta (u - c) with
        | None -> `Head (mk_mvar (var theta (u - c) + c) s')
        | Some o -> `Norm (inst_mvar c o s'))
  | _, PVar (p, s) -> (
      let s' = sub c theta s in
      if p <= c then `Head (mk_pvar p s')
      else
        match inst theta (p - c) with
        | None -> `Head (mk_pvar (var theta (p - c) + c) s')
        | Some (Meta.MOParam (_, hd)) -> (
            let hd =
              match head 0 (Meta.MShift c) hd with
              | `Head hd -> hd
              | `Norm _ -> Error.violation "renaming reduced a head"
            in
            (* transport the instantiating variable through s' *)
            match Hsub.sub_head s' hd with
            | Hsub.Rhead h' -> `Head h'
            | Hsub.Rnorm m -> `Norm m
            | Hsub.Rtup _ ->
                Error.violation
                  "parameter variable resolved to a bare tuple")
        | Some _ ->
            Error.violation
              "parameter variable instantiated by a non-parameter")
  | _, Proj (b, k) -> (
      match head c theta b with
      | `Head b' -> `Head (mk_proj b' k)
      | `Norm (Root (b', [])) -> `Head (mk_proj b' k)
      | `Norm _ ->
          Error.violation "projection base instantiated by a non-variable")

(** [⟦Ψ̂.M/u⟧(u[s'])] under [c] local binders: [[s'](↑ᶜ M)]. *)
and inst_mvar c (o : Meta.mobj) (s' : sub) : normal =
  match o with
  | Meta.MOTerm (_, m) -> Hsub.sub_normal s' (normal 0 (Meta.MShift c) m)
  | _ -> Error.violation "meta-variable instantiated by a non-term"

and normal c theta (m : normal) : normal =
  match (theta, m) with
  | Meta.MShift 0, _ -> m
  | _, Lam (x, n) -> mk_lam x (normal c theta n)
  | _, Root (h, sp) -> (
      let sp' = spine c theta sp in
      match h with
      | Const _ | BVar _ -> mk_root h sp'
      | MVar (u, s) -> (
          let s' = sub c theta s in
          if u <= c then mk_root (mk_mvar u s') sp'
          else
            match inst theta (u - c) with
            | None -> mk_root (mk_mvar (var theta (u - c) + c) s') sp'
            | Some o -> Hsub.reduce (inst_mvar c o s') sp')
      | PVar _ | Proj _ -> (
          match head c theta h with
          | `Head h' -> mk_root h' sp'
          | `Norm n -> Hsub.reduce n sp'))

and spine c theta sp = List.map (normal c theta) sp

and front c theta = function
  | Obj m -> Obj (normal c theta m)
  | Tup t -> Tup (List.map (normal c theta) t)
  | Undef -> Undef

and sub c theta (s : sub) : sub =
  match (theta, s) with
  | Meta.MShift 0, _ | _, (Empty | Shift _) -> s
  | _, Dot (f, s') -> mk_dot (front c theta f) (sub c theta s')

let rec typ c theta (a : typ) : typ =
  match (theta, a) with
  | Meta.MShift 0, _ -> a
  | _, Atom (p, sp) -> mk_atom p (spine c theta sp)
  | _, Pi (x, a1, b) -> mk_pi x (typ c theta a1) (typ c theta b)

let rec srt c theta (q : srt) : srt =
  match (theta, q) with
  | Meta.MShift 0, _ -> q
  | _, SAtom (s, sp) -> mk_satom s (spine c theta sp)
  | _, SEmbed (a, sp) -> mk_sembed a (spine c theta sp)
  | _, SPi (x, s1, s2) -> mk_spi x (srt c theta s1) (srt c theta s2)

let sblock c theta (b : Ctxs.sblock) : Ctxs.sblock =
  List.map (fun (x, s) -> (x, srt c theta s)) b

let block c theta (b : Ctxs.block) : Ctxs.block =
  List.map (fun (x, a) -> (x, typ c theta a)) b

let selem c theta (f : Ctxs.selem) : Ctxs.selem =
  {
    f with
    Ctxs.f_params = List.map (fun (x, s) -> (x, srt c theta s)) f.Ctxs.f_params;
    Ctxs.f_block = sblock c theta f.Ctxs.f_block;
  }

let elem c theta (e : Ctxs.elem) : Ctxs.elem =
  {
    e with
    Ctxs.e_params = List.map (fun (x, a) -> (x, typ c theta a)) e.Ctxs.e_params;
    Ctxs.e_block = block c theta e.Ctxs.e_block;
  }

let scentry c theta : Ctxs.scentry -> Ctxs.scentry = function
  | Ctxs.SCDecl (x, s) -> Ctxs.SCDecl (x, srt c theta s)
  | Ctxs.SCBlock (x, f, ms) ->
      Ctxs.SCBlock (x, selem c theta f, List.map (normal c theta) ms)

let centry c theta : Ctxs.centry -> Ctxs.centry = function
  | Ctxs.CDecl (x, a) -> Ctxs.CDecl (x, typ c theta a)
  | Ctxs.CBlock (x, e, ms) ->
      Ctxs.CBlock (x, elem c theta e, List.map (normal c theta) ms)

(** Apply to a sort-level context; instantiating the root context variable
    splices the instantiation's entries below the local ones. *)
let rec sctx c theta (psi : Ctxs.sctx) : Ctxs.sctx =
  match theta with
  | Meta.MShift 0 -> psi
  | _ -> (
      let decls = List.map (scentry c theta) psi.Ctxs.s_decls in
      match psi.Ctxs.s_var with
      | None -> { psi with Ctxs.s_decls = decls }
      | Some i -> (
          if i <= c then { psi with Ctxs.s_decls = decls }
          else
            match inst theta (i - c) with
            | None ->
                let j = var theta (i - c) in
                { psi with Ctxs.s_var = Some (j + c); Ctxs.s_decls = decls }
            | Some (Meta.MOCtx psi0) ->
                let psi0 = sctx 0 (Meta.MShift c) psi0 in
                {
                  Ctxs.s_var = psi0.Ctxs.s_var;
                  Ctxs.s_promoted = psi.Ctxs.s_promoted || psi0.Ctxs.s_promoted;
                  Ctxs.s_decls = decls @ psi0.Ctxs.s_decls;
                }
            | Some _ ->
                Error.violation "context variable instantiated by a non-context"))

let rec ctx c theta (g : Ctxs.ctx) : Ctxs.ctx =
  match theta with
  | Meta.MShift 0 -> g
  | _ -> (
      let decls = List.map (centry c theta) g.Ctxs.c_decls in
      match g.Ctxs.c_var with
      | None -> { g with Ctxs.c_decls = decls }
      | Some i -> (
          if i <= c then { g with Ctxs.c_decls = decls }
          else
            match inst theta (i - c) with
            | None ->
                let j = var theta (i - c) in
                { Ctxs.c_var = Some (j + c); Ctxs.c_decls = decls }
            | Some (Meta.MOCtx psi0) ->
                (* Context objects at the type level arise from [Erase.mobj],
                   which produces contexts whose sorts are all embeddings;
                   those erase structurally, without a signature. *)
                let psi0 = sctx 0 (Meta.MShift c) psi0 in
                {
                  Ctxs.c_var = psi0.Ctxs.s_var;
                  Ctxs.c_decls = decls @ List.map structural_erase psi0.Ctxs.s_decls;
                }
            | Some _ ->
                Error.violation "context variable instantiated by a non-context"))

and structural_erase : Ctxs.scentry -> Ctxs.centry = function
  | Ctxs.SCDecl (x, s) -> Ctxs.CDecl (x, structural_erase_srt s)
  | Ctxs.SCBlock (x, f, ms) ->
      Ctxs.CBlock
        ( x,
          {
            Ctxs.e_name = f.Ctxs.f_name;
            Ctxs.e_params =
              List.map (fun (y, s) -> (y, structural_erase_srt s)) f.Ctxs.f_params;
            Ctxs.e_block =
              List.map (fun (y, s) -> (y, structural_erase_srt s)) f.Ctxs.f_block;
          },
          ms )

and structural_erase_srt : srt -> typ = function
  | SEmbed (a, sp) -> mk_atom a sp
  | SPi (x, s1, s2) -> mk_pi x (structural_erase_srt s1) (structural_erase_srt s2)
  | SAtom _ ->
      Error.violation
        "structural erasure hit a proper sort; erase with the signature first"

let hat c theta (h : Meta.hat) : Meta.hat =
  match h.Meta.hat_var with
  | None -> h
  | Some i -> (
      if i <= c then h
      else
        match inst theta (i - c) with
        | None -> { h with Meta.hat_var = Some (var theta (i - c) + c) }
        | Some (Meta.MOCtx psi0) ->
            let psi0 = sctx 0 (Meta.MShift c) psi0 in
            {
              Meta.hat_var = psi0.Ctxs.s_var;
              Meta.hat_names = h.Meta.hat_names @ Ctxs.sctx_names psi0;
            }
        | Some _ ->
            Error.violation "context variable instantiated by a non-context")

let msrt c theta : Meta.msrt -> Meta.msrt = function
  | Meta.MSTerm (psi, q) -> Meta.MSTerm (sctx c theta psi, srt c theta q)
  | Meta.MSSub (p1, p2) -> Meta.MSSub (sctx c theta p1, sctx c theta p2)
  | Meta.MSCtx h -> Meta.MSCtx h
  | Meta.MSParam (psi, f, ms) ->
      Meta.MSParam (sctx c theta psi, selem c theta f, List.map (normal c theta) ms)

let mobj c theta : Meta.mobj -> Meta.mobj = function
  | Meta.MOTerm (h, m) -> Meta.MOTerm (hat c theta h, normal c theta m)
  | Meta.MOSub (h, s) -> Meta.MOSub (hat c theta h, sub c theta s)
  | Meta.MOCtx psi -> Meta.MOCtx (sctx c theta psi)
  | Meta.MOParam (h, hd) -> (
      let h' = hat c theta h in
      match head c theta hd with
      | `Head hd' -> Meta.MOParam (h', hd')
      | `Norm _ ->
          Error.violation "parameter instantiation reduced to a non-variable")

let mdecl c theta : Meta.mdecl -> Meta.mdecl = function
  | Meta.MDTerm (n, psi, q) -> Meta.MDTerm (n, sctx c theta psi, srt c theta q)
  | Meta.MDSub (n, p1, p2) -> Meta.MDSub (n, sctx c theta p1, sctx c theta p2)
  | Meta.MDCtx (n, h) -> Meta.MDCtx (n, h)
  | Meta.MDParam (n, psi, f, ms) ->
      Meta.MDParam
        (n, sctx c theta psi, selem c theta f, List.map (normal c theta) ms)

(** Look up declaration [i] of [Ω] and transport it to be valid in all of
    [Ω] (the stored entry lives in the prefix above index [i]). *)
let mctx_lookup_shifted (omega : Meta.mctx) (i : int) : Meta.mdecl option =
  Option.map (mdecl 0 (Meta.MShift i)) (Meta.mctx_lookup omega i)

let rec ctyp c theta : Comp.ctyp -> Comp.ctyp = function
  | Comp.CBox ms -> Comp.CBox (msrt c theta ms)
  | Comp.CArr (t1, t2) -> Comp.CArr (ctyp c theta t1, ctyp c theta t2)
  | Comp.CPi (x, imp, ms, t) ->
      Comp.CPi (x, imp, msrt c theta ms, ctyp (c + 1) theta t)

let mctx_local c theta (omega0 : Meta.mctx) : Meta.mctx =
  let n = List.length omega0 in
  List.mapi (fun i d -> mdecl (c + (n - 1 - i)) theta d) omega0

let rec exp c theta : Comp.exp -> Comp.exp = function
  | Comp.Var i -> Comp.Var i
  | Comp.RecConst r -> Comp.RecConst r
  | Comp.Box mo -> Comp.Box (mobj c theta mo)
  | Comp.Fn (x, t, e) -> Comp.Fn (x, Option.map (ctyp c theta) t, exp c theta e)
  | Comp.App (e1, e2) -> Comp.App (exp c theta e1, exp c theta e2)
  | Comp.MLam (x, e) -> Comp.MLam (x, exp (c + 1) theta e)
  | Comp.MApp (e, mo) -> Comp.MApp (exp c theta e, mobj c theta mo)
  | Comp.LetBox (x, e1, e2) ->
      Comp.LetBox (x, exp c theta e1, exp (c + 1) theta e2)
  | Comp.Case (inv, e, brs) ->
      Comp.Case (inv_ c theta inv, exp c theta e, List.map (branch c theta) brs)

and inv_ c theta (i : Comp.inv) : Comp.inv =
  let n = List.length i.Comp.inv_mctx in
  {
    Comp.inv_mctx = mctx_local c theta i.Comp.inv_mctx;
    Comp.inv_name = i.Comp.inv_name;
    Comp.inv_msrt = msrt (c + n) theta i.Comp.inv_msrt;
    Comp.inv_body = ctyp (c + n + 1) theta i.Comp.inv_body;
  }

and branch c theta (b : Comp.branch) : Comp.branch =
  let n = List.length b.Comp.br_mctx in
  {
    Comp.br_mctx = mctx_local c theta b.Comp.br_mctx;
    Comp.br_pat = mobj (c + n) theta b.Comp.br_pat;
    Comp.br_body = exp (c + n) theta b.Comp.br_body;
  }

(** Instantiate the innermost meta-binder: [⟦𝒩/X⟧]. *)
let inst1 (o : Meta.mobj) : Meta.msub = Meta.MDot (o, Meta.MShift 0)

(** Composition: [apply (mcomp t1 t2) = apply t2 ∘ apply t1]. *)
let rec mcomp (t1 : Meta.msub) (t2 : Meta.msub) : Meta.msub =
  match (t1, t2) with
  | Meta.MShift 0, _ -> t2
  | Meta.MShift n, Meta.MDot (_, t2') -> mcomp (Meta.MShift (n - 1)) t2'
  | Meta.MShift n, Meta.MShift m -> Meta.MShift (n + m)
  | Meta.MDot (o, t1'), _ -> Meta.MDot (mobj 0 t2 o, mcomp t1' t2)

(* --- type-level applications (for the conservativity target) --------- *)

let mtyp c theta : Meta.mtyp -> Meta.mtyp = function
  | Meta.MTTerm (g, a) -> Meta.MTTerm (ctx c theta g, typ c theta a)
  | Meta.MTSub (g1, g2) -> Meta.MTSub (ctx c theta g1, ctx c theta g2)
  | Meta.MTCtx g -> Meta.MTCtx g
  | Meta.MTParam (g, e, ms) ->
      Meta.MTParam (ctx c theta g, elem c theta e, List.map (normal c theta) ms)

let mdecl_t c theta : Meta.mdecl_t -> Meta.mdecl_t = function
  | Meta.TDTerm (n, g, a) -> Meta.TDTerm (n, ctx c theta g, typ c theta a)
  | Meta.TDSub (n, g1, g2) -> Meta.TDSub (n, ctx c theta g1, ctx c theta g2)
  | Meta.TDCtx (n, g) -> Meta.TDCtx (n, g)
  | Meta.TDParam (n, g, e, ms) ->
      Meta.TDParam
        (n, ctx c theta g, elem c theta e, List.map (normal c theta) ms)

let mctx_t_lookup_shifted (delta : Meta.mctx_t) (i : int) : Meta.mdecl_t option
    =
  Option.map (mdecl_t 0 (Meta.MShift i)) (Meta.mctx_t_lookup delta i)

let mctx_t_local c theta (delta0 : Meta.mctx_t) : Meta.mctx_t =
  let n = List.length delta0 in
  List.mapi (fun i d -> mdecl_t (c + (n - 1 - i)) theta d) delta0

let rec ctyp_t c theta : Comp.ctyp_t -> Comp.ctyp_t = function
  | Comp.TBox mt -> Comp.TBox (mtyp c theta mt)
  | Comp.TArr (t1, t2) -> Comp.TArr (ctyp_t c theta t1, ctyp_t c theta t2)
  | Comp.TPi (x, imp, mt, t) ->
      Comp.TPi (x, imp, mtyp c theta mt, ctyp_t (c + 1) theta t)

let rec exp_t c theta : Comp.exp_t -> Comp.exp_t = function
  | Comp.TVar i -> Comp.TVar i
  | Comp.TRecConst r -> Comp.TRecConst r
  | Comp.TBoxE mo -> Comp.TBoxE (mobj c theta mo)
  | Comp.TFn (x, t, e) ->
      Comp.TFn (x, Option.map (ctyp_t c theta) t, exp_t c theta e)
  | Comp.TApp (e1, e2) -> Comp.TApp (exp_t c theta e1, exp_t c theta e2)
  | Comp.TMLam (x, e) -> Comp.TMLam (x, exp_t (c + 1) theta e)
  | Comp.TMApp (e, mo) -> Comp.TMApp (exp_t c theta e, mobj c theta mo)
  | Comp.TLetBox (x, e1, e2) ->
      Comp.TLetBox (x, exp_t c theta e1, exp_t (c + 1) theta e2)
  | Comp.TCase (inv, e, brs) ->
      Comp.TCase
        (inv_t c theta inv, exp_t c theta e, List.map (branch_t c theta) brs)

and inv_t c theta (i : Comp.inv_t) : Comp.inv_t =
  let n = List.length i.Comp.tinv_mctx in
  {
    Comp.tinv_mctx = mctx_t_local c theta i.Comp.tinv_mctx;
    Comp.tinv_name = i.Comp.tinv_name;
    Comp.tinv_mtyp = mtyp (c + n) theta i.Comp.tinv_mtyp;
    Comp.tinv_body = ctyp_t (c + n + 1) theta i.Comp.tinv_body;
  }

and branch_t c theta (b : Comp.branch_t) : Comp.branch_t =
  let n = List.length b.Comp.tbr_mctx in
  {
    Comp.tbr_mctx = mctx_t_local c theta b.Comp.tbr_mctx;
    Comp.tbr_pat = mobj (c + n) theta b.Comp.tbr_pat;
    Comp.tbr_body = exp_t (c + n) theta b.Comp.tbr_body;
  }
