(** Bidirectional type-level LF checking — the "conventional Beluga" data
    level.  These are exactly the type-level judgments of §3.1.4's table:

    - type formation        [Δ; Γ ⊢ A ⇐ type]
    - type checking         [Δ; Γ ⊢ M ⇐ A]
    - type synthesis        [Δ; Γ ⊢ R ⇒ A]
    - substitution typing   [Δ; Γ₁ ⊢ σ : Γ₂]
    - context formation and schema checking [Δ ⊢ Γ : G]

    Conservativity (Thm 3.1.5) is tested by running these judgments on
    the outputs of the refinement-level checker.

    Since PR 9 the checking judgments are closure-based internally: the
    classifier of every judgment is a {!Whnf.tclo} [(A, σ)] whose
    substitution is pushed one constructor at a time ({!Whnf.clo_inst}
    for spine steps, [dot1] under binders) instead of being applied
    eagerly.  The subject term is always a concrete normal (terms are
    canonical; only classifiers accumulate pending substitutions), and
    the final atomic comparison is {!Whnf.conv_typ} on closures, so a
    dependent application never forces the instantiated codomain unless
    the comparison actually reaches it.  The [check_*]/[infer_*] entry
    points keep their eager signatures. *)

open Belr_support
open Belr_syntax
open Lf

type env = { sg : Sign.t; delta : Meta.mctx_t }

let make_env sg delta = { sg; delta }

let pp_env e = Sign.pp_env e.sg

let pp_typ e g ppf a =
  let penv = Pp.env_of_ctx (pp_env e) g in
  Pp.pp_typ penv ppf a

let pp_normal e g ppf m =
  let penv = Pp.env_of_ctx (pp_env e) g in
  Pp.pp_normal penv ppf m

(* --- meta-context lookups ------------------------------------------- *)

let mvar_decl e (u : int) : Ctxs.ctx * typ =
  match Msub.mctx_t_lookup_shifted e.delta u with
  | Some (Meta.TDTerm (_, g, a)) -> (g, a)
  | Some _ -> Error.raise_msg "meta-variable %d is not a term variable" u
  | None -> Error.raise_msg "unbound meta-variable %d" u

let pvar_decl e (p : int) : Ctxs.ctx * Ctxs.elem * normal list =
  match Msub.mctx_t_lookup_shifted e.delta p with
  | Some (Meta.TDParam (_, g, el, ms)) -> (g, el, ms)
  | Some _ -> Error.raise_msg "meta-variable %d is not a parameter variable" p
  | None -> Error.raise_msg "unbound parameter variable %d" p

let cvar_schema e (i : int) : Lf.cid_schema =
  match Msub.mctx_t_lookup_shifted e.delta i with
  | Some (Meta.TDCtx (_, g)) -> g
  | Some _ -> Error.raise_msg "meta-variable %d is not a context variable" i
  | None -> Error.raise_msg "unbound context variable %d" i

let svar_decl e (i : int) : Ctxs.ctx * Ctxs.ctx =
  match Msub.mctx_t_lookup_shifted e.delta i with
  | Some (Meta.TDSub (_, range, dom)) -> (range, dom)
  | Some _ -> Error.raise_msg "meta-variable %d is not a substitution variable" i
  | None -> Error.raise_msg "unbound substitution variable %d" i

let _ = svar_decl (* substitution variables are future work, as in Beluga *)

(* --- mutual checking ------------------------------------------------- *)

let rec check_typ e (g : Ctxs.ctx) (a : typ) : unit =
  match a with
  | Atom (a_cid, sp) ->
      let k = (Sign.typ_entry e.sg a_cid).Sign.t_kind in
      check_spine_kind e g sp k
  | Pi (x, a1, a2) ->
      check_typ e g a1;
      check_typ e (Ctxs.ctx_push g (Ctxs.CDecl (x, a1))) a2

and check_spine_kind e g (sp : spine) (k : kind) : unit =
  check_spine_kind_c e g sp (k, Lf.id)

and check_spine_kind_c e g (sp : spine) ((k, sk) : Whnf.kclo) : unit =
  match (sp, k) with
  | [], Ktype -> ()
  | m :: sp', Kpi (_, a, k') ->
      check_normal_c e g m (a, sk);
      check_spine_kind_c e g sp' (Whnf.clo_inst (k', sk) m)
  | [], Kpi _ -> Error.raise_msg "type family is not fully applied"
  | _ :: _, Ktype -> Error.raise_msg "type family is over-applied"

and check_normal e g (m : normal) (a : typ) : unit =
  check_normal_c e g m (a, Lf.id)

and check_normal_c e g (m : normal) ((a, sa) as ca : Whnf.tclo) : unit =
  match (m, a) with
  | Lam (x, body), Pi (_, a1, a2) ->
      (* the context stores concrete types (typ_of_bvar shifts them), so
         the domain is forced here — memoized in the Hsub tables *)
      let a1' = Hsub.sub_typ sa a1 in
      check_normal_c e
        (Ctxs.ctx_push g (Ctxs.CDecl (x, a1')))
        body
        (Whnf.clo_push (a2, sa))
  | Lam _, Atom _ ->
      Error.raise_msg "abstraction checked against atomic type %a" (pp_typ e g)
        (Whnf.norm_tclo ca)
  | Root _, Pi _ ->
      Error.raise_msg "term %a is not η-long at type %a" (pp_normal e g) m
        (pp_typ e g) (Whnf.norm_tclo ca)
  | Root (h, sp), Atom _ ->
      let c_h = infer_head_c e g h in
      let c' = check_spine_c e g sp c_h in
      if not (Whnf.conv_typ ca c') then
        Error.raise_msg "type mismatch: expected %a, synthesized %a"
          (pp_typ e g) (Whnf.norm_tclo ca) (pp_typ e g) (Whnf.norm_tclo c')

and infer_neutral e g (m : normal) : typ =
  match m with
  | Root (h, sp) ->
      let c_h = infer_head_c e g h in
      Whnf.norm_tclo (check_spine_c e g sp c_h)
  | Lam _ -> Error.raise_msg "cannot synthesize a type for an abstraction"

and check_spine_c e g (sp : spine) ((a, sa) : Whnf.tclo) : Whnf.tclo =
  match (sp, a) with
  | [], _ -> (a, sa)
  | m :: sp', Pi (_, a1, a2) ->
      check_normal_c e g m (a1, sa);
      check_spine_c e g sp' (Whnf.clo_inst (a2, sa) m)
  | _ :: _, Atom _ -> Error.raise_msg "term is over-applied"

and infer_head_c e g (h : head) : Whnf.tclo =
  match h with
  | Const c -> ((Sign.const_entry e.sg c).Sign.c_typ, Lf.id)
  | BVar i -> (Ctxops.typ_of_bvar g i, Lf.id)
  | Proj (BVar i, k) -> (Ctxops.typ_of_proj g i k, Lf.id)
  | Proj (PVar (p, s), k) ->
      let g_p, el, ms = pvar_decl e p in
      check_sub e g s g_p;
      let blk = Hsub.inst_block el ms in
      (* blk is valid in g_p; transport components through s *)
      (Ctxops.proj_typ blk (mk_pvar p s) s k, Lf.id)
  | Proj (_, _) ->
      Error.raise_msg "projection base must be a block or parameter variable"
  | PVar _ ->
      Error.raise_msg
        "parameter variable used as a term (missing projection or tuple)"
  | MVar (u, s) ->
      let g_u, p = mvar_decl e u in
      check_sub e g s g_u;
      (* the mvar's declared type is transported lazily: consumers see
         the closure (p, s) and unfold only what they inspect *)
      (p, s)

(** [check_sub e g s g2] checks [Δ; g ⊢ s : g2] ([s] maps [g2]-variables
    to terms over [g]). *)
and check_sub e (g : Ctxs.ctx) (s : sub) (g2 : Ctxs.ctx) : unit =
  match s with
  | Empty ->
      if g2.Ctxs.c_var <> None || g2.Ctxs.c_decls <> [] then
        Error.raise_msg "empty substitution used with a non-empty domain"
  | Shift n ->
      let dropped = Ctxops.ctx_drop g n in
      if not (Equal.ctx dropped g2) then
        Error.raise_msg "shift by %d does not match the expected domain" n
  | Dot (f, s') -> (
      match g2.Ctxs.c_decls with
      | [] -> Error.raise_msg "substitution is longer than its domain"
      | Ctxs.CDecl (_, a) :: rest -> (
          let g2' = { g2 with Ctxs.c_decls = rest } in
          check_sub e g s' g2';
          match f with
          | Obj m -> check_normal_c e g m (a, s')
          | Tup _ ->
              Error.raise_msg "tuple substituted for an ordinary variable"
          | Undef -> Error.raise_msg "undefined substitution entry")
      | Ctxs.CBlock (_, el, ms) :: rest -> (
          let g2' = { g2 with Ctxs.c_decls = rest } in
          check_sub e g s' g2';
          let ms' = List.map (Hsub.sub_normal s') ms in
          let blk = Hsub.inst_block (Hsub.sub_elem s' el) ms' in
          match f with
          | Tup t -> check_tuple e g t blk
          | Obj (Root (h, [])) ->
              (* whole-block renaming: h must denote a block with an equal
                 instantiated block of declarations *)
              let blk_h = block_of_head e g h in
              if not (Equal.block blk_h blk) then
                Error.raise_msg "block variable renamed to a mismatched block"
          | Obj _ ->
              Error.raise_msg "term substituted for a block variable"
          | Undef -> Error.raise_msg "undefined substitution entry"))

(** [Δ; Γ ⊢ M⃗ ⇐ D]: check the components of a tuple against a block of
    declarations, substituting earlier components into later types. *)
and check_tuple e g (t : tuple) (blk : Ctxs.block) : unit =
  match (t, blk) with
  | [], [] -> ()
  | m :: t', (_, a) :: blk' ->
      check_normal e g m a;
      (* instantiate the first block binder with m in the remaining types *)
      let blk'' = Hsub.sub_block (dot_obj m (mk_shift 0)) blk' in
      check_tuple e g t' blk''
  | _ ->
      Error.raise_msg "tuple has %d components but block expects %d"
        (List.length t) (List.length blk)

and block_of_head e g (h : head) : Ctxs.block =
  match h with
  | BVar i -> Ctxops.block_of_bvar g i
  | PVar (p, s) ->
      let g_p, el, ms = pvar_decl e p in
      check_sub e g s g_p;
      let blk = Hsub.inst_block el ms in
      (* transport through s: the block's component types live in g_p
         extended by earlier components; substituting s and projections of
         the head itself is done by the caller via proj_typ when needed.
         For whole-block equality we transport pointwise. *)
      List.mapi
        (fun j (x, a) ->
          (* component j is under j block binders; extend s accordingly *)
          let rec ext k s = if k = 0 then s else ext (k - 1) (Hsub.dot1 s) in
          (x, Hsub.sub_typ (ext j s) a))
        blk
  | _ -> Error.raise_msg "expected a block or parameter variable"

(* --- kinds, blocks, schema elements, schemas -------------------------- *)

let rec check_kind e g (k : kind) : unit =
  match k with
  | Ktype -> ()
  | Kpi (x, a, k') ->
      check_typ e g a;
      check_kind e (Ctxs.ctx_push g (Ctxs.CDecl (x, a))) k'

let check_block e g (b : Ctxs.block) : unit =
  let rec go g = function
    | [] -> ()
    | (x, a) :: rest ->
        check_typ e g a;
        go (Ctxs.ctx_push g (Ctxs.CDecl (x, a))) rest
  in
  go g b

let check_elem e g (el : Ctxs.elem) : unit =
  let rec params g = function
    | [] -> g
    | (x, a) :: rest ->
        check_typ e g a;
        params (Ctxs.ctx_push g (Ctxs.CDecl (x, a))) rest
  in
  let g' = params g el.Ctxs.e_params in
  check_block e g' el.Ctxs.e_block

let check_schema e (els : Ctxs.schema) : unit =
  List.iter (check_elem e Ctxs.empty_ctx) els;
  (* no duplicate elements (§3.1.2) *)
  let rec dup = function
    | [] -> ()
    | el :: rest ->
        if List.exists (Equal.elem el) rest then
          Error.raise_msg "schema contains duplicate elements";
        dup rest
  in
  dup els

(** Check the instantiations [ms] of a schema element's parameters
    ([Ω ⊢ M⃗ : E > D]), in context [g]. *)
let check_elem_inst e g (el : Ctxs.elem) (ms : normal list) : unit =
  let rec go s params ms =
    match (params, ms) with
    | [], [] -> ()
    | (_, a) :: params', m :: ms' ->
        check_normal_c e g m (a, s);
        go (dot_obj m s) params' ms'
    | _ ->
        Error.raise_msg "schema element applied to %d arguments, expected %d"
          (List.length ms)
          (List.length el.Ctxs.e_params)
  in
  go mk_empty el.Ctxs.e_params ms

(* --- contexts --------------------------------------------------------- *)

let check_ctx e (g : Ctxs.ctx) : unit =
  (match g.Ctxs.c_var with
  | Some i -> ignore (cvar_schema e i)
  | None -> ());
  let rec go (prefix : Ctxs.ctx) = function
    | [] -> ()
    | d :: rest ->
        (* entries are innermost-first; check outermost first *)
        go prefix rest;
        let prefix_here =
          { prefix with Ctxs.c_decls = rest @ prefix.Ctxs.c_decls }
        in
        (match d with
        | Ctxs.CDecl (_, a) -> check_typ e prefix_here a
        | Ctxs.CBlock (_, el, ms) ->
            check_elem e Ctxs.empty_ctx el;
            check_elem_inst e prefix_here el ms);
        ()
  in
  go { g with Ctxs.c_decls = [] } g.Ctxs.c_decls

(** Schema checking [Δ ⊢ Γ : G] (§3.1.2): every entry must be a block
    matching one of the schema's elements, with well-typed parameters. *)
let check_ctx_schema e (g : Ctxs.ctx) (schema_cid : Lf.cid_schema) : unit =
  let schema = (Sign.schema_entry e.sg schema_cid).Sign.g_elems in
  (match g.Ctxs.c_var with
  | Some i ->
      let g' = cvar_schema e i in
      if g' <> schema_cid then
        Error.raise_msg "context variable has schema %s, expected %s"
          (Sign.schema_entry e.sg g').Sign.g_name
          (Sign.schema_entry e.sg schema_cid).Sign.g_name
  | None -> ());
  let rec go rest =
    match rest with
    | [] -> ()
    | d :: rest' ->
        go rest';
        let prefix =
          { g with Ctxs.c_decls = rest' }
        in
        (match d with
        | Ctxs.CDecl _ ->
            Error.raise_msg
              "context contains a single declaration; schema checking \
               requires block assumptions"
        | Ctxs.CBlock (_, el, ms) ->
            if not (List.exists (Equal.elem el) schema) then
              Error.raise_msg "context block does not match any schema element";
            check_elem_inst e prefix el ms)
  in
  go g.Ctxs.c_decls
