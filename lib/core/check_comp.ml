(** Sort checking for the computation level (§4.1).

    Judgment: [(Ω; Φ ⊢ f : ζ) ⊑ (Δ; Ξ ⊢ e : τ)], with the type level an
    output (by erasure, as at the other levels).

    The [case] rule follows the paper: each branch [(Ω₀; [𝒩₀] ↦ f)] is
    checked by synthesizing the pattern's sort, unifying it with the
    scrutinee's sort over [Ω, Ω₀] to obtain [(ρ, Ω′)], and checking the
    body under [Ω′; ⟦ρ⟧Φ] against [⟦ρ⟧⟦𝒩₀/X₀⟧ζ₀].

    Simplification w.r.t. the paper's invariant syntax: we require the
    invariant's own [ΠΩ₁] prefix to be empty — the elaborator instantiates
    it at each case site, which is what checking needs anyway; the stored
    [ΠΩ₁] generality is only for reusable surface annotations.  As in the
    paper, no coverage is required here (see {!Coverage} for the optional
    checker). *)

open Belr_support
open Belr_syntax
open Belr_lf
open Belr_unify

type env = {
  sg : Sign.t;
  omega : Meta.mctx;
  phi : Comp.cctx;
  recs : (Lf.cid_rec * Comp.ctyp) list;
      (** sorts of functions currently being defined (for recursion before
          the signature entry is finalized) *)
}

let make_env ?(recs = []) sg omega phi = { sg; omega; phi; recs }

let lfr_env e = Check_lfr.make_env e.sg e.omega

let pp_ctyp e ppf t = Pp.pp_ctyp (Sign.pp_env e.sg) ppf t

(** Enter one meta-binder. *)
let push_meta (e : env) (d : Meta.mdecl) : env =
  {
    e with
    omega = d :: e.omega;
    phi = List.map (fun (x, t) -> (x, Msub.ctyp 0 (Meta.MShift 1) t)) e.phi;
  }

let push_comp (e : env) (x : Name.t) (t : Comp.ctyp) : env =
  { e with phi = (x, t) :: e.phi }

let mdecl_of_msrt (x : Name.t) : Meta.msrt -> Meta.mdecl = function
  | Meta.MSTerm (psi, q) -> Meta.MDTerm (x, psi, q)
  | Meta.MSSub (p1, p2) -> Meta.MDSub (x, p1, p2)
  | Meta.MSCtx h -> Meta.MDCtx (x, h)
  | Meta.MSParam (psi, f, ms) -> Meta.MDParam (x, psi, f, ms)

(** Does meta-index [i] occur in a comp sort?  Used to ensure the result
    of a [case] on a non-box scrutinee does not depend on [X₀]. *)
let rec scan_ctyp i = function
  | Comp.CBox ms -> scan_msrt i ms
  | Comp.CArr (t1, t2) -> scan_ctyp i t1 || scan_ctyp i t2
  | Comp.CPi (_, _, ms, t) -> scan_msrt i ms || scan_ctyp (i + 1) t

and scan_msrt i ms =
  (* reuse the dependency collector from the unifier on a dummy decl *)
  let d = mdecl_of_msrt "_" ms in
  List.mem i (Unify.decl_deps d)

(** Strip one meta-binder from a sort known not to mention it. *)
let strip_meta1 (t : Comp.ctyp) : Comp.ctyp =
  Msub.ctyp 0
    (Meta.MDot
       ( Meta.MOCtx
           { Ctxs.s_var = None; Ctxs.s_promoted = false; Ctxs.s_decls = [] },
         Meta.MShift 0 ))
    t

(* --- well-formedness of comp sorts -------------------------------------- *)

let rec wf_ctyp (e : env) (t : Comp.ctyp) : Comp.ctyp_t =
  match t with
  | Comp.CBox ms -> Comp.TBox (Check_meta.wf_msrt (lfr_env e) ms)
  | Comp.CArr (t1, t2) -> Comp.TArr (wf_ctyp e t1, wf_ctyp e t2)
  | Comp.CPi (x, imp, ms, t') ->
      let mt = Check_meta.wf_msrt (lfr_env e) ms in
      let e' = push_meta e (mdecl_of_msrt x ms) in
      Comp.TPi (x, imp, mt, wf_ctyp e' t')

(* --- expressions ---------------------------------------------------------- *)

let rec check_exp (e : env) (f : Comp.exp) (zeta : Comp.ctyp) : unit =
  match (f, zeta) with
  | Comp.Fn (x, ann, body), Comp.CArr (t1, t2) ->
      (match ann with
      | Some t when not (Equal.ctyp t t1) ->
          Error.raise_msg "fn annotation does not match the expected sort"
      | _ -> ());
      check_exp (push_comp e x t1) body t2
  | Comp.Fn _, _ ->
      Error.raise_msg "fn expression checked against a non-arrow sort %a"
        (pp_ctyp e) zeta
  | Comp.MLam (x, body), Comp.CPi (_, _, ms, t) ->
      check_exp (push_meta e (mdecl_of_msrt x ms)) body t
  | Comp.MLam _, _ ->
      Error.raise_msg "mlam expression checked against a non-Π sort %a"
        (pp_ctyp e) zeta
  | Comp.Box mo, Comp.CBox ms -> Check_meta.check_mobj (lfr_env e) mo ms
  | Comp.Box _, _ ->
      Error.raise_msg "boxed object checked against a non-box sort %a"
        (pp_ctyp e) zeta
  | Comp.LetBox (x, f1, f2), _ ->
      let ms =
        match synth_exp e f1 with
        | Comp.CBox ms -> ms
        | t ->
            Error.raise_msg "let [%s] = … requires a box sort, got %a"
              (Name.to_string x) (pp_ctyp e) t
      in
      let e' = push_meta e (mdecl_of_msrt x ms) in
      check_exp e' f2 (Msub.ctyp 0 (Meta.MShift 1) zeta)
  | Comp.Case (inv, scrut, branches), _ ->
      check_case e inv scrut branches zeta
  | (Comp.Var _ | Comp.RecConst _ | Comp.App _ | Comp.MApp _), _ ->
      let t = synth_exp e f in
      if not (Equal.ctyp t zeta) then
        Error.raise_msg "sort mismatch: expected %a, synthesized %a"
          (pp_ctyp e) zeta (pp_ctyp e) t

and synth_exp (e : env) (f : Comp.exp) : Comp.ctyp =
  match f with
  | Comp.Var i -> (
      match List.nth_opt e.phi (i - 1) with
      | Some (_, t) -> t
      | None -> Error.raise_msg "unbound computation variable %d" i)
  | Comp.RecConst r -> (
      match List.assoc_opt r e.recs with
      | Some t -> t
      | None -> (Sign.rec_entry e.sg r).Sign.r_styp)
  | Comp.App (f1, f2) -> (
      match synth_exp e f1 with
      | Comp.CArr (t1, t2) ->
          check_exp e f2 t1;
          t2
      | Comp.CPi _ ->
          Error.raise_msg
            "function expects a meta-object (use explicit application)"
      | t -> Error.raise_msg "application of a non-function of sort %a"
               (pp_ctyp e) t)
  | Comp.MApp (f1, mo) -> (
      match synth_exp e f1 with
      | Comp.CPi (_, _, ms, t) ->
          Check_meta.check_mobj (lfr_env e) mo ms;
          Msub.ctyp 0 (Msub.inst1 mo) t
      | t ->
          Error.raise_msg "meta-application of a non-Π function of sort %a"
            (pp_ctyp e) t)
  | Comp.Box (Meta.MOTerm ({ Meta.hat_var = None; Meta.hat_names = [] }, m)) ->
      (* a closed boxed neutral synthesizes its principal sort, so
         [let \[K\] = \[ |- M\] in …] needs no annotation *)
      let psi =
        { Ctxs.s_var = None; Ctxs.s_promoted = false; Ctxs.s_decls = [] }
      in
      let s, _ = Check_lfr.synth_neutral (lfr_env e) psi m in
      Comp.CBox (Meta.MSTerm (psi, s))
  | Comp.Box _ | Comp.Fn _ | Comp.MLam _ | Comp.LetBox _ | Comp.Case _ ->
      Error.raise_msg
        "cannot synthesize a sort for this expression; add an annotation"

(* --- case and branches ----------------------------------------------------- *)

and check_case (e : env) (inv : Comp.inv) (scrut : Comp.exp)
    (branches : Comp.branch list) (zeta_res : Comp.ctyp) : unit =
  if inv.Comp.inv_mctx <> [] then
    Error.raise_msg
      "case invariants must have their ΠΩ₀ prefix instantiated (the \
       elaborator does this; see DESIGN.md)";
  let ms_s = inv.Comp.inv_msrt in
  ignore (Check_meta.wf_msrt (lfr_env e) ms_s);
  check_exp e scrut (Comp.CBox ms_s);
  (* the expected result: ⟦𝒩/X₀⟧ζ₀ when the scrutinee is a literal box,
     otherwise ζ₀ must not depend on X₀ *)
  (match scrut with
  | Comp.Box mo ->
      let t = Msub.ctyp 0 (Msub.inst1 mo) inv.Comp.inv_body in
      if not (Equal.ctyp t zeta_res) then
        Error.raise_msg "case result %a does not match the expected sort %a"
          (pp_ctyp e) t (pp_ctyp e) zeta_res
  | _ ->
      if scan_ctyp 1 inv.Comp.inv_body then
        Error.raise_msg
          "case invariant depends on the scrutinee, but the scrutinee is \
           not a boxed object";
      let t = strip_meta1 inv.Comp.inv_body in
      if not (Equal.ctyp t zeta_res) then
        Error.raise_msg "case result does not match the expected sort");
  let scrut_obj = match scrut with Comp.Box mo -> Some mo | _ -> None in
  List.iter (fun br -> check_branch e br inv scrut_obj) branches

(** Synthesize a sort for a branch pattern in context [psi_s] (the
    scrutinee sort's context), under [Ω, Ω₀]. *)
and pattern_srt (e_all : env) (pat : Meta.mobj) (ms_s : Meta.msrt) : Meta.msrt
    =
  let lfr = lfr_env e_all in
  match (pat, ms_s) with
  | Meta.MOTerm (hat, m), Meta.MSTerm (psi_s, q_s) ->
      if not (Check_meta.hat_matches_sctx hat psi_s) then
        Error.raise_msg "pattern context does not match the scrutinee context";
      let s_pat =
        match m with
        | Lf.Root (h, sp) ->
            let s_h = Check_lfr.head_srt lfr psi_s h ~target:q_s in
            Check_lfr.check_spine lfr psi_s sp s_h
        | Lf.Lam _ -> Error.raise_msg "pattern must be a neutral term"
      in
      Meta.MSTerm (psi_s, s_pat)
  | Meta.MOCtx psi, Meta.MSCtx h ->
      Check_lfr.check_sctx_schema lfr psi h;
      Meta.MSCtx h
  | Meta.MOParam (hat, hd), Meta.MSParam (psi_s, _, _) -> (
      if not (Check_meta.hat_matches_sctx hat psi_s) then
        Error.raise_msg "pattern context does not match the scrutinee context";
      match hd with
      | Lf.PVar (p, _) | Lf.BVar p ->
          ignore p;
          (* the parameter's own declared world *)
          let f, ms =
            match hd with
            | Lf.PVar (p, _) ->
                let _, f, ms = Check_lfr.pvar_decl lfr p in
                (f, ms)
            | Lf.BVar i -> (
                match Ctxs.sctx_lookup psi_s i with
                | Some (Ctxs.SCBlock (_, f, ms)) ->
                    ( Hsub.sub_selem (Lf.mk_shift i) f,
                      List.map (Hsub.sub_normal (Lf.mk_shift i)) ms )
                | _ -> Error.raise_msg "pattern block not found")
            | _ -> assert false
          in
          Meta.MSParam (psi_s, f, ms)
      | _ -> Error.raise_msg "invalid parameter pattern")
  | Meta.MOSub _, Meta.MSSub _ ->
      Error.raise_msg "substitution patterns are not supported"
  | _ -> Error.raise_msg "pattern does not match the scrutinee's sort former"

and check_branch (e : env) (br : Comp.branch) (inv : Comp.inv)
    (scrut_obj : Meta.mobj option) : unit =
  let omega0 = br.Comp.br_mctx in
  let n0 = List.length omega0 in
  let omega_all = omega0 @ e.omega in
  (* Ω, Ω₀ must be well-formed *)
  ignore (Check_meta.wf_mctx e.sg omega_all);
  let e_all = { e with omega = omega_all } in
  let ms_shift = Msub.msrt 0 (Meta.MShift n0) inv.Comp.inv_msrt in
  (* synthesize the pattern's sort and unify with the scrutinee's *)
  let ms_pat = pattern_srt e_all br.Comp.br_pat ms_shift in
  let st = Unify.make ~sg:e.sg ~omega:omega_all ~flex:(fun _ -> true) in
  (try Unify.unify_msrt ~leq:true st ms_pat ms_shift
   with Unify.Unify msg ->
     Error.raise_msg "branch pattern does not match the scrutinee sort: %s"
       msg);
  (* dependent matching: when the scrutinee is a literal box, its object
     refines the branch too (this is what makes induction on terms, as in
     aeq-refl, go through) *)
  (match scrut_obj with
  | Some mo -> (
      try Unify.unify_mobj st (Msub.mobj 0 (Meta.MShift n0) mo) br.Comp.br_pat
      with Unify.Unify msg ->
        Error.raise_msg "branch pattern does not match the scrutinee: %s" msg)
  | None -> ());
  let rho, omega' = Unify.solve st in
  (* the body's expected sort: ⟦ρ⟧⟦𝒩₀/X₀⟧ζ₀ *)
  let inv_body_shifted = Msub.ctyp 1 (Meta.MShift n0) inv.Comp.inv_body in
  let t0 = Msub.ctyp 0 (Msub.inst1 br.Comp.br_pat) inv_body_shifted in
  let t_final = Msub.ctyp 0 rho t0 in
  let phi' =
    List.map
      (fun (x, t) -> (x, Msub.ctyp 0 rho (Msub.ctyp 0 (Meta.MShift n0) t)))
      e.phi
  in
  let body' = Msub.exp 0 rho br.Comp.br_body in
  let e' = { e with omega = omega'; phi = phi' } in
  check_exp e' body' t_final
