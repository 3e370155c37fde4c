(** Type-level judgments for the contextual layer (§3.2):

    - [Δ ⊢ 𝒜]            contextual type well-formedness ({!wf_mtyp})
    - [Δ ⊢ ℳ : 𝒜]        contextual object typing ({!check_mobj})
    - [⊢ Δ]              meta-context formation ({!wf_mctx})
    - [Δ₁ ⊢ ρ : Δ₂]      meta-substitution typing ({!check_msub})

    These are the targets of the contextual conservativity theorem
    (Thm 3.2.2); the sort-level counterparts live in
    [Belr_core.Check_meta]. *)

open Belr_support
open Belr_syntax

(** Structurally erase a context object's annotations: context objects at
    the type level only carry embedded sorts (images of [Erase]). *)
let erased_ctx_of_sctx (psi : Ctxs.sctx) : Ctxs.ctx =
  {
    Ctxs.c_var = psi.Ctxs.s_var;
    Ctxs.c_decls = List.map Msub.structural_erase psi.Ctxs.s_decls;
  }

let hat_matches_ctx (h : Meta.hat) (g : Ctxs.ctx) : bool =
  h.Meta.hat_var = g.Ctxs.c_var
  && List.length h.Meta.hat_names = List.length g.Ctxs.c_decls

let wf_mtyp (e : Check_lf.env) (mt : Meta.mtyp) : unit =
  match mt with
  | Meta.MTTerm (g, a) -> (
      Check_lf.check_ctx e g;
      match a with
      | Lf.Atom _ -> Check_lf.check_typ e g a
      | Lf.Pi _ ->
          Error.raise_msg
            "contextual types carry atomic types only (Γ.P); use a larger \
             context instead")
  | Meta.MTSub (g1, g2) ->
      Check_lf.check_ctx e g1;
      Check_lf.check_ctx e g2
  | Meta.MTCtx _ -> ()
  | Meta.MTParam (g, el, ms) ->
      Check_lf.check_ctx e g;
      Check_lf.check_elem e Ctxs.empty_ctx el;
      Check_lf.check_elem_inst e g el ms

let check_mobj (e : Check_lf.env) (mo : Meta.mobj) (mt : Meta.mtyp) : unit =
  match (mo, mt) with
  | Meta.MOTerm (h, m), Meta.MTTerm (g, a) ->
      if not (hat_matches_ctx h g) then
        Error.raise_msg "contextual object's context does not match its type";
      Check_lf.check_normal e g m a
  | Meta.MOSub (h, s), Meta.MTSub (g1, g2) ->
      if not (hat_matches_ctx h g1) then
        Error.raise_msg "substitution object's context does not match its type";
      Check_lf.check_sub e g1 s g2
  | Meta.MOCtx psi, Meta.MTCtx gcid ->
      Check_lf.check_ctx_schema e (erased_ctx_of_sctx psi) gcid
  | Meta.MOParam (h, hd), Meta.MTParam (g, el, ms) -> (
      if not (hat_matches_ctx h g) then
        Error.raise_msg "parameter object's context does not match its type";
      match hd with
      | Lf.BVar i -> (
          match Ctxs.ctx_lookup g i with
          | Some (Ctxs.CBlock (_, el', ms')) ->
              let el' = Hsub.sub_elem (Lf.mk_shift i) el' in
              let ms' = List.map (Hsub.sub_normal (Lf.mk_shift i)) ms' in
              if not (Equal.elem el' el && Equal.spine ms' ms) then
                Error.raise_msg
                  "parameter instantiation has a mismatched world"
          | _ -> Error.raise_msg "parameter instantiation is not a block")
      | Lf.PVar (p, s) -> (
          match Msub.mctx_t_lookup_shifted e.Check_lf.delta p with
          | Some (Meta.TDParam (_, g_p, el_p, ms_p)) ->
              Check_lf.check_sub e g s g_p;
              let el' = Hsub.sub_elem s el_p in
              let ms' = List.map (Hsub.sub_normal s) ms_p in
              if not (Equal.elem el' el && Equal.spine ms' ms) then
                Error.raise_msg
                  "parameter instantiation has a mismatched world"
          | _ -> Error.raise_msg "not a parameter variable")
      | _ ->
          Error.raise_msg
            "parameter instantiation must be a block or parameter variable")
  | _ -> Error.raise_msg "contextual object does not match its contextual type"

(** [⊢ Δ]: check each declaration in its prefix. *)
let wf_mctx (sg : Sign.t) (delta : Meta.mctx_t) : unit =
  let rec go = function
    | [] -> ()
    | d :: rest ->
        go rest;
        let e = Check_lf.make_env sg rest in
        (match d with
        | Meta.TDTerm (_, g, a) -> wf_mtyp e (Meta.MTTerm (g, a))
        | Meta.TDSub (_, g1, g2) -> wf_mtyp e (Meta.MTSub (g1, g2))
        | Meta.TDCtx (_, g) -> wf_mtyp e (Meta.MTCtx g)
        | Meta.TDParam (_, g, el, ms) -> wf_mtyp e (Meta.MTParam (g, el, ms)))
  in
  go delta

let mtyp_of_mdecl_t : Meta.mdecl_t -> Meta.mtyp = function
  | Meta.TDTerm (_, g, a) -> Meta.MTTerm (g, a)
  | Meta.TDSub (_, g1, g2) -> Meta.MTSub (g1, g2)
  | Meta.TDCtx (_, g) -> Meta.MTCtx g
  | Meta.TDParam (_, g, el, ms) -> Meta.MTParam (g, el, ms)

(** [Δ₁ ⊢ ρ : Δ₂]. *)
let rec check_msub (e : Check_lf.env) (rho : Meta.msub) (delta2 : Meta.mctx_t)
    : unit =
  match (rho, delta2) with
  | Meta.MShift n, _ ->
      let rec drop n l =
        if n = 0 then l
        else
          match l with
          | _ :: tl -> drop (n - 1) tl
          | [] -> Error.raise_msg "meta-shift out of range"
      in
      let remaining = drop n e.Check_lf.delta in
      if List.length remaining <> List.length delta2 then
        Error.raise_msg "meta-shift does not match the expected meta-context"
  | Meta.MDot (o, rho'), d :: rest ->
      check_msub e rho' rest;
      check_mobj e o (Msub.mtyp 0 rho' (mtyp_of_mdecl_t d))
  | Meta.MDot _, [] ->
      Error.raise_msg "meta-substitution is longer than its domain"
