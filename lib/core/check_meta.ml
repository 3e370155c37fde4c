(** Sort-level (unified) judgments for the contextual layer (§3.2):

    - [(Ω ⊢ 𝒮) ⊑ (Δ ⊢ 𝒜)]       contextual sort wf, type as output ({!wf_msrt})
    - [(Ω ⊢ 𝒩 : 𝒮) ⊑ (Δ ⊢ ℳ:𝒜)] contextual sorting ({!check_mobj})
    - [⊢ Ω ⊑ Δ]                  meta-context formation ({!wf_mctx})
    - [(Ω₁ ⊢ θ : Ω₂) ⊑ …]        meta-substitution sorting ({!check_msub})

    As at the data level, the type-level output is [Erase.*] of the
    subject, so the functions return the erased image (or unit). *)

open Belr_support
open Belr_syntax
open Belr_lf

let hat_matches_sctx (h : Meta.hat) (psi : Ctxs.sctx) : bool =
  h.Meta.hat_var = psi.Ctxs.s_var
  && List.length h.Meta.hat_names = List.length psi.Ctxs.s_decls

let is_atomic = function Lf.SAtom _ | Lf.SEmbed _ -> true | Lf.SPi _ -> false

let wf_msrt (e : Check_lfr.env) (ms : Meta.msrt) : Meta.mtyp =
  match ms with
  | Meta.MSTerm (psi, q) ->
      let g = Check_lfr.wf_sctx e psi in
      if not (is_atomic q) then
        Error.raise_msg
          "contextual sorts carry atomic sorts only (Ψ.Q); use a larger \
           context instead";
      let a = Check_lfr.wf_srt e psi q in
      Meta.MTTerm (g, a)
  | Meta.MSSub (psi1, psi2) ->
      let g1 = Check_lfr.wf_sctx e psi1 in
      let g2 = Check_lfr.wf_sctx e psi2 in
      Meta.MTSub (g1, g2)
  | Meta.MSCtx h ->
      Meta.MTCtx (Sign.sschema_entry e.Check_lfr.sg h).Sign.h_refines
  | Meta.MSParam (psi, f, ms') ->
      let g = Check_lfr.wf_sctx e psi in
      let el = Check_lfr.wf_selem e Ctxs.empty_sctx f in
      Check_lfr.check_selem_inst e psi f ms';
      Meta.MTParam (g, el, ms')

let check_mobj (e : Check_lfr.env) (mo : Meta.mobj) (ms : Meta.msrt) : unit =
  match (mo, ms) with
  | Meta.MOTerm (h, m), Meta.MSTerm (psi, q) ->
      if not (hat_matches_sctx h psi) then
        Error.raise_msg "contextual object's context does not match its sort";
      ignore (Check_lfr.check_normal e psi m q)
  | Meta.MOSub (h, s), Meta.MSSub (psi1, psi2) ->
      if not (hat_matches_sctx h psi1) then
        Error.raise_msg "substitution object's context does not match its sort";
      Check_lfr.check_sub e psi1 s psi2
  | Meta.MOCtx psi, Meta.MSCtx hcid -> Check_lfr.check_sctx_schema e psi hcid
  | Meta.MOParam (h, hd), Meta.MSParam (psi, f, ms') -> (
      if not (hat_matches_sctx h psi) then
        Error.raise_msg "parameter object's context does not match its sort";
      match hd with
      | Lf.BVar i -> (
          match Ctxs.sctx_lookup psi i with
          | Some (Ctxs.SCBlock (_, f', ms'')) ->
              let f' = Hsub.sub_selem (Lf.mk_shift i) f' in
              let ms'' = List.map (Hsub.sub_normal (Lf.mk_shift i)) ms'' in
              if not (Equal.selem f' f && Equal.spine ms'' ms') then
                Error.raise_msg
                  "parameter instantiation has a mismatched world"
          | _ -> Error.raise_msg "parameter instantiation is not a block")
      | Lf.PVar (p, s) ->
          let psi_p, f_p, ms_p = Check_lfr.pvar_decl e p in
          Check_lfr.check_sub e psi s psi_p;
          let f' = Hsub.sub_selem s f_p in
          let ms'' = List.map (Hsub.sub_normal s) ms_p in
          if not (Equal.selem f' f && Equal.spine ms'' ms') then
            Error.raise_msg "parameter instantiation has a mismatched world"
      | _ ->
          Error.raise_msg
            "parameter instantiation must be a block or parameter variable")
  | _ -> Error.raise_msg "contextual object does not match its contextual sort"

(** [⊢ Ω ⊑ Δ]: check each declaration in its prefix; returns the erased
    meta-context Δ. *)
let wf_mctx (sg : Sign.t) (omega : Meta.mctx) : Meta.mctx_t =
  let rec go = function
    | [] -> ()
    | d :: rest ->
        go rest;
        let e = Check_lfr.make_env sg rest in
        ignore
          (wf_msrt e
             (match d with
             | Meta.MDTerm (_, psi, q) -> Meta.MSTerm (psi, q)
             | Meta.MDSub (_, p1, p2) -> Meta.MSSub (p1, p2)
             | Meta.MDCtx (_, h) -> Meta.MSCtx h
             | Meta.MDParam (_, psi, f, ms) -> Meta.MSParam (psi, f, ms)))
  in
  go omega;
  Erase.mctx sg omega

let msrt_of_mdecl : Meta.mdecl -> Meta.msrt = function
  | Meta.MDTerm (_, psi, q) -> Meta.MSTerm (psi, q)
  | Meta.MDSub (_, p1, p2) -> Meta.MSSub (p1, p2)
  | Meta.MDCtx (_, h) -> Meta.MSCtx h
  | Meta.MDParam (_, psi, f, ms) -> Meta.MSParam (psi, f, ms)

(** [(Ω₁ ⊢ θ : Ω₂)]. *)
let rec check_msub (e : Check_lfr.env) (theta : Meta.msub)
    (omega2 : Meta.mctx) : unit =
  match (theta, omega2) with
  | Meta.MShift n, _ ->
      let rec drop n l =
        if n = 0 then l
        else
          match l with
          | _ :: tl -> drop (n - 1) tl
          | [] -> Error.raise_msg "meta-shift out of range"
      in
      let remaining = drop n e.Check_lfr.omega in
      if List.length remaining <> List.length omega2 then
        Error.raise_msg "meta-shift does not match the expected meta-context"
  | Meta.MDot (o, theta'), d :: rest ->
      check_msub e theta' rest;
      check_mobj e o (Msub.msrt 0 theta' (msrt_of_mdecl d))
  | Meta.MDot _, [] ->
      Error.raise_msg "meta-substitution is longer than its domain"
