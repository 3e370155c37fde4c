(** The contextual layer (§3.2): contextual types and sorts, contextual
    (meta-)objects, meta-contexts, and meta-substitutions.

    The sort level ([𝒮], [𝒩], [Ω], [θ]) and the type level ([𝒜], [ℳ],
    [Δ], [ρ]) are kept as separate ASTs so that conservativity (Thm 3.2.2)
    is an executable translation ({!Belr_core.Erase}) rather than a
    convention.

    Beyond the paper's grammar we carry parameter variables ([#b]) as a
    fourth form of meta-declaration; the paper's §2 example uses them in
    the variable case of [ceq] ([Ψ ⊢ #b.2]) and its appendix treats them
    as in Beluga. *)

open Belr_support

(** Erased contexts [Ψ̂]/[Γ̂]: only a context-variable root and the entry
    names (innermost first) survive erasure; types and sorts do not occur
    in contextual objects' context components. *)
type hat = { hat_var : int option; hat_names : Name.t list }

let hat_of_sctx (psi : Ctxs.sctx) : hat =
  { hat_var = psi.Ctxs.s_var; hat_names = Ctxs.sctx_names psi }

(** Contextual sorts [𝒮 ::= Ψ.Q | Ψ.Ψ' | H] plus the parameter-variable
    sort [#(Ψ ⊢ F·M⃗)]. *)
type msrt =
  | MSTerm of Ctxs.sctx * Lf.srt
      (** [Ψ.Q]; the sort component is atomic ([SAtom] or [SEmbed]),
          enforced by well-formedness checking. *)
  | MSSub of Ctxs.sctx * Ctxs.sctx
      (** [Ψ.Ψ']: substitutions with range [Ψ] and domain [Ψ']. *)
  | MSCtx of Lf.cid_sschema  (** a schema [H], classifying contexts *)
  | MSParam of Ctxs.sctx * Ctxs.selem * Lf.normal list
      (** parameter variables ranging over blocks [F·M⃗] in [Ψ] *)

(** Contextual types [𝒜], the type-level mirror of {!msrt}. *)
type mtyp =
  | MTTerm of Ctxs.ctx * Lf.typ
  | MTSub of Ctxs.ctx * Ctxs.ctx
  | MTCtx of Lf.cid_schema
  | MTParam of Ctxs.ctx * Ctxs.elem * Lf.normal list

(** Contextual objects [𝒩 ::= Ψ̂.R | Ψ̂.σ | Ψ].  We allow a general normal
    term in the term case for convenience; checking restricts boxes of
    atomic sort to neutral/η-long normal forms as usual. *)
type mobj =
  | MOTerm of hat * Lf.normal
  | MOSub of hat * Lf.sub
  | MOCtx of Ctxs.sctx
  | MOParam of hat * Lf.head
      (** instantiation of a parameter variable: a [BVar] pointing at a
          block entry, or another [PVar] *)

(** Meta-context declarations at the refinement level ([Ω]). *)
type mdecl =
  | MDTerm of Name.t * Ctxs.sctx * Lf.srt  (** [u : Ψ.Q] *)
  | MDSub of Name.t * Ctxs.sctx * Ctxs.sctx
  | MDCtx of Name.t * Lf.cid_sschema  (** [ψ : H] *)
  | MDParam of Name.t * Ctxs.sctx * Ctxs.selem * Lf.normal list

(** Meta-contexts, innermost (most recently bound) first; de Bruijn index
    [i] refers to the [i]-th entry. *)
type mctx = mdecl list

(** Type-level meta-context declarations ([Δ]). *)
type mdecl_t =
  | TDTerm of Name.t * Ctxs.ctx * Lf.typ
  | TDSub of Name.t * Ctxs.ctx * Ctxs.ctx
  | TDCtx of Name.t * Lf.cid_schema
  | TDParam of Name.t * Ctxs.ctx * Ctxs.elem * Lf.normal list

type mctx_t = mdecl_t list

(** Meta-substitutions [θ] (refinement level): a total map sending de
    Bruijn index [i] of the target meta-context to the [i]-th entry.
    [MShift n] sends index [i] to the variable [i + n] (so [MShift 0] is
    the identity). *)
type msub = MShift of int | MDot of mobj * msub

let mctx_lookup (omega : mctx) (i : int) : mdecl option =
  List.nth_opt omega (i - 1)

let mctx_t_lookup (delta : mctx_t) (i : int) : mdecl_t option =
  List.nth_opt delta (i - 1)
