(** Computation-level syntax (§4).

    As at the other levels, the refinement layer ([ζ], [f]) and the type
    layer ([τ], [e]) are separate ASTs related by erasure.  Comp-level
    variables are de Bruijn indices into [Φ]/[Ξ] (innermost = 1);
    references to top-level recursive functions are signature ids.

    The paper's [caseᶻ [𝒩] of c⃗] is generalized (as in Beluga) to allow
    any expression of box sort as scrutinee; checking specializes when the
    scrutinee is literally a box.  The case invariant
    [ζ = ΠΩ₀. ΠX₀:𝒮₀. ζ₀] is kept in structured form. *)

open Belr_support

(** Refinement-level computation types
    [ζ ::= \[𝒮\] | ζ₁ → ζ₂ | ΠX:𝒮.ζ]. *)
type ctyp =
  | CBox of Meta.msrt
  | CArr of ctyp * ctyp
  | CPi of Name.t * bool * Meta.msrt * ctyp
      (** the [bool] marks an implicit quantifier (surface [(Ψ : H)]) *)

(** Type-level computation types [τ]. *)
type ctyp_t =
  | TBox of Meta.mtyp
  | TArr of ctyp_t * ctyp_t
  | TPi of Name.t * bool * Meta.mtyp * ctyp_t

(** Case invariants [ΠΩ₀. ΠX₀:𝒮₀. ζ₀]. *)
type inv = {
  inv_mctx : Meta.mctx;
  inv_name : Name.t;
  inv_msrt : Meta.msrt;
  inv_body : ctyp;
}

type exp =
  | Var of int  (** comp variable (de Bruijn into Φ) *)
  | RecConst of Lf.cid_rec  (** top-level (recursive) function *)
  | Box of Meta.mobj  (** [⟦𝒩⟧] *)
  | Fn of Name.t * ctyp option * exp  (** [fn y:ζ ⇒ f] *)
  | App of exp * exp
  | MLam of Name.t * exp  (** [mlam X ⇒ f] *)
  | MApp of exp * Meta.mobj  (** [f 𝒩] *)
  | LetBox of Name.t * exp * exp  (** [let \[X\] = f₁ in f₂] *)
  | Case of inv * exp * branch list

and branch = { br_mctx : Meta.mctx; br_pat : Meta.mobj; br_body : exp }

(** Type-level mirror. *)
type inv_t = {
  tinv_mctx : Meta.mctx_t;
  tinv_name : Name.t;
  tinv_mtyp : Meta.mtyp;
  tinv_body : ctyp_t;
}

type exp_t =
  | TVar of int
  | TRecConst of Lf.cid_rec
  | TBoxE of Meta.mobj
  | TFn of Name.t * ctyp_t option * exp_t
  | TApp of exp_t * exp_t
  | TMLam of Name.t * exp_t
  | TMApp of exp_t * Meta.mobj
  | TLetBox of Name.t * exp_t * exp_t
  | TCase of inv_t * exp_t * branch_t list

and branch_t = { tbr_mctx : Meta.mctx_t; tbr_pat : Meta.mobj; tbr_body : exp_t }

(** Comp-level contexts [Φ]/[Ξ], innermost first. *)
type cctx = (Name.t * ctyp) list

type cctx_t = (Name.t * ctyp_t) list

let rec ctyp_arity = function
  | CBox _ -> 0
  | CArr (_, t) -> 1 + ctyp_arity t
  | CPi (_, _, _, t) -> 1 + ctyp_arity t
