(** Higher-order pattern unification (§4.1; Pientka–Pfenning style,
    restricted to the decidable Miller-pattern fragment with block
    projections treated as distinct variables).

    A {e problem} fixes a meta-context [Ω] (innermost first) and a
    predicate selecting which of its variables are {e flexible}
    (solvable).  Unification instantiates flexible meta-, parameter-, and
    nothing-else variables; on success {!solve} extracts

    - the residual meta-context [Ω′] of still-unsolved flexible variables
      (plus all rigid ones), topologically ordered, and
    - the refining meta-substitution [ρ : Ω → Ω′],

    which is exactly the [(ρ, Ω′)] of the paper's branch rule
    [Ω ⊢ 𝒮 ≐ 𝒮₀ / (ρ, Ω′)].

    Sort unification is subsumption-aware in one direction: the [got]
    side may be a proper refinement of an embedding expected on the
    [want] side (see [Belr_core.Check_lfr.atomic_leq]).

    Outside the pattern fragment we fail with a diagnostic rather than
    search, as Beluga's core does. *)

open Belr_support
open Belr_syntax
open Belr_lf

exception Unify of string

(** Depth fuel for the term-level recursion and for the solution-resolution
    fixpoints: outside the pattern fragment a cyclic partial solution could
    otherwise loop or overflow the stack (see {!Belr_support.Limits}). *)
val depth : Limits.counter

type state = {
  sg : Sign.t;
  omega : Meta.mctx;  (** the full problem meta-context, innermost first *)
  flex : int -> bool;  (** which Ω-indices may be instantiated *)
  sol : Meta.mobj option array;
      (** partial solution, index i ↦ sol.(i-1); written only when a
          variable is solved *)
  decls : Meta.mdecl Lazy.t array;
      (** index i ↦ Ω(i) transported into full Ω space, shifted once *)
  mutable outermost : int;
      (** the largest solved index; 0 while nothing is solved *)
  mutable theta : Meta.msub option;
      (** the meta-substitution view of the current [sol]; [None] until
          built, and again after every solved variable *)
}

val make : sg:Sign.t -> omega:Meta.mctx -> flex:(int -> bool) -> state

(** Invert a pattern substitution on a term: [invert σ m] computes
    [σ⁻¹ m], failing when [m] mentions a variable outside the image of
    [σ].  For the common identity case this is the identity. *)
val invert_term : Lf.sub -> Lf.normal -> Lf.normal

val unify_normal : state -> Lf.normal -> Lf.normal -> unit

(** Unify sorts; [~leq] allows the left (got) side to be a proper
    refinement of an embedding on the right (want). *)
val unify_srt : ?leq:bool -> state -> Lf.srt -> Lf.srt -> unit

val unify_msrt : ?leq:bool -> state -> Meta.msrt -> Meta.msrt -> unit

val unify_mobj : state -> Meta.mobj -> Meta.mobj -> unit

(** After matching, propagate world instantiations: a parameter variable
    solved to a concrete block variable determines the parameters of its
    declared world from the context entry (needed to ground pattern
    variables like the [A₀] of [#b : #\[Ψ ⊢ xeW A₀\]]). *)
val refine_solved_params : state -> unit

(** Dependencies of a declaration on other Ω-variables. *)
val decl_deps : Meta.mdecl -> int list

(** Extract [(ρ, Ω′)] after unification succeeded.  Each solution and
    each unsolved variable's declaration is resolved exactly once. *)
val solve : state -> Meta.msub * Meta.mctx
