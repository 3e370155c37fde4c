(** Elaboration: external syntax → internal syntax.

    Design notes (see also DESIGN.md §5):

    - This front end is {e explicit}: every quantifier that exists
      internally is written in the source, branch pattern variables are
      declared in [{X : …}] prefixes, and constructors are fully applied
      (including the arguments the declarations made implicit).  The one
      inference performed is for {e declarations}: free capitalized
      identifiers in a constructor's type are abstracted as leading Π's
      whose types are reconstructed by Miller-pattern inversion (the
      paper's listings rely on this).
    - Elaboration produces internal syntax and relies on the checkers
      ([Belr_core.Check_lfr], [Belr_core.Check_comp]) for the actual
      type/sort discipline: the driver ({!Process}) re-checks everything
      elaboration emits.  Elaboration itself only computes the sorts it
      needs for {e direction}: binder domains, spine positions, and
      η-expansion.
    - A bare meta-variable occurrence [M] in a bigger context than its own
      elaborates to [M[σ]] with [σ] the canonical weakening; explicit
      substitutions [M\[.., t₁, …\]] fill the non-weakening part. *)

open Belr_syntax
open Belr_lf

(** {1 Environments} *)

type env = {
  sg : Sign.t;
  omega : Meta.mctx;  (** innermost first *)
  omega_names : string list;
  comp : Comp.cctx;
  comp_names : string list;
  recs : (string * (Lf.cid_rec * Comp.ctyp)) list;
      (** functions being defined (name → id, declared sort) *)
}

val make_env : ?recs:(string * (Lf.cid_rec * Comp.ctyp)) list -> Sign.t -> env

type world_ref = Wsort of Ctxs.selem | Wtype of Ctxs.elem

(** Search every schema (refinement first) for a world by name. *)
val find_world : Sign.t -> string -> world_ref option

(** {1 LF-level elaboration} *)

(** Local LF elaboration context: internal context + names. *)
type lenv = { lctx : Ctxs.sctx; lnames : string list }

val lpush : lenv -> string -> Lf.srt -> lenv

(** General sort formation: arrows, Π's, atomic. *)
val elab_srt :
  env ->
  lenv ->
  ?holes:(string, int * Lf.srt option ref * int) Hashtbl.t option ->
  Ext.term ->
  Lf.srt

(** Type-level formation (LF declarations): like {!elab_srt} but requires
    the result to be refinement-free. *)
val elab_typ :
  env ->
  lenv ->
  ?holes:(string, int * Lf.srt option ref * int) Hashtbl.t option ->
  Ext.term ->
  Lf.typ

val elab_kind : env -> lenv -> Ext.term -> Lf.kind

val elab_skind : env -> lenv -> Ext.term -> Lf.skind

(** Elaborate a constructor's classifier with implicit abstraction:
    free capitalized identifiers become leading Π's whose classifiers are
    reconstructed at their first use.  Returns the sort and the number of
    abstracted arguments. *)
val elab_decl_srt : env -> Ext.term -> Lf.srt * int

val elab_decl_typ : env -> Ext.term -> Lf.typ * int

(** {1 Computation-level elaboration} *)

val elab_csort : env -> Ext.csort -> Comp.ctyp

val elab_cexp : env -> Ext.cexp -> Comp.ctyp -> Comp.exp
