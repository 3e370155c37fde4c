(** Blocks, schema elements, schemas, and LF(R) contexts — both the type
    level ([B], [E], [G], [Γ]) and the refinement level ([C], [F], [H],
    [Ψ]) of §3.1.2.

    Conventions:
    - A block [Σx₁:A₁. … Σxₙ:Aₙ. ·] is a list with the {e first} component
      first; within the block, [Aₖ] may refer to [x₁ … xₖ₋₁] by de Bruijn
      index (1 = the immediately preceding component).
    - A schema element [Πy₁:A₁'. … B] stores its parameters the same way.
    - Context declarations are stored {e innermost first}, so de Bruijn
      index [i] is the [i]-th element of [*_decls].
    - A context entry for a block variable is a schema element applied to
      explicit instantiations ([b : E·M⃗]); the paper requires the
      instantiation to be explicit precisely so that schema checking does
      not need unification. *)

open Belr_support

type block = (Name.t * Lf.typ) list

type sblock = (Name.t * Lf.srt) list

type elem = {
  e_name : Name.t;  (** world name, e.g. [xeW] *)
  e_params : (Name.t * Lf.typ) list;
  e_block : block;
}

type selem = {
  f_name : Name.t;  (** world name; matches the refined world's name *)
  f_refines : int;  (** index (0-based) of the refined world in the schema [G] *)
  f_params : (Name.t * Lf.srt) list;
  f_block : sblock;
}

type schema = elem list

type sschema = { h_refines : Lf.cid_schema; h_elems : selem list }

(** Type-level context entries. *)
type centry =
  | CDecl of Name.t * Lf.typ  (** [x : A] *)
  | CBlock of Name.t * elem * Lf.normal list  (** [b : E·M⃗] *)

(** Type-level contexts [Γ ::= · | ψ | Γ,x:A | Γ,b:E·M⃗].  The context
    variable, when present, sits below every declaration and refers to the
    meta-context. *)
type ctx = { c_var : int option; c_decls : centry list }

(** Refinement-level context entries. *)
type scentry =
  | SCDecl of Name.t * Lf.srt  (** [x : S] *)
  | SCBlock of Name.t * selem * Lf.normal list  (** [b : F·M⃗] *)

(** Refinement-level contexts [Ψ].

    [s_promoted] implements the paper's [Ψ⊤]: when set, the context is to
    be {e interpreted} at the type level — looking up a block variable
    yields the embedded world of the refined schema [G] rather than the
    refined world of [H] (this is the variable case of [ceq] in §2). *)
type sctx = { s_var : int option; s_promoted : bool; s_decls : scentry list }

let empty_ctx = { c_var = None; c_decls = [] }

let empty_sctx = { s_var = None; s_promoted = false; s_decls = [] }

let ctx_push (g : ctx) (e : centry) = { g with c_decls = e :: g.c_decls }

let sctx_push (psi : sctx) (e : scentry) =
  { psi with s_decls = e :: psi.s_decls }

(** [ctx_lookup g i] returns the [i]-th entry (1-based, innermost = 1). *)
let ctx_lookup (g : ctx) (i : int) : centry option = List.nth_opt g.c_decls (i - 1)

let sctx_lookup (psi : sctx) (i : int) : scentry option =
  List.nth_opt psi.s_decls (i - 1)

(** Promotion [Ψ⊤] (§2): marks a context to be read through the refinement
    relation at the type-level schema. *)
let promote (psi : sctx) : sctx = { psi with s_promoted = true }

let centry_name = function CDecl (n, _) -> n | CBlock (n, _, _) -> n

let scentry_name = function SCDecl (n, _) -> n | SCBlock (n, _, _) -> n

let ctx_names (g : ctx) = List.map centry_name g.c_decls

let sctx_names (psi : sctx) = List.map scentry_name psi.s_decls
