(** Internal syntax of the LF(R) data level.

    The presentation follows the paper's canonical-forms discipline
    (Watkins et al.): terms are separated into neutral and normal forms, no
    β-redex is representable after hereditary substitution, and well-typed
    terms are kept η-long.  Variables are de Bruijn indices (1-based,
    innermost = 1); binders carry a {!Belr_support.Name.t} hint used only
    for printing.

    Sorts live alongside types: a sort [S] refines a type [A] ([S ⊑ A]).
    Terms are shared between the type level and the refinement level, as in
    the paper ("terms ... are the same at both levels since they do not
    contain any type information to refine").

    Since PR 4 the node types are [private] and every constructed node
    goes through the hash-consing store ({!Store}): use the [mk_*] smart
    constructors (or the helpers below) to build terms; pattern matching
    is unaffected.  See DESIGN.md §S21. *)

open Belr_support
include Store

(* ------------------------------------------------------------------ *)
(* Small helpers used throughout.                                      *)

let id : sub = mk_shift 0

(** η-short variable occurrence; use {!Belr_lf.Eta} for η-long forms. *)
let bvar i : normal = mk_root (mk_bvar i) []

let const c spine : normal = mk_root (mk_const c) spine

(** [dot_obj m σ] is [Dot (Obj m, σ)] (normalized by {!Store.mk_dot}).
    Correct only when index 1 needs no η-expansion at its use sites
    (e.g. the binder has atomic type) — the checkers use the η-aware
    version in [Belr_lf.Hsub.dot1]. *)
let dot_obj m sigma = mk_dot (Obj m) sigma

(** Apply a neutral term to additional arguments, batched: one append for
    the whole argument list, not one per argument (callers that used to
    fold [app_spine] one argument at a time paid O(n²) on growing
    checker spines — pass the full list instead). *)
let app_spine (m : normal) (extra : spine) : normal =
  match (m, extra) with
  | _, [] -> m
  | Root (h, []), _ -> mk_root h extra
  | Root (h, sp), _ -> mk_root h (List.rev_append (List.rev sp) extra)
  | Lam _, _ ->
      (* The caller must use hereditary substitution to reduce.  Reaching
         this case means a redex was about to be built. *)
      Error.violation "app_spine: attempt to apply a Lam without reduction"

(** Target head of a canonical type: [target (Πx̄. a·S) = a]. *)
let rec typ_target = function Atom (a, _) -> a | Pi (_, _, b) -> typ_target b

(** Target of a canonical sort, [None] when the target is an embedding. *)
let rec srt_target = function
  | SAtom (s, _) -> Some s
  | SEmbed _ -> None
  | SPi (_, _, s) -> srt_target s

let rec kind_arity = function Ktype -> 0 | Kpi (_, _, k) -> 1 + kind_arity k

let rec skind_arity = function Ksort -> 0 | Kspi (_, _, l) -> 1 + skind_arity l
