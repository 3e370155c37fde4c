(** Operations on type-level LF contexts: variable and projection lookup,
    block instantiation at a position, and transport into the full
    context.  (The refinement-level analogues, including promotion [Ψ⊤],
    live in [Belr_core].) *)

open Belr_support
open Belr_syntax
open Lf

(** Type of an ordinary variable [x] (entry [i] must be a single
    declaration), transported to be valid in all of [Γ]. *)
let typ_of_bvar (g : Ctxs.ctx) (i : int) : typ =
  match Ctxs.ctx_lookup g i with
  | Some (Ctxs.CDecl (_, a)) -> Hsub.sub_typ (mk_shift i) a
  | Some (Ctxs.CBlock _) ->
      Error.raise_msg
        "variable %d is a block variable and must be used under a projection" i
  | None -> Error.raise_msg "unbound variable %d" i

(** The instantiated block [D] classifying block variable [i], transported
    into all of [Γ] ([Ω ⊢ M⃗ : E > D]). *)
let block_of_bvar (g : Ctxs.ctx) (i : int) : Ctxs.block =
  match Ctxs.ctx_lookup g i with
  | Some (Ctxs.CBlock (_, elem, ms)) ->
      let ms' = List.map (Hsub.sub_normal (mk_shift i)) ms in
      Hsub.inst_block (Hsub.sub_elem (mk_shift i) elem) ms'
  | Some (Ctxs.CDecl _) ->
      Error.raise_msg "variable %d is not a block variable" i
  | None -> Error.raise_msg "unbound variable %d" i

(** Type of the [k]-th component of a block, with the earlier components
    replaced by projections of [base] and the ambient context reached
    through [tail].  [blk] must be valid in [range(tail), x₁…x₍ₖ₋₁₎]. *)
let proj_typ (blk : Ctxs.block) (base : head) (tail : sub) (k : int) : typ =
  match List.nth_opt blk (k - 1) with
  | None ->
      Error.raise_msg "projection .%d out of range (block has %d components)" k
        (List.length blk)
  | Some (_, a_k) ->
      (* index 1 ↦ x₍ₖ₋₁₎ ↦ base.(k-1), …, index k-1 ↦ x₁ ↦ base.1 *)
      let rec chain j acc =
        if j = 0 then acc
        else chain (j - 1) (dot_obj (mk_root (mk_proj base (k - j)) []) acc)
      in
      Hsub.sub_typ (chain (k - 1) tail) a_k

(** Type of the projection [x.k] of block variable [i] in [Γ]. *)
let typ_of_proj (g : Ctxs.ctx) (i : int) (k : int) : typ =
  let blk = block_of_bvar g i in
  proj_typ blk (mk_bvar i) (mk_shift 0) k

(** Drop the [n] innermost entries of a context (for checking [Shift n]). *)
let ctx_drop (g : Ctxs.ctx) (n : int) : Ctxs.ctx =
  if List.length g.Ctxs.c_decls < n then
    Error.raise_msg "substitution shifts by %d but context has only %d entries"
      n
      (List.length g.Ctxs.c_decls)
  else
    let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
    { g with Ctxs.c_decls = drop n g.Ctxs.c_decls }
