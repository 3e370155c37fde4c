(** Sort-level context operations, including the paper's promotion [Ψ⊤].

    Looking up a variable in a promoted context yields the {e embedding}
    of the erased (type-level) classifier: this is how the same block
    variable [b] reads as [deq b.1 b.1] under [Ψ⊤] but as [aeq b.1 b.1]
    under [Ψ] (§2, variable case of [ceq]). *)

open Belr_support
open Belr_syntax
open Belr_lf
open Lf

(** Promote a sort: read it at the type level, i.e. [⌊erase S⌋]. *)
let promote_srt (sg : Sign.t) (s : srt) : srt = Embed.typ (Erase.srt sg s)

let promote_selem (sg : Sign.t) (f : Ctxs.selem) : Ctxs.selem =
  Embed.elem ~refines:f.Ctxs.f_refines (Erase.selem sg f)

(** Sort of an ordinary variable, honoring promotion, transported into the
    whole context. *)
let srt_of_bvar (sg : Sign.t) (psi : Ctxs.sctx) (i : int) : srt =
  match Ctxs.sctx_lookup psi i with
  | Some (Ctxs.SCDecl (_, s)) ->
      let s = if psi.Ctxs.s_promoted then promote_srt sg s else s in
      Shift.shift_srt i 0 s
  | Some (Ctxs.SCBlock _) ->
      Error.raise_msg
        "variable %d is a block variable and must be used under a projection" i
  | None -> Error.raise_msg "unbound variable %d" i

(** The instantiated sort-level block classifying block variable [i],
    honoring promotion, transported into the whole context. *)
let sblock_of_bvar (sg : Sign.t) (psi : Ctxs.sctx) (i : int) : Ctxs.sblock =
  match Ctxs.sctx_lookup psi i with
  | Some (Ctxs.SCBlock (_, f, ms)) ->
      let f = if psi.Ctxs.s_promoted then promote_selem sg f else f in
      let ms' = List.map (Shift.shift_normal i 0) ms in
      Hsub.inst_sblock (Shift.shift_selem i 0 f) ms'
  | Some (Ctxs.SCDecl _) ->
      Error.raise_msg "variable %d is not a block variable" i
  | None -> Error.raise_msg "unbound variable %d" i

(** Sort of the [k]-th component of a sort-level block, with the earlier
    components replaced by projections of [base] and the ambient context
    reached through [tail] (mirror of {!Belr_lf.Ctxops.proj_typ}). *)
let proj_srt (blk : Ctxs.sblock) (base : head) (tail : sub) (k : int) : srt =
  match List.nth_opt blk (k - 1) with
  | None ->
      Error.raise_msg "projection .%d out of range (block has %d components)" k
        (List.length blk)
  | Some (_, s_k) ->
      let rec chain j acc =
        if j = 0 then acc
        else chain (j - 1) (dot_obj (mk_root (mk_proj base (k - j)) []) acc)
      in
      Hsub.sub_srt (chain (k - 1) tail) s_k

let srt_of_proj (sg : Sign.t) (psi : Ctxs.sctx) (i : int) (k : int) : srt =
  let blk = sblock_of_bvar sg psi i in
  proj_srt blk (mk_bvar i) (mk_shift 0) k

let sctx_drop (psi : Ctxs.sctx) (n : int) : Ctxs.sctx =
  if List.length psi.Ctxs.s_decls < n then
    Error.raise_msg "substitution shifts by %d but context has only %d entries"
      n
      (List.length psi.Ctxs.s_decls)
  else
    let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
    { psi with Ctxs.s_decls = drop n psi.Ctxs.s_decls }

(** [sctx_weakens ~from:Ψ₂ ~into:Ψ₁]: may an object valid in [Ψ₂] be read
    in [Ψ₁]?  Holds when they are equal, and also when [Ψ₁] is the
    promotion of [Ψ₂] — promotion only coarsens the reading of the same
    variables, which is refinement subsumption and therefore sound in this
    direction. *)
let sctx_weakens ~(from : Ctxs.sctx) ~(into : Ctxs.sctx) : bool =
  Equal.sctx from into
  || ((not from.Ctxs.s_promoted)
     && into.Ctxs.s_promoted
     && Equal.sctx { from with Ctxs.s_promoted = true } into)
