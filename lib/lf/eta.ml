(** Approximate (simple) types and η-expansion.

    Canonical-forms LF keeps all terms η-long; whenever the checkers or
    the elaborator need "the variable [x] as a term", it must be
    η-expanded at its type.  Only the simple-type skeleton matters for
    the expansion, so we erase dependencies first. *)

open Belr_support
open Belr_syntax
open Lf

let depth = Limits.counter "eta-expansion"

let c_expand = Telemetry.counter "eta.expansions"

(** Simple-type skeletons. *)
type aty = Aatom | Aarr of aty * aty

let rec approx_typ : typ -> aty = function
  | Atom _ -> Aatom
  | Pi (_, a, b) -> Aarr (approx_typ a, approx_typ b)

let rec approx_srt : srt -> aty = function
  | SAtom _ | SEmbed _ -> Aatom
  | SPi (_, s1, s2) -> Aarr (approx_srt s1, approx_srt s2)

(** [expand_head t h] is the η-long form of head [h] at skeleton [t]:
    [λx₁…xₙ. h (η x₁) … (η xₙ)]. *)
let rec expand_head (t : aty) (h : head) : normal =
  match t with
  | Aatom -> mk_root h []
  | Aarr _ ->
      Telemetry.bump c_expand;
      Limits.guard depth (fun () -> expand_head_arr t h)

and expand_head_arr (t : aty) (h : head) : normal =
  match t with
  | Aatom -> mk_root h []
  | Aarr _ ->
      (* Collect all argument skeletons. *)
      let rec args acc = function
        | Aatom -> (List.rev acc, Aatom)
        | Aarr (a, b) -> args (a :: acc) b
      in
      let doms, _ = args [] t in
      let n = List.length doms in
      (* Under n binders: the head is shifted by n; argument i (1-based,
         first domain) is the variable n - i + 1. *)
      let h' = Shift.shift_head n 0 h in
      let spine =
        List.mapi (fun i dom -> expand_head dom (mk_bvar (n - i))) doms
      in
      let root = mk_root h' spine in
      let rec lams k m = if k = 0 then m else lams (k - 1) (mk_lam "x" m) in
      lams n root

(** η-long occurrence of a variable at a (dependent) type. *)
let expand_var_typ (a : typ) (i : int) : normal =
  expand_head (approx_typ a) (mk_bvar i)

(** Is [m] exactly the η-long form of head [h] at skeleton [t]?  Used to
    recognize identity substitutions and pattern variables. *)
let is_eta_of (t : aty) (h : head) (m : normal) : bool =
  Equal.normal m (expand_head t h)
