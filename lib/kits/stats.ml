(** Static proof-size accounting for experiment E1.

    The paper's §2 claims the conventional solution of the ORBI
    completeness benchmark needs "13 additional arguments, including 7
    explicit ones that must be manipulated in every case of the proof",
    while the refinement solution needs none of them.  We mechanized both
    in source ({!Surface} and {!Conventional}) and measure the elaborated
    signatures here: arguments per theorem, AST nodes, block widths,
    constructor duplication, and the number of theorems (soundness is free
    with a refinement, a real induction without). *)

open Belr_syntax
open Belr_lf

(* --- AST sizes --------------------------------------------------------- *)

let rec size_normal : Lf.normal -> int = function
  | Lf.Lam (_, m) -> 1 + size_normal m
  | Lf.Root (h, sp) ->
      1 + size_head h + List.fold_left (fun a m -> a + size_normal m) 0 sp

and size_head : Lf.head -> int = function
  | Lf.Const _ | Lf.BVar _ -> 1
  | Lf.PVar (_, s) | Lf.MVar (_, s) -> 1 + size_sub s
  | Lf.Proj (b, _) -> 1 + size_head b

and size_sub : Lf.sub -> int = function
  | Lf.Empty | Lf.Shift _ -> 1
  | Lf.Dot (f, s) -> 1 + size_front f + size_sub s

and size_front : Lf.front -> int = function
  | Lf.Obj m -> size_normal m
  | Lf.Tup t -> List.fold_left (fun a m -> a + size_normal m) 1 t
  | Lf.Undef -> 1

let rec size_srt : Lf.srt -> int = function
  | Lf.SAtom (_, sp) | Lf.SEmbed (_, sp) ->
      1 + List.fold_left (fun a m -> a + size_normal m) 0 sp
  | Lf.SPi (_, s1, s2) -> 1 + size_srt s1 + size_srt s2

let size_sctx (psi : Ctxs.sctx) : int =
  List.fold_left
    (fun a -> function
      | Ctxs.SCDecl (_, s) -> a + size_srt s
      | Ctxs.SCBlock (_, f, ms) ->
          a + 1
          + List.fold_left (fun a (_, s) -> a + size_srt s) 0 f.Ctxs.f_block
          + List.fold_left (fun a m -> a + size_normal m) 0 ms)
    1 psi.Ctxs.s_decls

let size_msrt : Meta.msrt -> int = function
  | Meta.MSTerm (psi, q) -> size_sctx psi + size_srt q
  | Meta.MSSub (p1, p2) -> size_sctx p1 + size_sctx p2
  | Meta.MSCtx _ -> 1
  | Meta.MSParam (psi, _, ms) ->
      size_sctx psi + 1
      + List.fold_left (fun a m -> a + size_normal m) 0 ms

let size_mobj : Meta.mobj -> int = function
  | Meta.MOTerm (_, m) -> 1 + size_normal m
  | Meta.MOSub (_, s) -> 1 + size_sub s
  | Meta.MOCtx psi -> size_sctx psi
  | Meta.MOParam (_, h) -> 1 + size_head h

let size_mdecl : Meta.mdecl -> int = function
  | Meta.MDTerm (_, psi, q) -> size_sctx psi + size_srt q
  | Meta.MDSub (_, p1, p2) -> size_sctx p1 + size_sctx p2
  | Meta.MDCtx _ -> 1
  | Meta.MDParam (_, psi, f, _) ->
      size_sctx psi + 1
      + List.fold_left (fun a (_, s) -> a + size_srt s) 0 f.Ctxs.f_block

let rec size_ctyp : Comp.ctyp -> int = function
  | Comp.CBox ms -> 1 + size_msrt ms
  | Comp.CArr (a, b) -> 1 + size_ctyp a + size_ctyp b
  | Comp.CPi (_, _, ms, b) -> 1 + size_msrt ms + size_ctyp b

let rec size_exp : Comp.exp -> int = function
  | Comp.Var _ | Comp.RecConst _ -> 1
  | Comp.Box mo -> 1 + size_mobj mo
  | Comp.Fn (_, _, e) -> 1 + size_exp e
  | Comp.App (a, b) -> 1 + size_exp a + size_exp b
  | Comp.MLam (_, e) -> 1 + size_exp e
  | Comp.MApp (e, mo) -> 1 + size_exp e + size_mobj mo
  | Comp.LetBox (_, e1, e2) -> 1 + size_exp e1 + size_exp e2
  | Comp.Case (_, e, brs) ->
      1 + size_exp e
      + List.fold_left
          (fun a (b : Comp.branch) ->
            a
            + List.fold_left (fun a d -> a + size_mdecl d) 0 b.Comp.br_mctx
            + size_mobj b.Comp.br_pat + size_exp b.Comp.br_body)
          0 brs

(* --- per-function statistics ------------------------------------------- *)

type rec_stats = {
  rs_name : string;
  rs_args : int;  (** Π- and →-arguments of the statement *)
  rs_implicit : int;  (** of which implicit (parenthesized) *)
  rs_stmt_nodes : int;  (** AST size of the statement *)
  rs_body_nodes : int;  (** AST size of the proof *)
  rs_branches : int;  (** number of case branches (all case expressions) *)
  rs_calls : int;  (** lemma/recursive invocations *)
}

let rec count_args = function
  | Comp.CBox _ -> (0, 0)
  | Comp.CArr (_, t) ->
      let a, i = count_args t in
      (a + 1, i)
  | Comp.CPi (_, imp, _, t) ->
      let a, i = count_args t in
      (a + 1, if imp then i + 1 else i)

let rec count_branches : Comp.exp -> int = function
  | Comp.Var _ | Comp.RecConst _ | Comp.Box _ -> 0
  | Comp.Fn (_, _, e) | Comp.MLam (_, e) -> count_branches e
  | Comp.App (a, b) -> count_branches a + count_branches b
  | Comp.MApp (e, _) -> count_branches e
  | Comp.LetBox (_, a, b) -> count_branches a + count_branches b
  | Comp.Case (_, e, brs) ->
      count_branches e + List.length brs
      + List.fold_left
          (fun a (b : Comp.branch) -> a + count_branches b.Comp.br_body)
          0 brs

let rec count_calls : Comp.exp -> int = function
  | Comp.RecConst _ -> 1
  | Comp.Var _ | Comp.Box _ -> 0
  | Comp.Fn (_, _, e) | Comp.MLam (_, e) -> count_calls e
  | Comp.App (a, b) -> count_calls a + count_calls b
  | Comp.MApp (e, _) -> count_calls e
  | Comp.LetBox (_, a, b) -> count_calls a + count_calls b
  | Comp.Case (_, e, brs) ->
      count_calls e
      + List.fold_left
          (fun a (b : Comp.branch) -> a + count_calls b.Comp.br_body)
          0 brs

let rec_stats (sg : Sign.t) (id : Lf.cid_rec) : rec_stats =
  let e = Sign.rec_entry sg id in
  let args, implicit = count_args e.Sign.r_styp in
  let body = match e.Sign.r_body with Some b -> b | None -> Comp.Var 1 in
  {
    rs_name = e.Sign.r_name;
    rs_args = args;
    rs_implicit = implicit;
    rs_stmt_nodes = size_ctyp e.Sign.r_styp;
    rs_body_nodes = size_exp body;
    rs_branches = count_branches body;
    rs_calls = count_calls body;
  }

(* --- per-development statistics ----------------------------------------- *)

type dev_stats = {
  ds_name : string;
  ds_const_decls : int;  (** LF constructor declarations *)
  ds_sort_assignments : int;  (** constructor reuses via refinement *)
  ds_block_width : int;  (** assumptions per context block *)
  ds_theorems : rec_stats list;
  ds_total_args : int;
  ds_total_implicit : int;
  ds_total_nodes : int;
}

(** Measure a checked development: every constructor, sort assignment
    and computation-level function of [sg], with the widest schema
    element as its block width. *)
let dev_stats ~name (sg : Sign.t) : dev_stats =
  let consts = List.length (Sign.all_consts sg) in
  let csorts =
    List.fold_left
      (fun n (_, (s : Sign.srt_entry)) -> n + List.length s.Sign.s_consts)
      0 (Sign.all_srts sg)
  in
  let block_width =
    List.fold_left
      (fun w (_, (g : Sign.schema_entry)) ->
        List.fold_left
          (fun w (e : Ctxs.elem) -> max w (List.length e.Ctxs.e_block))
          w g.Sign.g_elems)
      0 (Sign.all_schemas sg)
  in
  let theorems =
    List.sort (fun (a, _) (b, _) -> compare a b) (Sign.all_recs sg)
    |> List.map (fun (id, _) -> rec_stats sg id)
  in
  {
    ds_name = name;
    ds_const_decls = consts;
    ds_sort_assignments = csorts;
    ds_block_width = block_width;
    ds_theorems = theorems;
    ds_total_args = List.fold_left (fun a r -> a + r.rs_args) 0 theorems;
    ds_total_implicit =
      List.fold_left (fun a r -> a + r.rs_implicit) 0 theorems;
    ds_total_nodes =
      List.fold_left
        (fun a r -> a + r.rs_stmt_nodes + r.rs_body_nodes)
        0 theorems;
  }

let pp_comparison ppf (refin : dev_stats) (conv : dev_stats) =
  let line fmt = Fmt.pf ppf fmt in
  line "%-34s %14s %14s@." "metric" refin.ds_name conv.ds_name;
  line "%-34s %14d %14d@." "LF constructor declarations"
    refin.ds_const_decls conv.ds_const_decls;
  line "%-34s %14d %14d@." "constructors reused via sorts"
    refin.ds_sort_assignments conv.ds_sort_assignments;
  line "%-34s %14d %14d@." "assumptions per context block"
    refin.ds_block_width conv.ds_block_width;
  line "%-34s %14d %14d@." "theorems proved"
    (List.length refin.ds_theorems)
    (List.length conv.ds_theorems);
  line "%-34s %14d %14d@." "arguments across statements" refin.ds_total_args
    conv.ds_total_args;
  line "%-34s %14d %14d@." "AST nodes (statements + proofs)"
    refin.ds_total_nodes conv.ds_total_nodes;
  line "per-theorem arguments (name: args/nodes):@.";
  let tbl ds =
    String.concat ", "
      (List.map
         (fun r -> Fmt.str "%s: %d/%d" r.rs_name r.rs_args
             (r.rs_stmt_nodes + r.rs_body_nodes))
         ds.ds_theorems)
  in
  line "  %s: %s@." refin.ds_name (tbl refin);
  line "  %s: %s@." conv.ds_name (tbl conv)
