open Belr_support
open Belr_syntax
open Belr_lf
open Belr_core
open Lf

let err loc fmt = Error.raise_at loc fmt

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)

type env = {
  sg : Sign.t;
  omega : Meta.mctx;
  omega_names : string list;
  comp : Comp.cctx;
  comp_names : string list;
  recs : (string * (Lf.cid_rec * Comp.ctyp)) list;
}

let make_env ?(recs = []) sg =
  { sg; omega = []; omega_names = []; comp = []; comp_names = []; recs }

let lfr_env e = Check_lfr.make_env e.sg e.omega

let push_omega e name decl =
  {
    e with
    omega = decl :: e.omega;
    omega_names = name :: e.omega_names;
    comp = List.map (fun (x, t) -> (x, Msub.ctyp 0 (Meta.MShift 1) t)) e.comp;
  }

let push_comp e name t =
  { e with comp = (name, t) :: e.comp; comp_names = name :: e.comp_names }

let find_index name names =
  let rec go i = function
    | [] -> None
    | n :: rest -> if n = name then Some i else go (i + 1) rest
  in
  go 1 names

type world_ref =
  | Wsort of Ctxs.selem
  | Wtype of Ctxs.elem

let find_world (sg : Sign.t) (name : string) : world_ref option =
  let found = ref None in
  let scan_s (h : Sign.sschema_entry) =
    List.iter
      (fun (f : Ctxs.selem) ->
        if Name.to_string f.Ctxs.f_name = name && !found = None then
          found := Some (Wsort f))
      h.Sign.h_elems
  in
  let scan_t (g : Sign.schema_entry) =
    List.iter
      (fun (el : Ctxs.elem) ->
        if Name.to_string el.Ctxs.e_name = name && !found = None then
          found := Some (Wtype el))
      g.Sign.g_elems
  in
  (* user-declared refinement schemas shadow the auto-registered trivial
     ones, which in turn shadow raw schemas; within each, the first in
     source order provides the world *)
  let user, auto =
    List.partition
      (fun (_, (e : Sign.sschema_entry)) -> not (Sign.is_hidden_sschema e))
      (Sign.in_source_order sg (fun e -> e.Sign.h_name) (Sign.all_sschemas sg))
  in
  List.iter (fun (_, e) -> if !found = None then scan_s e) user;
  List.iter (fun (_, e) -> if !found = None then scan_s e) auto;
  List.iter
    (fun (_, e) -> if !found = None then scan_t e)
    (Sign.in_source_order sg (fun e -> e.Sign.g_name) (Sign.all_schemas sg));
  !found

(* ------------------------------------------------------------------ *)
(* LF-level elaboration                                                 *)

type lenv = { lctx : Ctxs.sctx; lnames : string list }

let lpush (l : lenv) (name : string) (s : srt) =
  {
    lctx = Ctxs.sctx_push l.lctx (Ctxs.SCDecl (name, s));
    lnames = name :: l.lnames;
  }

let lpush_block (l : lenv) (name : string) (f : Ctxs.selem) ms =
  {
    lctx = Ctxs.sctx_push l.lctx (Ctxs.SCBlock (name, f, ms));
    lnames = name :: l.lnames;
  }

(** Flatten an external application into head and arguments. *)
let rec flatten (t : Ext.term) (args : Ext.term list) =
  match t with Ext.App (f, a) -> flatten f (a :: args) | _ -> (t, args)

let concrete_len (psi : Ctxs.sctx) = List.length psi.Ctxs.s_decls

(** Number of concrete (non-ψ) entries in a declaration's context. *)
let domain_concrete e (i : int) : int =
  match Msub.mctx_lookup_shifted e.omega i with
  | Some (Meta.MDTerm (_, psi, _)) -> concrete_len psi
  | Some (Meta.MDParam (_, psi, _, _)) -> concrete_len psi
  | _ -> 0

(** Elaborate a term bidirectionally against a sort.  [holes], when
    present, enables declaration-level reconstruction (free capitalized
    identifiers). *)
let rec elab_term e (l : lenv) ?(holes = None) (t : Ext.term) (expected : srt)
    : normal =
  match (t, expected) with
  | Ext.Lam (_, x, body), SPi (_, s1, s2) ->
      mk_lam x (elab_term e (lpush l x s1) ~holes body s2)
  | Ext.Lam (loc, _, _), _ ->
      err loc "abstraction used where an atomic sort is expected"
  | _, SPi _ -> (
      (* η-expansion of bare identifiers (in particular holes and Π-bound
         variables of functional type): elaborate as \x. t x *)
      match t with
      | Ext.Ident (loc, _) | Ext.Hash (loc, _) | Ext.Proj (loc, _, _)
      | Ext.Sub (loc, _, _) ->
          let x = "x" in
          elab_term e l ~holes
            (Ext.Lam (loc, x, Ext.App (t, Ext.Ident (loc, x))))
            expected
      | _ ->
          err (term_loc t) "term cannot be checked against a function sort")
  | _, _ -> elab_neutral e l ~holes t expected

and term_loc : Ext.term -> Loc.t = function
  | Ext.Ident (loc, _)
  | Ext.TypeKw loc
  | Ext.SortKw loc
  | Ext.Pi (loc, _, _, _)
  | Ext.Lam (loc, _, _)
  | Ext.Hash (loc, _)
  | Ext.Proj (loc, _, _)
  | Ext.Sub (loc, _, _) ->
      loc
  | Ext.App (f, _) -> term_loc f
  | Ext.Arrow (a, _) -> term_loc a

and elab_neutral e (l : lenv) ~holes (t : Ext.term) (expected : srt) : normal =
  let head_ext, args = flatten t [] in
  (* hole occurrence? *)
  match head_ext with
  | Ext.Ident (loc, s) when is_hole e l holes s ->
      elab_hole e l ~holes loc s args expected
  | _ ->
      let h = elab_head e l ~holes head_ext in
      let s_h = Check_lfr.head_srt (lfr_env e) l.lctx h ~target:expected in
      let spine, _ = elab_spine e l ~holes (term_loc t) args s_h in
      mk_root h spine

and elab_spine e l ~holes loc (args : Ext.term list) (s : srt) : spine * srt =
  match (args, s) with
  | [], _ -> ([], s)
  | a :: rest, SPi (_, s1, s2) ->
      let m = elab_term e l ~holes a s1 in
      let sp, s' = elab_spine e l ~holes loc rest (Hsub.inst_srt s2 m) in
      (m :: sp, s')
  | _ :: _, (SAtom _ | SEmbed _) -> err loc "term is applied to too many arguments"

and elab_head e (l : lenv) ~holes (t : Ext.term) : head =
  match t with
  | Ext.Ident (loc, s) -> (
      match find_index s l.lnames with
      | Some i -> mk_bvar i
      | None -> (
          match find_index s e.omega_names with
          | Some i ->
              let dc = domain_concrete e i in
              mk_mvar i (weakening l dc 0)
          | None -> (
              match Sign.lookup_name e.sg s with
              | Some (Sign.Sym_const c) -> mk_const c
              | Some _ -> err loc "%s is not a term-level name" s
              | None -> err loc "unbound identifier %s" s)))
  | Ext.Hash (loc, s) -> (
      match find_index s e.omega_names with
      | Some i ->
          let dc = domain_concrete e i in
          mk_pvar i (weakening l dc 0)
      | None -> err loc "unbound parameter variable #%s" s)
  | Ext.Proj (loc, base, k) -> (
      match elab_head e l ~holes base with
      | (BVar _ | PVar _) as b -> mk_proj b k
      | _ -> err loc "projection base must be a block or parameter variable")
  | Ext.Sub (loc, base, esub) -> (
      match base with
      | Ext.Ident (_, s) -> (
          match find_index s e.omega_names with
          | Some i ->
              let dc = domain_concrete e i in
              mk_mvar i (elab_esub e l ~holes loc esub dc)
          | None -> err loc "only meta-variables take substitutions (%s)" s)
      | Ext.Hash (_, s) -> (
          match find_index s e.omega_names with
          | Some i ->
              let dc = domain_concrete e i in
              mk_pvar i (elab_esub e l ~holes loc esub dc)
          | None -> err loc "unbound parameter variable #%s" s)
      | _ -> err loc "substitutions apply to meta-variables only")
  | _ -> err (term_loc t) "expected a head"

(** Canonical weakening substitution from a declaration's context (ψ plus
    [dom_concrete] entries, of which the last [fronts] are replaced by
    explicit fronts) into the current context. *)
and weakening (l : lenv) (dom_concrete : int) (fronts : int) : sub =
  mk_shift (concrete_len l.lctx - (dom_concrete - fronts))

and elab_esub e l ~holes loc (s : Ext.esub) (dom_concrete : int) : sub =
  let nf = List.length s.Ext.es_fronts in
  let tail =
    if s.Ext.es_dots then weakening l dom_concrete nf
    else if nf >= dom_concrete then mk_empty
    else err loc "substitution must start with .. unless it closes the context"
  in
  (* NOTE: fronts are elaborated without an expected sort — they are
     variables, projections, tuples of such, or closed terms; the driver
     re-checks the whole substitution.  Non-variable fronts of functional
     sort would need η-expansion information we don't have here. *)
  List.fold_left
    (fun acc f ->
      let front =
        match f with
        | Ext.Fterm t -> Obj (elab_front_term e l ~holes t)
        | Ext.Ftuple (_, ts) -> Tup (List.map (elab_front_term e l ~holes) ts)
      in
      (* written left-to-right, outermost first: the last front replaces
         the innermost variable, so fold in written order *)
      mk_dot front acc)
    tail s.Ext.es_fronts

and elab_front_term e l ~holes (t : Ext.term) : normal =
  (* fronts: heads applied to nothing, or general terms synthesized *)
  match flatten t [] with
  | (Ext.Ident _ | Ext.Hash _ | Ext.Proj _ | Ext.Sub _), [] ->
      mk_root (elab_head e l ~holes t) []
  | _ ->
      (* general term: elaborate by synthesis through its head sort *)
      let head_ext, args = flatten t [] in
      let h = elab_head e l ~holes head_ext in
      let s_h = Check_lfr.head_srt_principal (lfr_env e) l.lctx h in
      let spine, _ = elab_spine e l ~holes (term_loc t) args s_h in
      mk_root h spine

(* ------------------------------------------------------------------ *)
(* Declaration-level holes                                              *)

and is_hole e l holes s =
  match holes with
  | None -> false
  | Some tbl ->
      Hashtbl.mem tbl s
      && find_index s l.lnames = None
      && find_index s e.omega_names = None

(** Hole occurrence [H a₁ … aₙ ⇐ Q]: on first use, reconstruct
    [H : Πx₁:S₁…xₙ:Sₙ. Q′] by pattern inversion; afterwards, just build
    the application (the driver re-checks).  The hole's internal index is
    [depth + (#holes − position)]: holes become the leading Π's. *)
and elab_hole e l ~holes loc (s : string) (args : Ext.term list)
    (expected : srt) : normal =
  let tbl = match holes with Some t -> t | None -> assert false in
  let pos, slot, total = Hashtbl.find tbl s in
  let depth = List.length l.lnames in
  let idx = depth + (total - pos) in
  (* arguments: bound variables, projections, or other holes (whose
     classifier must already be known) — all become Π-bound variables *)
  let arg_info a : Loc.t * head * srt =
    match a with
    | Ext.Ident (aloc, x) -> (
        match find_index x l.lnames with
        | Some i -> (aloc, mk_bvar i, Sctxops.srt_of_bvar e.sg l.lctx i)
        | None ->
            if is_hole e l holes x then (
              let posx, slotx, _ = Hashtbl.find tbl x in
              match !slotx with
              | Some sx -> (aloc, mk_bvar (depth + (total - posx)), sx)
              | None ->
                  err aloc
                    "implicit argument %s is used before its classifier is \
                     determined"
                    x)
            else err aloc "hole arguments must be bound variables (%s)" x)
    | Ext.Proj (aloc, Ext.Ident (_, x), k) -> (
        match find_index x l.lnames with
        | Some i -> (aloc, mk_proj (mk_bvar i) k, Sctxops.srt_of_proj e.sg l.lctx i k)
        | None -> err aloc "hole arguments must be bound variables (%s)" x)
    | a -> err (term_loc a) "hole arguments must be bound variables"
  in
  let arg_heads = List.map arg_info args in
  (if !slot = None then
     (* reconstruct the hole's sort *)
     let rec build (prev : (Loc.t * head * srt) list) (doms : srt list) =
       match prev with
       | [] -> doms
       | (aloc, _, s_a) :: rest ->
           (* express the argument's sort in terms of the earlier
              arguments only *)
           let sigma =
             List.fold_left
               (fun acc (_, h', _) -> dot_obj (mk_root h' []) acc)
               mk_empty
               (List.rev rest)
           in
           let s_a' = invert_srt aloc sigma s_a in
           build rest (s_a' :: doms)
     in
     (* arguments listed outermost-first; invert each against the ones
        before it *)
     let doms = build (List.rev arg_heads) [] in
     let sigma_all =
       List.fold_left
         (fun acc (_, h', _) -> dot_obj (mk_root h' []) acc)
         mk_empty arg_heads
     in
     let q' = invert_srt loc sigma_all expected in
     let hole_srt =
       List.fold_right (fun d acc -> mk_spi "x" d acc) doms q'
     in
     (* hole sorts must be closed (no other holes, no local variables) *)
     slot := Some hole_srt);
  let spine =
    List.map
      (fun (_, h, s_a) -> Eta.expand_head (Eta.approx_srt s_a) h)
      arg_heads
  in
  mk_root (mk_bvar idx) spine

(** Invert an atomic sort through a pattern substitution (reconstruction
    restriction: the classifiers of implicit arguments are atomic). *)
and invert_srt loc (sigma : sub) (s : srt) : srt =
  let inv m =
    try Belr_unify.Unify.invert_term sigma m
    with Belr_unify.Unify.Unify msg ->
      err loc "cannot reconstruct implicit argument: %s" msg
  in
  match s with
  | SAtom (f, sp) -> mk_satom f (List.map inv sp)
  | SEmbed (a, sp) -> mk_sembed a (List.map inv sp)
  | SPi _ ->
      err loc
        "reconstruction restriction: implicit arguments must have atomic \
         classifiers (annotate explicitly)"

(* ------------------------------------------------------------------ *)
(* Sort and type formation                                              *)

(** Atomic sorts [s M₁ … Mₙ] / embedded [a M₁ … Mₙ]. *)
let rec elab_asrt e (l : lenv) ?(holes = None) (t : Ext.term) : srt =
  let head_ext, args = flatten t [] in
  match head_ext with
  | Ext.Ident (loc, s) -> (
      match Sign.lookup_name e.sg s with
      | Some (Sign.Sym_srt sid) ->
          let lk = (Sign.srt_entry e.sg sid).Sign.s_kind in
          let sp = elab_spine_skind e l ~holes loc args lk in
          mk_satom sid sp
      | Some (Sign.Sym_typ aid) ->
          let k = (Sign.typ_entry e.sg aid).Sign.t_kind in
          let sp = elab_spine_kind e l ~holes loc args k in
          mk_sembed aid sp
      | _ -> err loc "%s is not a type or sort family" s)
  | _ -> err (term_loc t) "expected an atomic type or sort"

and elab_spine_skind e l ~holes loc args (lk : skind) : spine =
  match (args, lk) with
  | [], Ksort -> []
  | a :: rest, Kspi (_, s, lk') ->
      let m = elab_term e l ~holes a s in
      m :: elab_spine_skind e l ~holes loc rest (Hsub.inst_skind lk' m)
  | [], Kspi _ -> err loc "sort family is not fully applied"
  | _ :: _, Ksort -> err loc "sort family is over-applied"

and elab_spine_kind e l ~holes loc args (k : kind) : spine =
  match (args, k) with
  | [], Ktype -> []
  | a :: rest, Kpi (_, ty, k') ->
      let m = elab_term e l ~holes a (Embed.typ ty) in
      m :: elab_spine_kind e l ~holes loc rest (Hsub.inst_kind k' m)
  | [], Kpi _ -> err loc "type family is not fully applied"
  | _ :: _, Ktype -> err loc "type family is over-applied"

and elab_srt e (l : lenv) ?(holes = None) (t : Ext.term) : srt =
  match t with
  | Ext.Arrow (a, b) ->
      let s1 = elab_srt e l ~holes a in
      let s2 = elab_srt e (lpush l "_" s1) ~holes b in
      mk_spi "_" s1 s2
  | Ext.Pi (_, x, a, b) ->
      let s1 = elab_srt e l ~holes a in
      let s2 = elab_srt e (lpush l x s1) ~holes b in
      mk_spi x s1 s2
  | _ -> elab_asrt e l ~holes t

let elab_typ e l ?(holes = None) (t : Ext.term) : typ =
  let s = elab_srt e l ~holes t in
  let rec erase = function
    | SEmbed (a, sp) -> mk_atom a sp
    | SPi (x, s1, s2) -> mk_pi x (erase s1) (erase s2)
    | SAtom _ ->
        err (term_loc t)
          "a proper sort cannot appear in a type-level declaration"
  in
  erase s

(* Kinds *)

let rec elab_kind e l (t : Ext.term) : kind =
  match t with
  | Ext.TypeKw _ -> Ktype
  | Ext.Arrow (a, b) ->
      let ty = elab_typ e l a in
      Kpi ("_", ty, elab_kind e (lpush l "_" (Embed.typ ty)) b)
  | Ext.Pi (_, x, a, b) ->
      let ty = elab_typ e l a in
      Kpi (x, ty, elab_kind e (lpush l x (Embed.typ ty)) b)
  | _ -> err (term_loc t) "expected a kind"

let rec elab_skind e l (t : Ext.term) : skind =
  match t with
  | Ext.SortKw _ -> Ksort
  | Ext.Arrow (a, b) ->
      let s = elab_srt e l a in
      Kspi ("_", s, elab_skind e (lpush l "_" s) b)
  | Ext.Pi (_, x, a, b) ->
      let s = elab_srt e l a in
      Kspi (x, s, elab_skind e (lpush l x s) b)
  | _ -> err (term_loc t) "expected a refinement kind"

(* ------------------------------------------------------------------ *)
(* Declaration types with implicit abstraction                          *)

let is_uppercase s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

(** Free capitalized identifiers of a declaration's type, in order of
    first occurrence. *)
let free_uppercase (sg : Sign.t) (t : Ext.term) : string list =
  let seen = ref [] in
  let add s =
    if not (List.mem s !seen) then seen := s :: !seen
  in
  let rec go bound = function
    | Ext.Ident (_, s) ->
        if
          is_uppercase s
          && (not (List.mem s bound))
          && Sign.lookup_name sg s = None
        then add s
    | Ext.TypeKw _ | Ext.SortKw _ -> ()
    | Ext.App (a, b) ->
        go bound a;
        go bound b
    | Ext.Arrow (a, b) ->
        go bound a;
        go bound b
    | Ext.Pi (_, x, a, b) ->
        go bound a;
        go (x :: bound) b
    | Ext.Lam (_, x, a) -> go (x :: bound) a
    | Ext.Hash _ -> ()
    | Ext.Proj (_, a, _) -> go bound a
    | Ext.Sub (_, a, s) ->
        go bound a;
        List.iter
          (function
            | Ext.Fterm u -> go bound u
            | Ext.Ftuple (_, us) -> List.iter (go bound) us)
          s.Ext.es_fronts
  in
  go [] t;
  List.rev !seen

let elab_decl_srt e (t : Ext.term) : srt * int =
  let names = free_uppercase e.sg t in
  let total = List.length names in
  let tbl = Hashtbl.create 8 in
  List.iteri (fun i s -> Hashtbl.replace tbl s (i, ref None, total)) names;
  let holes = Some tbl in
  let body = elab_srt e { lctx = Ctxs.empty_sctx; lnames = [] } ~holes t in
  (* build the Π-prefix, outermost hole first *)
  let srt =
    List.fold_right
      (fun s acc ->
        let _, slot, _ = Hashtbl.find tbl s in
        match !slot with
        | Some dom -> mk_spi s dom acc
        | None ->
            Error.raise_msg
              "could not infer a classifier for implicit argument %s" s)
      names body
  in
  (srt, total)

let elab_decl_typ e (t : Ext.term) : typ * int =
  let s, n = elab_decl_srt e t in
  let rec erase = function
    | SEmbed (a, sp) -> mk_atom a sp
    | SPi (x, s1, s2) -> mk_pi x (erase s1) (erase s2)
    | SAtom _ ->
        err (term_loc t)
          "a proper sort cannot appear in a type-level declaration"
  in
  (erase s, n)

(* ------------------------------------------------------------------ *)
(* Contexts                                                             *)

(** Elaborate a written context.  Entries whose classifier's head is a
    known world name become block entries. *)
let rec elab_ectx e (c : Ext.ectx) : lenv =
  let base =
    match c.Ext.ec_var with
    | None ->
        { lctx = Ctxs.empty_sctx; lnames = [] }
    | Some (name, promoted) -> (
        match find_index name e.omega_names with
        | Some i ->
            {
              lctx =
                {
                  Ctxs.s_var = Some i;
                  Ctxs.s_promoted = promoted;
                  Ctxs.s_decls = [];
                };
              lnames = [];
            }
        | None -> err c.Ext.ec_loc "unbound context variable %s" name)
  in
  List.fold_left
    (fun l (entry : Ext.ectx_entry) ->
      match entry.Ext.ce_class with
      | Ext.Cblock (_, fields) ->
          let rec fields_srts l' acc = function
            | [] -> List.rev acc
            | (f, t) :: rest ->
                let s = elab_srt e l' t in
                fields_srts (lpush l' f s) ((f, s) :: acc) rest
          in
          let blk =
            fields_srts { l with lnames = l.lnames } [] fields
          in
          let selem =
            { Ctxs.f_name = entry.Ext.ce_name; Ctxs.f_refines = 0;
              Ctxs.f_params = []; Ctxs.f_block = blk }
          in
          lpush_block l entry.Ext.ce_name selem []
      | Ext.Cterm t -> (
          let head_ext, args = flatten t [] in
          match head_ext with
          | Ext.Ident (_, s) when find_world e.sg s <> None -> (
              match find_world e.sg s with
              | Some (Wsort f) ->
                  let ms = elab_world_args e l args f.Ctxs.f_params in
                  lpush_block l entry.Ext.ce_name f ms
              | Some (Wtype el) ->
                  let f = Embed.elem ~refines:0 el in
                  let ms = elab_world_args e l args f.Ctxs.f_params in
                  lpush_block l entry.Ext.ce_name f ms
              | None -> assert false)
          | _ ->
              let s = elab_srt e l t in
              lpush l entry.Ext.ce_name s)
      | Ext.Cworld (loc, _, _) -> err loc "unexpected world entry")
    base c.Ext.ec_entries

and elab_world_args e l (args : Ext.term list)
    (params : (Name.t * srt) list) : normal list =
  let rec go sub args params =
    match (args, params) with
    | [], [] -> []
    | a :: args', (_, s) :: params' ->
        let m = elab_term e l a (Hsub.sub_srt sub s) in
        m :: go (dot_obj m sub) args' params'
    | _ ->
        Error.raise_msg "world applied to %d arguments, expected %d"
          (List.length args) (List.length params)
  in
  go mk_empty args params

(* ------------------------------------------------------------------ *)
(* Computation level                                                    *)

let cexp_loc : Ext.cexp -> Loc.t = function
  | Ext.EIdent (loc, _)
  | Ext.EApp (loc, _, _)
  | Ext.EFn (loc, _, _)
  | Ext.EMlam (loc, _, _)
  | Ext.ECase (loc, _, _)
  | Ext.ELetBox (loc, _, _, _)
  | Ext.EBox (loc, _, _)
  | Ext.ECtx (loc, _) ->
      loc

let elab_cdom e (d : Ext.cdom) : Meta.msrt =
  match d with
  | Ext.DSchema (loc, s) -> (
      match Sign.lookup_name e.sg s with
      | Some (Sign.Sym_sschema h) -> Meta.MSCtx h
      | Some (Sign.Sym_schema g) ->
          Meta.MSCtx (Sign.schema_entry e.sg g).Sign.g_trivial
      | _ -> err loc "%s is not a schema" s)
  | Ext.DBox (_, ctx, t) ->
      let l = elab_ectx e ctx in
      Meta.MSTerm (l.lctx, elab_asrt e l t)
  | Ext.DParam (loc, ctx, w, args) -> (
      let l = elab_ectx e ctx in
      match find_world e.sg w with
      | Some (Wsort f) ->
          let ms = elab_world_args e l args f.Ctxs.f_params in
          Meta.MSParam (l.lctx, f, ms)
      | Some (Wtype el) ->
          let f = Embed.elem ~refines:0 el in
          let ms = elab_world_args e l args f.Ctxs.f_params in
          Meta.MSParam (l.lctx, f, ms)
      | None -> err loc "unknown world %s" w)

let rec elab_csort e (s : Ext.csort) : Comp.ctyp =
  match s with
  | Ext.SBox (_, ctx, t) ->
      let l = elab_ectx e ctx in
      Comp.CBox (Meta.MSTerm (l.lctx, elab_asrt e l t))
  | Ext.SArr (a, b) -> Comp.CArr (elab_csort e a, elab_csort e b)
  | Ext.SPi (_, x, implicit, dom, body) ->
      let ms = elab_cdom e dom in
      let e' = push_omega e x (Check_comp.mdecl_of_msrt x ms) in
      Comp.CPi (x, implicit, ms, elab_csort e' body)

(** Synthesize a boxed neutral term's sort (for [case \[Ψ ⊢ M\] of …]). *)
let synth_box e (ctx : Ext.ectx) (t : Ext.term) : Meta.mobj * Meta.msrt =
  let l = elab_ectx e ctx in
  let head_ext, args = flatten t [] in
  let h = elab_head e l ~holes:None head_ext in
  let s_h = Check_lfr.head_srt_principal (lfr_env e) l.lctx h in
  let sp, s_res = elab_spine e l ~holes:None (term_loc t) args s_h in
  let m = mk_root h sp in
  (Meta.MOTerm (Meta.hat_of_sctx l.lctx, m), Meta.MSTerm (l.lctx, s_res))

(** Replace occurrences of [target] (an LF normal, adjusted under LF
    binders) by [X₀] in a comp sort: dependent case invariants. *)
let abstract_normal (target : normal) (t : Comp.ctyp) : Comp.ctyp =
  let rec in_normal d m =
    if Equal.normal m (Hsub.sub_normal (mk_shift d) target) then
      mk_root (mk_mvar 1 (mk_shift d)) []
    else
      match m with
      | Lam (x, n) -> mk_lam x (in_normal (d + 1) n)
      | Root (h, sp) -> mk_root h (List.map (in_normal d) sp)
  in
  let in_srt d = function
    | SAtom (s, sp) -> mk_satom s (List.map (in_normal d) sp)
    | SEmbed (a, sp) -> mk_sembed a (List.map (in_normal d) sp)
    | SPi _ as s -> s
  in
  let in_msrt = function
    | Meta.MSTerm (psi, q) -> Meta.MSTerm (psi, in_srt 0 q)
    | ms -> ms
  in
  let rec in_ctyp = function
    | Comp.CBox ms -> Comp.CBox (in_msrt ms)
    | Comp.CArr (a, b) -> Comp.CArr (in_ctyp a, in_ctyp b)
    | Comp.CPi (x, imp, ms, b) -> Comp.CPi (x, imp, in_msrt ms, in_ctyp b)
  in
  in_ctyp t

let rec elab_cexp e (x : Ext.cexp) (expected : Comp.ctyp) : Comp.exp =
  match (x, expected) with
  | Ext.EFn (_, n, body), Comp.CArr (t1, t2) ->
      Comp.Fn (n, None, elab_cexp (push_comp e n t1) body t2)
  | Ext.EFn (loc, _, _), _ -> err loc "fn used at a non-arrow sort"
  | Ext.EMlam (_, n, body), Comp.CPi (_, _, ms, t) ->
      Comp.MLam (n, elab_cexp (push_omega e n (Check_comp.mdecl_of_msrt n ms)) body t)
  | Ext.EMlam (loc, _, _), _ -> err loc "mlam used at a non-Π sort"
  | Ext.EBox (loc, ctx, t), Comp.CBox (Meta.MSTerm (psi_s, q_s)) ->
      let l = elab_ectx e ctx in
      if not (Sctxops.sctx_weakens ~from:l.lctx ~into:psi_s)
         && not (Equal.sctx l.lctx psi_s)
      then err loc "box context does not match the expected context";
      (* elaborate the term in the expected context, with the written
         names *)
      let l' = { lctx = psi_s; lnames = l.lnames } in
      let m = elab_term e l' ~holes:None t q_s in
      Comp.Box (Meta.MOTerm (Meta.hat_of_sctx psi_s, m))
  | Ext.EBox (loc, _, _), Comp.CBox _ ->
      err loc "boxed term used where another form of box is expected"
  | Ext.ECtx (_, ctx), Comp.CBox (Meta.MSCtx _) ->
      let l = elab_ectx e ctx in
      Comp.Box (Meta.MOCtx l.lctx)
  | Ext.ELetBox (loc, n, e1, e2), _ ->
      let e1', ms =
        match elab_csynth e e1 with
        | e1', Comp.CBox ms -> (e1', ms)
        | _ -> err loc "let [%s] = … requires a box" n
      in
      let e' = push_omega e n (Check_comp.mdecl_of_msrt n ms) in
      Comp.LetBox (n, e1', elab_cexp e' e2 (Msub.ctyp 0 (Meta.MShift 1) expected))
  | Ext.ECase (loc, scrut, branches), _ ->
      let scrut', ms_s =
        match scrut with
        | Ext.EBox (_, ctx, t) ->
            let mo, ms = synth_box e ctx t in
            (Comp.Box mo, ms)
        | _ -> (
            match elab_csynth e scrut with
            | s', Comp.CBox ms -> (s', ms)
            | _ -> err loc "case scrutinee must have a box sort")
      in
      let inv_body =
        let shifted = Msub.ctyp 0 (Meta.MShift 1) expected in
        match scrut' with
        | Comp.Box (Meta.MOTerm (_, m)) ->
            abstract_normal (Msub.normal 0 (Meta.MShift 1) m) shifted
        | _ -> shifted
      in
      let inv =
        { Comp.inv_mctx = []; Comp.inv_name = "X0"; Comp.inv_msrt = ms_s;
          Comp.inv_body }
      in
      let brs = List.map (elab_branch e inv) branches in
      Comp.Case (inv, scrut', brs)
  | (Ext.EIdent _ | Ext.EApp _), _ ->
      let e', _t = elab_csynth e x in
      (* final agreement is established by the checker *)
      e'
  | Ext.EBox (loc, _, _), _ | Ext.ECtx (loc, _), _ ->
      err loc "boxed object used at a non-box sort"

and elab_csynth e (x : Ext.cexp) : Comp.exp * Comp.ctyp =
  match x with
  | Ext.EIdent (loc, s) -> (
      match find_index s e.comp_names with
      | Some i -> (Comp.Var i, snd (List.nth e.comp (i - 1)))
      | None -> (
          match List.assoc_opt s e.recs with
          | Some (id, t) -> (Comp.RecConst id, t)
          | None -> (
              match Sign.lookup_name e.sg s with
              | Some (Sign.Sym_rec id) ->
                  (Comp.RecConst id, (Sign.rec_entry e.sg id).Sign.r_styp)
              | _ -> err loc "unbound computation-level identifier %s" s)))
  | Ext.EApp (loc, f, a) -> (
      let f', tf = elab_csynth e f in
      match tf with
      | Comp.CPi (_, _, ms, t) ->
          let mo = elab_mobj e a ms in
          (Comp.MApp (f', mo), Msub.ctyp 0 (Msub.inst1 mo) t)
      | Comp.CArr (t1, t2) -> (Comp.App (f', elab_cexp e a t1), t2)
      | _ -> err loc "application of a non-function")
  | Ext.EBox (loc, ctx, t) ->
      (* a closed boxed neutral synthesizes its principal sort, so it can
         be bound directly: [let \[K\] = \[ |- M\] in …].  Open boxes stay
         checking-only — the kernel re-synthesizes from the erased context
         and only the empty one determines the variables' sorts. *)
      let mo, ms = synth_box e ctx t in
      (match ms with
      | Meta.MSTerm (psi, _)
        when psi.Ctxs.s_var = None && psi.Ctxs.s_decls = [] ->
          ()
      | _ -> err loc "only a closed box synthesizes a sort here");
      (Comp.Box mo, Comp.CBox ms)
  | _ -> err (cexp_loc x) "cannot synthesize a sort for this expression"

(** A meta-object argument checked against its expected contextual sort. *)
and elab_mobj e (x : Ext.cexp) (ms : Meta.msrt) : Meta.mobj =
  match (x, ms) with
  | Ext.EBox (loc, ctx, t), Meta.MSTerm (psi_s, q_s) ->
      let l = elab_ectx e ctx in
      if not (Sctxops.sctx_weakens ~from:l.lctx ~into:psi_s)
         && not (Equal.sctx l.lctx psi_s)
      then err loc "box context does not match the expected context";
      let l' = { lctx = psi_s; lnames = l.lnames } in
      let m = elab_term e l' ~holes:None t q_s in
      Meta.MOTerm (Meta.hat_of_sctx psi_s, m)
  | Ext.ECtx (_, ctx), Meta.MSCtx _ ->
      let l = elab_ectx e ctx in
      Meta.MOCtx l.lctx
  | Ext.EBox (loc, ctx, t), Meta.MSParam _ -> (
      let l = elab_ectx e ctx in
      match elab_head e l ~holes:None t with
      | (BVar _ | PVar _) as h ->
          Meta.MOParam (Meta.hat_of_sctx l.lctx, h)
      | _ -> err loc "parameter argument must be a variable")
  | _, _ ->
      err (cexp_loc x) "meta-object argument does not match the expected sort"

and elab_branch e (inv : Comp.inv) (b : Ext.branch) : Comp.branch =
  (* branch declarations, written outermost first *)
  let e_all, n0 =
    List.fold_left
      (fun (e', n) (_, name, dom) ->
        let ms = elab_cdom e' dom in
        (push_omega e' name (Check_comp.mdecl_of_msrt name ms), n + 1))
      (e, 0) b.Ext.b_decls
  in
  let omega0 =
    (* the first n0 entries of e_all.omega *)
    let rec take k l = if k = 0 then [] else List.hd l :: take (k - 1) (List.tl l) in
    take n0 e_all.omega
  in
  let psi_s, q_s =
    match Msub.msrt 0 (Meta.MShift n0) inv.Comp.inv_msrt with
    | Meta.MSTerm (psi, q) -> (psi, q)
    | _ -> err b.Ext.b_loc "only boxed-term scrutinees can be matched"
  in
  (* bind the written context's names over the scrutinee context *)
  let l_written = elab_ectx e_all b.Ext.b_ctx in
  if
    List.length l_written.lnames <> List.length psi_s.Ctxs.s_decls
    || l_written.lctx.Ctxs.s_var <> psi_s.Ctxs.s_var
  then err b.Ext.b_loc "pattern context does not match the scrutinee context";
  let l = { lctx = psi_s; lnames = l_written.lnames } in
  let pat_m = elab_term e_all l ~holes:None b.Ext.b_pat q_s in
  let pat = Meta.MOTerm (Meta.hat_of_sctx psi_s, pat_m) in
  (* body expected: ⟦pat/X₀⟧ inv_body, pre-unification *)
  let body_expected =
    Msub.ctyp 0 (Msub.inst1 pat) (Msub.ctyp 1 (Meta.MShift n0) inv.Comp.inv_body)
  in
  let body = elab_cexp e_all b.Ext.b_body body_expected in
  { Comp.br_mctx = omega0; Comp.br_pat = pat; Comp.br_body = body }
