open Belr_support
open Belr_syntax

type typ_entry = {
  t_name : string;
  t_kind : Lf.kind;
  t_implicit : int;
  mutable t_consts : Lf.cid_const list;
}

type srt_entry = {
  s_name : string;
  s_refines : Lf.cid_typ;
  s_kind : Lf.skind;
  s_implicit : int;
  mutable s_consts : Lf.cid_const list;
}

type const_entry = {
  c_name : string;
  c_typ : Lf.typ;
  c_implicit : int;
  c_family : Lf.cid_typ;
  mutable c_sorts : Lf.cid_srt list;
}

type schema_entry = {
  g_name : string;
  g_elems : Ctxs.schema;
  mutable g_trivial : Lf.cid_sschema;
}

type sschema_entry = {
  h_name : string;
  h_refines : Lf.cid_schema;
  h_elems : Ctxs.selem list;
  h_hidden : bool;
}

type rec_entry = {
  r_name : string;
  r_styp : Comp.ctyp;
  r_typ : Comp.ctyp_t;
  mutable r_body : Comp.exp option;
  mutable r_group : Lf.cid_rec list;
}

type block_entry = {
  b_name : string;
  b_params : (Name.t * Lf.srt) list;
  b_fields : Ctxs.sblock;
}

type worlds_entry = { w_fam : Lf.cid_typ; w_blocks : int list }

type mode_entry = {
  m_fam : Lf.cid_typ;
  m_srt : Lf.cid_srt option;
  m_name : string;
  m_args : (bool * string) list;
}

type sym =
  | Sym_typ of Lf.cid_typ
  | Sym_srt of Lf.cid_srt
  | Sym_const of Lf.cid_const
  | Sym_schema of Lf.cid_schema
  | Sym_sschema of Lf.cid_sschema
  | Sym_rec of Lf.cid_rec
  | Sym_block of int
  | Sym_worlds of Lf.cid_typ
  | Sym_mode of Lf.cid_typ

type t = {
  typs : (int, typ_entry) Hashtbl.t;
  srts : (int, srt_entry) Hashtbl.t;
  consts : (int, const_entry) Hashtbl.t;
  schemas : (int, schema_entry) Hashtbl.t;
  sschemas : (int, sschema_entry) Hashtbl.t;
  recs : (int, rec_entry) Hashtbl.t;
  blocks : (int, block_entry) Hashtbl.t;
  worlds : (Lf.cid_typ, worlds_entry) Hashtbl.t;  (** keyed by family *)
  modes : (Lf.cid_typ, mode_entry) Hashtbl.t;  (** keyed by resolved family *)
  csorts : (int * int, Lf.srt * int) Hashtbl.t;
      (** (constant, sort family) → (assigned sort, implicit count) *)
  by_name : (string, sym) Hashtbl.t;
  poisoned : (string, unit) Hashtbl.t;
      (** names declared by a declaration that failed to check; looking one
          up raises {!Belr_support.Error.Depends_on_failed} so downstream
          declarations report a single dependency note instead of a
          cascade of spurious errors *)
  locs : (string, Loc.t) Hashtbl.t;
      (** name → source span of its declaration; best-effort (synthetic
          entries have no span), consumed by tooling that reports on the
          signature after checking, e.g. [belr lint] *)
  mutable fresh : int;
  mutable incr : incremental option;
      (** what only the incremental server uses, created on its first
          use: a batch signature never pays for it *)
}

(** The incremental server's state: source ranks and a retire pass. *)
and incremental = {
  ranks : (string, int) Hashtbl.t;
      (** schema or function name → source position of its declaration,
          as the server last saw it (see {!set_rank}) *)
  retired : (string, sym) Hashtbl.t;
      (** names retired by the pass and not re-bound to their old ids *)
  hidden : (sym, hidden) Hashtbl.t;  (** the entries of [retired] *)
  retired_worlds : (string, int) Hashtbl.t;
      (** world name → retired (refinement) schemas providing it *)
  added : (string, unit) Hashtbl.t;
      (** names the pass bound to new ids, and the worlds of the
          (refinement) schemas among them *)
  mutable reassigned : (Lf.cid_srt * (Lf.cid_const * (Lf.srt * int)) list) list;
      (** sort families re-bound to their old ids, with the sort
          assignments they had; compared once their declaration is done *)
  mutable widened : bool;
      (** a re-bound sort family changed its assignments: {!changed} now
          holds of every name *)
  mutable passing : bool;  (** a retire pass is in progress *)
}

(** An entry taken out of its table by a retire pass. *)
and hidden =
  | H_typ of typ_entry
  | H_srt of srt_entry
  | H_const of const_entry
  | H_schema of schema_entry
  | H_sschema of sschema_entry
  | H_rec of rec_entry
  | H_block of block_entry
  | H_worlds of worlds_entry
  | H_mode of mode_entry

let create () =
  {
    typs = Hashtbl.create 64;
    srts = Hashtbl.create 64;
    consts = Hashtbl.create 64;
    schemas = Hashtbl.create 16;
    sschemas = Hashtbl.create 16;
    recs = Hashtbl.create 16;
    blocks = Hashtbl.create 16;
    worlds = Hashtbl.create 16;
    modes = Hashtbl.create 16;
    csorts = Hashtbl.create 64;
    by_name = Hashtbl.create 128;
    poisoned = Hashtbl.create 16;
    locs = Hashtbl.create 128;
    fresh = 0;
    incr = None;
  }

let incremental sg : incremental =
  match sg.incr with
  | Some p -> p
  | None ->
      let p =
        {
          ranks = Hashtbl.create 16;
          retired = Hashtbl.create 16;
          hidden = Hashtbl.create 16;
          retired_worlds = Hashtbl.create 16;
          added = Hashtbl.create 16;
          reassigned = [];
          widened = false;
          passing = false;
        }
      in
      sg.incr <- Some p;
      p

let next sg =
  let i = sg.fresh in
  sg.fresh <- i + 1;
  i

let bind_name sg name sym =
  if Hashtbl.mem sg.by_name name then
    Error.raise_msg "name %s is already declared" name;
  Hashtbl.replace sg.by_name name sym

let poison sg name = Hashtbl.replace sg.poisoned name ()

let is_poisoned sg name = Hashtbl.mem sg.poisoned name

let lookup_name sg name =
  if Hashtbl.mem sg.poisoned name then raise (Error.Depends_on_failed name);
  Hashtbl.find_opt sg.by_name name

let sym_opt sg name = Hashtbl.find_opt sg.by_name name

let set_decl_loc sg name (loc : Loc.t) =
  if not (Loc.is_ghost loc) then Hashtbl.replace sg.locs name loc

let decl_loc sg name : Loc.t option = Hashtbl.find_opt sg.locs name

let mode_loc sg (me : mode_entry) : Loc.t option =
  decl_loc sg (me.m_name ^ "%mode")

(* --- retire passes (incremental re-checking) ------------------------------ *)

(** The entry a retire pass took out from under [name], if any. *)
let retired_entry sg name : (sym * hidden) option =
  match sg.incr with
  | None -> None
  | Some p -> (
      match Hashtbl.find_opt p.retired name with
      | None -> None
      | Some sym ->
          Option.map (fun h -> (sym, h)) (Hashtbl.find_opt p.hidden sym))

(** The hidden entry of [sym], if a pass retired one. *)
let hidden_entry sg sym : hidden option =
  match sg.incr with None -> None | Some p -> Hashtbl.find_opt p.hidden sym

let elem_worlds elems =
  List.map (fun (e : Ctxs.elem) -> Name.to_string e.Ctxs.e_name) elems

let selem_worlds selems =
  List.map (fun (f : Ctxs.selem) -> Name.to_string f.Ctxs.f_name) selems

let hidden_worlds : hidden -> string list = function
  | H_schema g -> elem_worlds g.g_elems
  | H_sschema h -> selem_worlds h.h_elems
  | _ -> []

let count_worlds (p : incremental) (h : hidden) (d : int) =
  List.iter
    (fun w ->
      let n =
        Option.value (Hashtbl.find_opt p.retired_worlds w) ~default:0 + d
      in
      if n = 0 then Hashtbl.remove p.retired_worlds w
      else Hashtbl.replace p.retired_worlds w n)
    (hidden_worlds h)

(** [name] is bound again to its retired entry's id: forget the entry. *)
let reclaim sg name =
  match sg.incr with
  | None -> ()
  | Some p -> (
      match Hashtbl.find_opt p.retired name with
      | None -> ()
      | Some sym ->
          Option.iter
            (fun h -> count_worlds p h (-1))
            (Hashtbl.find_opt p.hidden sym);
          Hashtbl.remove p.hidden sym;
          Hashtbl.remove p.retired name)

let passing sg = match sg.incr with Some p -> p.passing | None -> false

(** A pass bound [name] to a new id: an entry mentioning it may read it
    differently (a capitalized name that did not resolve was an implicit
    argument; a world may now come from another schema). *)
let added sg (name : string) =
  match sg.incr with
  | Some p when p.passing -> Hashtbl.replace p.added name ()
  | _ -> ()

let same_list eq xs ys =
  List.length xs = List.length ys && List.for_all2 eq xs ys

let same_params xs ys = same_list (fun (_, s1) (_, s2) -> Equal.srt s1 s2) xs ys

(* --- declaration ---------------------------------------------------- *)

let add_typ sg ~name ~kind ~implicit : Lf.cid_typ =
  let old =
    match retired_entry sg name with
    | Some (Sym_typ a, H_typ te)
      when te.t_implicit = implicit && Equal.kind te.t_kind kind -> a
    | _ -> -1
  in
  let id = if old < 0 then next sg else old in
  bind_name sg name (Sym_typ id);
  if old >= 0 then reclaim sg name else added sg name;
  Hashtbl.replace sg.typs id
    { t_name = name; t_kind = kind; t_implicit = implicit; t_consts = [] };
  id

let find_const sg c =
  match Hashtbl.find_opt sg.consts c with
  | Some _ as e -> e
  | None -> (
      match hidden_entry sg (Sym_const c) with
      | Some (H_const ce) -> Some ce
      | _ -> None)

let find_srt sg s =
  match Hashtbl.find_opt sg.srts s with
  | Some _ as e -> e
  | None -> (
      match hidden_entry sg (Sym_srt s) with
      | Some (H_srt se) -> Some se
      | _ -> None)

let find_typ sg a =
  match Hashtbl.find_opt sg.typs a with
  | Some _ as e -> e
  | None -> (
      match hidden_entry sg (Sym_typ a) with
      | Some (H_typ te) -> Some te
      | _ -> None)

(** Drop the sort assignments into family [s] (its constants are exactly
    [s_consts]), returning them in order. *)
let drop_assignments sg s (se : srt_entry) :
    (Lf.cid_const * (Lf.srt * int)) list =
  List.filter_map
    (fun c ->
      let a = Hashtbl.find_opt sg.csorts (c, s) in
      Hashtbl.remove sg.csorts (c, s);
      Option.iter
        (fun ce -> ce.c_sorts <- List.filter (fun f -> f <> s) ce.c_sorts)
        (find_const sg c);
      Option.map (fun a -> (c, a)) a)
    se.s_consts

let add_srt sg ~name ~refines ~skind ~implicit : Lf.cid_srt =
  let old =
    match retired_entry sg name with
    | Some (Sym_srt s, H_srt se)
      when se.s_refines = refines && se.s_implicit = implicit
           && Equal.skind se.s_kind skind -> Some (s, se)
    | _ -> None
  in
  let id = match old with Some (s, _) -> s | None -> next sg in
  bind_name sg name (Sym_srt id);
  (match old with
  | Some (_, se) ->
      (* its assignments are about to be re-added: compare them with the
         old ones once the declaration is done (see {!changed}) *)
      let p = incremental sg in
      p.reassigned <- (id, drop_assignments sg id se) :: p.reassigned;
      reclaim sg name
  | None -> added sg name);
  Hashtbl.replace sg.srts id
    {
      s_name = name;
      s_refines = refines;
      s_kind = skind;
      s_implicit = implicit;
      s_consts = [];
    };
  id

let add_const sg ~name ~typ ~implicit : Lf.cid_const =
  let old, sorts =
    match retired_entry sg name with
    | Some (Sym_const c, H_const ce)
      when ce.c_implicit = implicit && Equal.typ ce.c_typ typ ->
        (* the sort assignments refinement declarations gave it stay *)
        (c, ce.c_sorts)
    | _ -> (-1, [])
  in
  let id = if old < 0 then next sg else old in
  bind_name sg name (Sym_const id);
  if old >= 0 then reclaim sg name else added sg name;
  let family = Lf.typ_target typ in
  Hashtbl.replace sg.consts id
    {
      c_name = name;
      c_typ = typ;
      c_implicit = implicit;
      c_family = family;
      c_sorts = sorts;
    };
  (match Hashtbl.find_opt sg.typs family with
  | Some te -> te.t_consts <- te.t_consts @ [ id ]
  | None -> Error.violation "add_const: unknown target family");
  id

let add_csort sg ~const ~srt ~implicit : unit =
  let family =
    match Lf.srt_target srt with
    | Some s -> s
    | None ->
        Error.violation "add_csort: assigned sort targets an embedding"
  in
  if Hashtbl.mem sg.csorts (const, family) then
    Error.raise_msg "constant already has a sort in this family";
  Hashtbl.replace sg.csorts (const, family) (srt, implicit);
  (match Hashtbl.find_opt sg.consts const with
  | Some ce -> ce.c_sorts <- family :: ce.c_sorts
  | None -> ());
  match Hashtbl.find_opt sg.srts family with
  | Some se -> se.s_consts <- se.s_consts @ [ const ]
  | None -> Error.violation "add_csort: unknown sort family"

(* world names matter beyond α-equivalence: elaboration finds a world by
   its name, and a refinement world by the index of the world it refines *)
let same_elems =
  same_list (fun (a : Ctxs.elem) b ->
      a.Ctxs.e_name = b.Ctxs.e_name && Equal.elem a b)

let same_selems =
  same_list (fun (a : Ctxs.selem) b ->
      a.Ctxs.f_name = b.Ctxs.f_name
      && a.Ctxs.f_refines = b.Ctxs.f_refines
      && Equal.selem a b)

let add_schema sg ~name ~elems : Lf.cid_schema =
  let tname = name ^ "^" in
  let old, told =
    match (retired_entry sg name, retired_entry sg tname) with
    | Some (Sym_schema g, H_schema ge), Some (Sym_sschema t, H_sschema _)
      when same_elems ge.g_elems elems -> (g, t)
    | _ -> (-1, -1)
  in
  let id = if old < 0 then next sg else old in
  bind_name sg name (Sym_schema id);
  if old >= 0 then reclaim sg name else begin
    added sg name;
    if passing sg then List.iter (added sg) (elem_worlds elems)
  end;
  Hashtbl.replace sg.schemas id { g_name = name; g_elems = elems; g_trivial = -1 };
  (* auto-register the trivial refinement ⌈G⌉ under a hidden name *)
  let tid = if told < 0 then next sg else told in
  bind_name sg tname (Sym_sschema tid);
  if told >= 0 then reclaim sg tname else added sg tname;
  let selems = (Embed.schema ~cid:id elems).Ctxs.h_elems in
  Hashtbl.replace sg.sschemas tid
    { h_name = tname; h_refines = id; h_elems = selems; h_hidden = true };
  (Hashtbl.find sg.schemas id).g_trivial <- tid;
  id

let add_sschema sg ~name ~refines ~elems : Lf.cid_sschema =
  let old =
    match retired_entry sg name with
    | Some (Sym_sschema h, H_sschema he)
      when he.h_refines = refines && (not he.h_hidden)
           && same_selems he.h_elems elems ->
        h
    | _ -> -1
  in
  let id = if old < 0 then next sg else old in
  bind_name sg name (Sym_sschema id);
  if old >= 0 then reclaim sg name else begin
    added sg name;
    if passing sg then List.iter (added sg) (selem_worlds elems)
  end;
  Hashtbl.replace sg.sschemas id
    { h_name = name; h_refines = refines; h_elems = elems; h_hidden = false };
  id

let add_rec sg ~name ~styp ~typ : Lf.cid_rec =
  let old =
    match retired_entry sg name with
    | Some (Sym_rec r, H_rec re)
      when Equal.ctyp re.r_styp styp && Equal.ctyp_t re.r_typ typ -> r
    | _ -> -1
  in
  let id = if old < 0 then next sg else old in
  bind_name sg name (Sym_rec id);
  if old >= 0 then reclaim sg name else added sg name;
  Hashtbl.replace sg.recs id
    { r_name = name; r_styp = styp; r_typ = typ; r_body = None; r_group = [] };
  id

let add_block sg ~name ~params ~fields : int =
  let old =
    match retired_entry sg name with
    | Some (Sym_block b, H_block be)
      when same_params be.b_params params && Equal.sblock be.b_fields fields
      ->
        b
    | _ -> -1
  in
  let id = if old < 0 then next sg else old in
  bind_name sg name (Sym_block id);
  if old >= 0 then reclaim sg name else added sg name;
  Hashtbl.replace sg.blocks id
    { b_name = name; b_params = params; b_fields = fields };
  id

let add_worlds sg ~fam ~fam_name ~blocks : unit =
  if Hashtbl.mem sg.worlds fam then
    Error.raise_msg "the worlds of %s are already declared" fam_name;
  bind_name sg (fam_name ^ "%worlds") (Sym_worlds fam);
  reclaim sg (fam_name ^ "%worlds");
  Hashtbl.replace sg.worlds fam { w_fam = fam; w_blocks = blocks }

let add_mode sg ~fam ~srt ~name ~args : unit =
  if Hashtbl.mem sg.modes fam then
    Error.raise_msg "the mode of %s is already declared"
      (match Hashtbl.find_opt sg.typs fam with
      | Some te -> te.t_name
      | None -> name);
  bind_name sg (name ^ "%mode") (Sym_mode fam);
  reclaim sg (name ^ "%mode");
  Hashtbl.replace sg.modes fam
    { m_fam = fam; m_srt = srt; m_name = name; m_args = args }

let set_rec_body sg id body =
  match Hashtbl.find_opt sg.recs id with
  | Some e -> e.r_body <- Some body
  | None -> Error.violation "set_rec_body: unknown function"

let set_rec_group sg (ids : Lf.cid_rec list) =
  List.iter
    (fun id ->
      match Hashtbl.find_opt sg.recs id with
      | Some e -> e.r_group <- ids
      | None -> Error.violation "set_rec_group: unknown function")
    ids

let rec_group sg (id : Lf.cid_rec) : Lf.cid_rec list =
  match Hashtbl.find_opt sg.recs id with
  | Some { r_group = _ :: _ as g; _ } -> g
  | _ -> [ id ]

(* --- retirement (incremental re-checking) --------------------------------- *)

(** Take the entry [sym] names out of its table. *)
let detach sg (sym : sym) : hidden option =
  let take tbl k wrap =
    match Hashtbl.find_opt tbl k with
    | Some e ->
        Hashtbl.remove tbl k;
        Some (wrap e)
    | None -> None
  in
  match sym with
  | Sym_typ a -> take sg.typs a (fun e -> H_typ e)
  | Sym_srt s -> take sg.srts s (fun e -> H_srt e)
  | Sym_const c -> take sg.consts c (fun e -> H_const e)
  | Sym_schema g -> take sg.schemas g (fun e -> H_schema e)
  | Sym_sschema h -> take sg.sschemas h (fun e -> H_sschema e)
  | Sym_rec r -> take sg.recs r (fun e -> H_rec e)
  | Sym_block b -> take sg.blocks b (fun e -> H_block e)
  | Sym_worlds f -> take sg.worlds f (fun e -> H_worlds e)
  | Sym_mode f -> take sg.modes f (fun e -> H_mode e)

(** Put a detached entry back. *)
let attach sg (sym : sym) (h : hidden) : unit =
  match (sym, h) with
  | Sym_typ a, H_typ e -> Hashtbl.replace sg.typs a e
  | Sym_srt s, H_srt e -> Hashtbl.replace sg.srts s e
  | Sym_const c, H_const e -> Hashtbl.replace sg.consts c e
  | Sym_schema g, H_schema e -> Hashtbl.replace sg.schemas g e
  | Sym_sschema t, H_sschema e -> Hashtbl.replace sg.sschemas t e
  | Sym_rec r, H_rec e -> Hashtbl.replace sg.recs r e
  | Sym_block b, H_block e -> Hashtbl.replace sg.blocks b e
  | Sym_worlds f, H_worlds e -> Hashtbl.replace sg.worlds f e
  | Sym_mode f, H_mode e -> Hashtbl.replace sg.modes f e
  | _ -> Error.violation "attach: the entry does not match its symbol"

(** Scrub the links other entries hold to a detached entry that is gone
    for good: a constant's membership in its family and its sort
    assignments in any family, a sort family's assignments. *)
let scrub sg (sym : sym) (h : hidden) : unit =
  match (sym, h) with
  | Sym_srt s, H_srt se -> ignore (drop_assignments sg s se)
  | Sym_const c, H_const ce ->
      Option.iter
        (fun te -> te.t_consts <- List.filter (fun id -> id <> c) te.t_consts)
        (find_typ sg ce.c_family);
      List.iter
        (fun f ->
          Hashtbl.remove sg.csorts (c, f);
          Option.iter
            (fun se ->
              se.s_consts <- List.filter (fun id -> id <> c) se.s_consts)
            (find_srt sg f))
        ce.c_sorts
  | _ -> ()

let retire sg (names : string list) : unit =
  let p = incremental sg in
  p.passing <- true;
  List.iter
    (fun name ->
      Hashtbl.remove sg.poisoned name;
      Hashtbl.remove sg.locs name;
      match Hashtbl.find_opt sg.by_name name with
      | None -> ()
      | Some sym ->
          Hashtbl.remove sg.by_name name;
          Hashtbl.replace p.retired name sym;
          Option.iter
            (fun h ->
              Hashtbl.replace p.hidden sym h;
              count_worlds p h 1)
            (detach sg sym))
    names

let restorable sg (names : string list) : bool =
  List.for_all
    (fun n ->
      (not (Hashtbl.mem sg.by_name n || Hashtbl.mem sg.poisoned n))
      &&
      match Option.bind sg.incr (fun p -> Hashtbl.find_opt p.retired n) with
      | Some (Sym_worlds f) -> not (Hashtbl.mem sg.worlds f)
      | Some (Sym_mode f) -> not (Hashtbl.mem sg.modes f)
      | _ -> true)
    names

let restore sg (names : string list) : unit =
  List.iter
    (fun name ->
      match Option.bind sg.incr (fun p -> Hashtbl.find_opt p.retired name) with
      | None -> ()
      | Some sym ->
          Hashtbl.replace sg.by_name name sym;
          Option.iter (attach sg sym) (hidden_entry sg sym);
          reclaim sg name)
    names

(** Compare the sort families re-bound to their old ids with the
    assignments they had.  A changed assignment is read by every check
    that reaches the family's id — also through another entry's payload,
    without mentioning its name — so it widens {!changed} to every name
    for the rest of the pass. *)
let settle_sorts sg (p : incremental) =
  List.iter
    (fun (s, old) ->
      let now =
        match Hashtbl.find_opt sg.srts s with
        | Some se ->
            List.filter_map
              (fun c ->
                Option.map
                  (fun a -> (c, a))
                  (Hashtbl.find_opt sg.csorts (c, s)))
              se.s_consts
        | None -> []
      in
      let same (c1, (s1, i1)) (c2, (s2, i2)) =
        c1 = c2 && i1 = i2 && Equal.srt s1 s2
      in
      if not (same_list same old now) then p.widened <- true)
    p.reassigned;
  p.reassigned <- []

let changed sg (name : string) : bool =
  Hashtbl.mem sg.poisoned name
  ||
  match sg.incr with
  | None -> false
  | Some p ->
      if p.reassigned <> [] then settle_sorts sg p;
      p.widened
      || Hashtbl.mem p.retired name
      || Hashtbl.mem p.added name
      || Hashtbl.mem p.retired_worlds name

let settle sg : unit =
  match sg.incr with
  | None -> ()
  | Some p ->
      Hashtbl.iter
        (fun _ sym ->
          Option.iter (scrub sg sym) (Hashtbl.find_opt p.hidden sym))
        p.retired;
      Hashtbl.clear p.retired;
      Hashtbl.clear p.hidden;
      Hashtbl.clear p.retired_worlds;
      Hashtbl.clear p.added;
      p.reassigned <- [];
      p.widened <- false;
      p.passing <- false

let set_rank sg name (r : int) = Hashtbl.replace (incremental sg).ranks name r

let rank sg name : int =
  match sg.incr with
  | None -> -1
  | Some p -> Option.value (Hashtbl.find_opt p.ranks name) ~default:(-1)

let in_source_order sg (name : 'a -> string) (entries : (int * 'a) list) :
    (int * 'a) list =
  List.sort
    (fun (i, e) (j, f) ->
      let c = Int.compare (rank sg (name e)) (rank sg (name f)) in
      if c <> 0 then c else Int.compare i j)
    entries

(* --- lookup ---------------------------------------------------------- *)

let fail_unknown what id = Error.violation "unknown %s id %d" what id

let typ_entry sg id =
  match Hashtbl.find_opt sg.typs id with Some e -> e | None -> fail_unknown "type" id

let typ_entry_opt sg id = Hashtbl.find_opt sg.typs id

let srt_entry sg id =
  match Hashtbl.find_opt sg.srts id with Some e -> e | None -> fail_unknown "sort" id

let rec erase_srt sg : Lf.srt -> Lf.typ = function
  | Lf.SAtom (s, sp) -> Lf.mk_atom (srt_entry sg s).s_refines sp
  | Lf.SEmbed (a, sp) -> Lf.mk_atom a sp
  | Lf.SPi (x, s1, s2) -> Lf.mk_pi x (erase_srt sg s1) (erase_srt sg s2)

let const_entry sg id =
  match Hashtbl.find_opt sg.consts id with
  | Some e -> e
  | None -> fail_unknown "constant" id

let schema_entry sg id =
  match Hashtbl.find_opt sg.schemas id with
  | Some e -> e
  | None -> fail_unknown "schema" id

let sschema_entry sg id =
  match Hashtbl.find_opt sg.sschemas id with
  | Some e -> e
  | None -> fail_unknown "refinement schema" id

let rec_entry sg id =
  match Hashtbl.find_opt sg.recs id with
  | Some e -> e
  | None -> fail_unknown "function" id

let rec_entry_opt sg id = Hashtbl.find_opt sg.recs id

let csort sg ~const ~family : (Lf.srt * int) option =
  Hashtbl.find_opt sg.csorts (const, family)

let block_entry sg id =
  match Hashtbl.find_opt sg.blocks id with
  | Some e -> e
  | None -> fail_unknown "block" id

let worlds_of sg (fam : Lf.cid_typ) : worlds_entry option =
  Hashtbl.find_opt sg.worlds fam

let all_recs sg : (Lf.cid_rec * rec_entry) list =
  Hashtbl.fold (fun id e acc -> (id, e) :: acc) sg.recs []

let all_blocks sg : (int * block_entry) list =
  Hashtbl.fold (fun id e acc -> (id, e) :: acc) sg.blocks []

let all_worlds sg : worlds_entry list =
  Hashtbl.fold (fun _ e acc -> e :: acc) sg.worlds []

let mode_of sg (fam : Lf.cid_typ) : mode_entry option =
  Hashtbl.find_opt sg.modes fam

let all_modes sg : mode_entry list =
  Hashtbl.fold (fun _ e acc -> e :: acc) sg.modes []

let all_typs sg : (Lf.cid_typ * typ_entry) list =
  Hashtbl.fold (fun id e acc -> (id, e) :: acc) sg.typs []

let all_srts sg : (Lf.cid_srt * srt_entry) list =
  Hashtbl.fold (fun id e acc -> (id, e) :: acc) sg.srts []

let all_consts sg : (Lf.cid_const * const_entry) list =
  Hashtbl.fold (fun id e acc -> (id, e) :: acc) sg.consts []

let all_schemas sg : (Lf.cid_schema * schema_entry) list =
  Hashtbl.fold (fun id e acc -> (id, e) :: acc) sg.schemas []

let all_sschemas sg : (Lf.cid_sschema * sschema_entry) list =
  Hashtbl.fold (fun id e acc -> (id, e) :: acc) sg.sschemas []

let all_csorts sg : ((Lf.cid_const * Lf.cid_srt) * (Lf.srt * int)) list =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) sg.csorts []

let is_hidden_sschema (e : sschema_entry) = e.h_hidden

(* --- summary ---------------------------------------------------------- *)

type summary = {
  n_typs : int;
  n_srts : int;
  n_consts : int;
  n_schemas : int;
  n_sschemas : int;
  n_recs : int;
}

let summary sg : summary =
  {
    n_typs = Hashtbl.length sg.typs;
    n_srts = Hashtbl.length sg.srts;
    n_consts = Hashtbl.length sg.consts;
    n_schemas = Hashtbl.length sg.schemas;
    n_sschemas =
      Hashtbl.fold
        (fun _ e n -> if e.h_hidden then n else n + 1)
        sg.sschemas 0;
    n_recs = Hashtbl.length sg.recs;
  }

let constants_of_typ sg a = (typ_entry sg a).t_consts

let constants_of_srt sg s = (srt_entry sg s).s_consts

let embed_schema sg (g : Lf.cid_schema) : Ctxs.sschema =
  Embed.schema ~cid:g (schema_entry sg g).g_elems

let resolver sg : Pp.resolver =
  {
    Pp.r_typ = (fun i -> (typ_entry sg i).t_name);
    Pp.r_srt = (fun i -> (srt_entry sg i).s_name);
    Pp.r_const = (fun i -> (const_entry sg i).c_name);
    Pp.r_schema = (fun i -> (schema_entry sg i).g_name);
    Pp.r_sschema = (fun i -> (sschema_entry sg i).h_name);
    Pp.r_rec = (fun i -> (rec_entry sg i).r_name);
  }

let pp_env sg = Pp.env ~res:(resolver sg) ()
