(** The global signature Σ.

    Holds every declared atomic type family, atomic sort family, constant,
    sort assignment ([c :: S] for an already-declared constant), schema,
    refinement schema, and computation-level function.  Ids handed out are
    dense integers; name lookup goes through a single namespace, as in
    Beluga.

    Implicit arguments: a declaration elaborated from the surface syntax
    may have [implicit] leading Π-quantifiers that were inserted for free
    capitalized variables; checkers ignore the flag (terms are fully
    explicit internally) but printers and the elaborator use it. *)

open Belr_support
open Belr_syntax

type typ_entry = {
  t_name : string;
  t_kind : Lf.kind;
  t_implicit : int;
  mutable t_consts : Lf.cid_const list;  (** constructors, in declaration order *)
}

type srt_entry = {
  s_name : string;
  s_refines : Lf.cid_typ;
  s_kind : Lf.skind;
  s_implicit : int;
  mutable s_consts : Lf.cid_const list;
      (** constants given a sort in this family, in declaration order *)
}

type const_entry = {
  c_name : string;
  c_typ : Lf.typ;
  c_implicit : int;
  c_family : Lf.cid_typ;  (** target family of [c_typ] *)
  mutable c_sorts : Lf.cid_srt list;
      (** the sort families giving this constant a sort ([csorts] keys
          [(c, s)]), newest first — what retracting [c] must scrub *)
}

type schema_entry = {
  g_name : string;
  g_elems : Ctxs.schema;
  mutable g_trivial : Lf.cid_sschema;
      (** the auto-registered trivial refinement [⌈G⌉ ⊑ G]; the type level
          is the embedded fragment of the refinement level, so every
          schema needs its embedding to be nameable *)
}

type sschema_entry = {
  h_name : string;
  h_refines : Lf.cid_schema;
  h_elems : Ctxs.selem list;
  h_hidden : bool;
      (** auto-registered trivial refinement [⌈G⌉ ⊑ G] (named [G^]): not a
          user declaration, so tooling (summaries, name resolution
          priority) treats it as hidden *)
}

type rec_entry = {
  r_name : string;
  r_styp : Comp.ctyp;  (** declared comp sort ζ *)
  r_typ : Comp.ctyp_t;  (** its erasure τ (conservativity output) *)
  mutable r_body : Comp.exp option;
      (** filled after the body is checked, enabling recursion *)
  mutable r_group : Lf.cid_rec list;
      (** the mutual-recursion group this function was declared in
          ([rec f … and g …;]), in declaration order; [[]] until recorded
          (read it through {!rec_group}, which defaults to the singleton) *)
}

type block_entry = {
  b_name : string;
  b_params : (Name.t * Lf.srt) list;  (** Π-bound block parameters *)
  b_fields : Ctxs.sblock;
      (** block components, first first; a field may refer to earlier
          fields by de Bruijn index (1 = immediately preceding) *)
}
(** A [%block] declaration: a named context block usable in [%worlds]
    declarations.  Fields are stored at the refinement (sort) level —
    type-level families arrive embedded — so one representation covers
    both LF and LFR blocks. *)

type worlds_entry = {
  w_fam : Lf.cid_typ;  (** the bounded family *)
  w_blocks : int list;  (** [%block] ids, in declaration order *)
  w_loc : Loc.t;  (** where the [%worlds] declaration stands *)
}
(** A [%worlds (b₁ | … | bₙ) fam] declaration: contexts at uses of [fam]
    may only extend by instances of the listed blocks. *)

type mode_entry = {
  m_fam : Lf.cid_typ;
      (** the moded family, resolved through [s_refines] when the
          declaration named a sort family *)
  m_srt : Lf.cid_srt option;
      (** when the declaration named a sort family: the analyzer checks
          that family's (sharper) clauses instead of the type family's *)
  m_name : string;  (** the family name as written in the declaration *)
  m_args : (bool * string) list;
      (** one (polarity, argument name) per explicit argument position,
          in order; [true] = input ([+]) *)
  m_loc : Loc.t;  (** where the [%mode] declaration stands *)
}
(** A [%mode fam +M … -N] declaration: input ([+]) positions must be
    ground for the judgment to be invoked, output ([-]) positions are
    ground when it succeeds. *)

type sym =
  | Sym_typ of Lf.cid_typ
  | Sym_srt of Lf.cid_srt
  | Sym_const of Lf.cid_const
  | Sym_schema of Lf.cid_schema
  | Sym_sschema of Lf.cid_sschema
  | Sym_rec of Lf.cid_rec
  | Sym_block of int
  | Sym_worlds of Lf.cid_typ
      (** bound under the synthetic name [fam ^ "%worlds"], keyed by the
          family — one [%worlds] per family, enforced by [bind_name] *)
  | Sym_mode of Lf.cid_typ
      (** bound under [fam ^ "%mode"], keyed by the resolved family — one
          [%mode] per (erased) family, enforced by [bind_name] *)

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
}

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
  }

let next sg =
  let i = sg.fresh in
  sg.fresh <- i + 1;
  i

(** Bind [name], rejecting a duplicate.  Every [add_*] binds before it
    creates its entry, so a rejected duplicate leaves no entry behind
    (none that retraction, which goes by name, could reach). *)
let bind_name sg name sym =
  if Hashtbl.mem sg.by_name name then
    Error.raise_msg "name %s is already declared" name;
  Hashtbl.replace sg.by_name name sym

(** Mark [name] as declared by a failed declaration (fault-tolerant
    checking); subsequent lookups raise {!Error.Depends_on_failed}. *)
let poison sg name = Hashtbl.replace sg.poisoned name ()

let is_poisoned sg name = Hashtbl.mem sg.poisoned name

(** Remove [name] from the poisoned set (it is about to be retried). *)
let unpoison sg name = Hashtbl.remove sg.poisoned name

let lookup_name sg name =
  if Hashtbl.mem sg.poisoned name then raise (Error.Depends_on_failed name);
  Hashtbl.find_opt sg.by_name name

(** Like {!lookup_name}, but poison-blind: tooling that inspects the
    signature (the incremental invalidation pass of [belr serve]) needs
    to see failed declarations too, without raising. *)
let sym_opt sg name = Hashtbl.find_opt sg.by_name name

(** Record where [name] was declared.  Ghost spans are not recorded, so a
    later real span (e.g. a per-constructor location refining the whole
    declaration's) can still land. *)
let set_decl_loc sg name (loc : Loc.t) =
  if not (Loc.is_ghost loc) then Hashtbl.replace sg.locs name loc

let decl_loc sg name : Loc.t option = Hashtbl.find_opt sg.locs name

(* --- declaration ---------------------------------------------------- *)

let add_typ sg ~name ~kind ~implicit : Lf.cid_typ =
  let id = next sg in
  bind_name sg name (Sym_typ id);
  Hashtbl.replace sg.typs id
    { t_name = name; t_kind = kind; t_implicit = implicit; t_consts = [] };
  id

let add_srt sg ~name ~refines ~skind ~implicit : Lf.cid_srt =
  let id = next sg in
  bind_name sg name (Sym_srt id);
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
  let id = next sg in
  bind_name sg name (Sym_const id);
  let family = Lf.typ_target typ in
  Hashtbl.replace sg.consts id
    {
      c_name = name;
      c_typ = typ;
      c_implicit = implicit;
      c_family = family;
      c_sorts = [];
    };
  (match Hashtbl.find_opt sg.typs family with
  | Some te -> te.t_consts <- te.t_consts @ [ id ]
  | None -> Error.violation "add_const: unknown target family");
  id

(** Record the sort assignment [c :: S] where [S]'s target is the sort
    family [s]; used when an [LFR s ⊑ a] declaration lists [c]. *)
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

let add_schema sg ~name ~elems : Lf.cid_schema =
  let id = next sg in
  bind_name sg name (Sym_schema id);
  Hashtbl.replace sg.schemas id { g_name = name; g_elems = elems; g_trivial = -1 };
  (* auto-register the trivial refinement ⌈G⌉ under a hidden name *)
  let tid = next sg in
  bind_name sg (name ^ "^") (Sym_sschema tid);
  let selems = (Embed.schema ~cid:id elems).Ctxs.h_elems in
  Hashtbl.replace sg.sschemas tid
    { h_name = name ^ "^"; h_refines = id; h_elems = selems; h_hidden = true };
  (Hashtbl.find sg.schemas id).g_trivial <- tid;
  id

let add_sschema sg ~name ~refines ~elems : Lf.cid_sschema =
  let id = next sg in
  bind_name sg name (Sym_sschema id);
  Hashtbl.replace sg.sschemas id
    { h_name = name; h_refines = refines; h_elems = elems; h_hidden = false };
  id

let add_rec sg ~name ~styp ~typ : Lf.cid_rec =
  let id = next sg in
  bind_name sg name (Sym_rec id);
  Hashtbl.replace sg.recs id
    { r_name = name; r_styp = styp; r_typ = typ; r_body = None; r_group = [] };
  id

(** Declare a [%block].  Fields are at the sort level (see
    {!type-block_entry}); the name lives in the shared namespace. *)
let add_block sg ~name ~params ~fields : int =
  let id = next sg in
  bind_name sg name (Sym_block id);
  Hashtbl.replace sg.blocks id
    { b_name = name; b_params = params; b_fields = fields };
  id

(** Declare the [%worlds] of family [fam] — at most one per family,
    enforced through the synthetic name binding [fam ^ "%worlds"] (the
    ["%"] cannot occur in a surface identifier, so no collision with user
    declarations is possible). *)
let add_worlds sg ~fam ~fam_name ~blocks ~loc : unit =
  if Hashtbl.mem sg.worlds fam then
    Error.raise_msg "the worlds of %s are already declared" fam_name;
  bind_name sg (fam_name ^ "%worlds") (Sym_worlds fam);
  Hashtbl.replace sg.worlds fam { w_fam = fam; w_blocks = blocks; w_loc = loc }

(** Declare the [%mode] of a family — at most one per resolved family,
    enforced through the synthetic name binding [fam ^ "%mode"] exactly
    like {!add_worlds}.  [name] is the surface name the declaration used
    (a sort family keeps its own name even though it keys under its
    refined type family). *)
let add_mode sg ~fam ~srt ~name ~args ~loc : unit =
  if Hashtbl.mem sg.modes fam then
    Error.raise_msg "the mode of %s is already declared"
      (match Hashtbl.find_opt sg.typs fam with
      | Some te -> te.t_name
      | None -> name);
  bind_name sg (name ^ "%mode") (Sym_mode fam);
  Hashtbl.replace sg.modes fam
    { m_fam = fam; m_srt = srt; m_name = name; m_args = args; m_loc = loc }

let set_rec_body sg id body =
  match Hashtbl.find_opt sg.recs id with
  | Some e -> e.r_body <- Some body
  | None -> Error.violation "set_rec_body: unknown function"

(** Record that [ids] (in declaration order) form one [rec … and …;]
    group; every member gets the full list. *)
let set_rec_group sg (ids : Lf.cid_rec list) =
  List.iter
    (fun id ->
      match Hashtbl.find_opt sg.recs id with
      | Some e -> e.r_group <- ids
      | None -> Error.violation "set_rec_group: unknown function")
    ids

(** The mutual-recursion group of [id], defaulting to the singleton for
    functions declared alone (or predating group tracking). *)
let rec_group sg (id : Lf.cid_rec) : Lf.cid_rec list =
  match Hashtbl.find_opt sg.recs id with
  | Some { r_group = _ :: _ as g; _ } -> g
  | _ -> [ id ]

(* --- retraction (incremental re-checking) ----------------------------- *)

(** Retract one declared name: its entry, its name binding, its poison
    mark, its recorded span, and every membership link pointing at it
    from surviving entries.  Ids are {e not} reused ([fresh] keeps
    counting), so ids held by unchanged declarations stay valid — that is
    what lets the incremental server re-check only the edited
    declaration's downstream closure while the rest of the signature
    keeps its identity.

    Retraction granularity is the {e declaration}: callers retract every
    name a declaration bound (see [Ext.declared_names]) before
    re-processing it, so cross-entry links within one declaration (a
    constant in its family's [t_consts]) vanish with the declaration.
    Links {e into} other declarations' entries — a refinement's sort
    assignments on older constants, a constant's membership in an older
    family — are scrubbed here. *)
let retract_name sg name =
  (match Hashtbl.find_opt sg.by_name name with
  | None -> ()
  | Some sym ->
      (match sym with
      | Sym_typ a -> Hashtbl.remove sg.typs a
      | Sym_srt s ->
          (* drop every sort assignment into the retracted family: its
             constants are exactly the family's [s_consts] *)
          (match Hashtbl.find_opt sg.srts s with
          | Some se ->
              List.iter
                (fun c ->
                  Hashtbl.remove sg.csorts (c, s);
                  match Hashtbl.find_opt sg.consts c with
                  | Some ce ->
                      ce.c_sorts <- List.filter (fun f -> f <> s) ce.c_sorts
                  | None -> ())
                se.s_consts
          | None -> ());
          Hashtbl.remove sg.srts s
      | Sym_const c ->
          (match Hashtbl.find_opt sg.consts c with
          | Some ce ->
              (match Hashtbl.find_opt sg.typs ce.c_family with
              | Some te ->
                  te.t_consts <- List.filter (fun id -> id <> c) te.t_consts
              | None -> ());
              (* the constant's sort assignments, in any family *)
              List.iter
                (fun f ->
                  Hashtbl.remove sg.csorts (c, f);
                  match Hashtbl.find_opt sg.srts f with
                  | Some se ->
                      se.s_consts <- List.filter (fun id -> id <> c) se.s_consts
                  | None -> ())
                ce.c_sorts
          | None -> ());
          Hashtbl.remove sg.consts c
      | Sym_schema g -> Hashtbl.remove sg.schemas g
      | Sym_sschema h -> Hashtbl.remove sg.sschemas h
      | Sym_rec r -> Hashtbl.remove sg.recs r
      | Sym_block b -> Hashtbl.remove sg.blocks b
      | Sym_worlds f -> Hashtbl.remove sg.worlds f
      | Sym_mode f -> Hashtbl.remove sg.modes f);
      Hashtbl.remove sg.by_name name);
  Hashtbl.remove sg.poisoned name;
  Hashtbl.remove sg.locs name

(** Retract a declaration's worth of names (see {!retract_name}). *)
let retract_names sg names = List.iter (retract_name sg) names

(* --- lookup ---------------------------------------------------------- *)

let fail_unknown what id = Error.violation "unknown %s id %d" what id

let typ_entry sg id =
  match Hashtbl.find_opt sg.typs id with Some e -> e | None -> fail_unknown "type" id

let srt_entry sg id =
  match Hashtbl.find_opt sg.srts id with Some e -> e | None -> fail_unknown "sort" id

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

(** The sort assigned to constant [c] in sort family [s], if any. *)
let csort sg ~const ~family : (Lf.srt * int) option =
  Hashtbl.find_opt sg.csorts (const, family)

let block_entry sg id =
  match Hashtbl.find_opt sg.blocks id with
  | Some e -> e
  | None -> fail_unknown "block" id

(** The declared worlds of a family, if any. *)
let worlds_of sg (fam : Lf.cid_typ) : worlds_entry option =
  Hashtbl.find_opt sg.worlds fam

(** All declared computation-level functions (unordered). *)
let all_recs sg : (Lf.cid_rec * rec_entry) list =
  Hashtbl.fold (fun id e acc -> (id, e) :: acc) sg.recs []

let all_blocks sg : (int * block_entry) list =
  Hashtbl.fold (fun id e acc -> (id, e) :: acc) sg.blocks []

let all_worlds sg : worlds_entry list =
  Hashtbl.fold (fun _ e acc -> e :: acc) sg.worlds []

(** The declared mode of a family (resolved through [s_refines] for sort
    families at declaration time), if any. *)
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

(** Every recorded sort assignment
    [(constant, sort family) → (sort, implicits)] (unordered). *)
let all_csorts sg : ((Lf.cid_const * Lf.cid_srt) * (Lf.srt * int)) list =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) sg.csorts []

(** Is this refinement-schema entry the auto-registered trivial refinement
    (hidden from user-facing summaries)? *)
let is_hidden_sschema (e : sschema_entry) = e.h_hidden

(* --- summary ---------------------------------------------------------- *)

(** Declaration counts by kind, as user-facing tooling reports them:
    [n_sschemas] counts only user-declared refinement schemas, not the
    trivial [⌈G⌉] auto-registered per schema. *)
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

(** Constructors of a type family, in declaration order. *)
let constants_of_typ sg a = (typ_entry sg a).t_consts

(** Constants carrying a sort in family [s], in declaration order. *)
let constants_of_srt sg s = (srt_entry sg s).s_consts

(** The trivial refinement [⌈G⌉] of a declared schema (every world
    embedded); used for promotion [Ψ⊤]. *)
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
