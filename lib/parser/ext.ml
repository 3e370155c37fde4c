(** External (surface) abstract syntax, produced by {!Parse} and consumed
    by {!Elab}.  Everything carries locations for error reporting. *)

open Belr_support

(** LF-level terms, types, sorts, and kinds share one syntax; the
    elaborator sorts them out from context. *)
type term =
  | Ident of Loc.t * string
  | TypeKw of Loc.t  (** the kind [type] *)
  | SortKw of Loc.t  (** the refinement kind [sort] *)
  | App of term * term
  | Arrow of term * term  (** [a -> b], right-associative *)
  | Pi of Loc.t * string * term * term  (** [{x : A} B] *)
  | Lam of Loc.t * string * term  (** [\x. M] *)
  | Hash of Loc.t * string  (** [#b], a parameter variable *)
  | Proj of Loc.t * term * int  (** [t.k] *)
  | Sub of Loc.t * term * esub  (** [M\[σ\]] *)

(** Substitutions [\[.., f₁, …, fₖ\]]; [es_dots] records whether the
    identity prefix [..] is present (it must be, unless the domain is
    closed). *)
and esub = { es_dots : bool; es_fronts : efront list }

and efront =
  | Fterm of term
  | Ftuple of Loc.t * term list  (** [<t₁; …; tₙ>], replacing a block *)

(** Context entry classifiers. *)
type eclass =
  | Cworld of Loc.t * string * term list  (** [b : xeW M₁ … Mₙ] *)
  | Cblock of Loc.t * (string * term) list  (** [b : block (x:t, …)] *)
  | Cterm of term  (** [x : A] *)

type ectx_entry = { ce_name : string; ce_class : eclass }

(** Contexts [Ψ], possibly rooted at a (promoted) context variable. *)
type ectx = {
  ec_loc : Loc.t;
  ec_var : (string * bool) option;  (** (name, promoted?) *)
  ec_entries : ectx_entry list;  (** outermost first, as written *)
}

(** Computation-level sorts. *)
type csort =
  | SBox of Loc.t * ectx * term  (** [\[Ψ ⊢ S\]] *)
  | SArr of csort * csort
  | SPi of Loc.t * string * bool * cdom * csort
      (** [{X : dom} ζ]; the [bool] marks surface [(X : dom)] (implicit
          style — still explicit internally in this front end) *)

and cdom =
  | DSchema of Loc.t * string  (** a schema name *)
  | DBox of Loc.t * ectx * term  (** a boxed sort *)
  | DParam of Loc.t * ectx * string * term list
      (** [#\[Ψ ⊢ w M₁…\]], a parameter-variable domain *)

(** Computation-level expressions. *)
type cexp =
  | EIdent of Loc.t * string
  | EApp of Loc.t * cexp * cexp
  | EFn of Loc.t * string * cexp
  | EMlam of Loc.t * string * cexp
  | ECase of Loc.t * cexp * branch list
  | ELetBox of Loc.t * string * cexp * cexp
  | EBox of Loc.t * ectx * term  (** [\[Ψ ⊢ M\]] *)
  | ECtx of Loc.t * ectx  (** [\[Ψ\]] — a context argument *)

and branch = {
  b_loc : Loc.t;
  b_decls : (Loc.t * string * cdom) list;  (** [{X : dom}] prefix, outermost first *)
  b_ctx : ectx;
  b_pat : term;
  b_body : cexp;
}

(** Top-level declarations. *)
type ctor = { k_loc : Loc.t; k_name : string; k_typ : term }

type world = {
  w_loc : Loc.t;
  w_name : string;
  w_params : (string * term) list;
  w_fields : (string * term) list;
}

type typ_decl = {
  d_loc : Loc.t;
  d_name : string;
  d_refines : string option;  (** [LFR s <| a : …] *)
  d_kind : term;
  d_ctors : ctor list;
}

type decl =
  | Dtyp of typ_decl
  | Dmutual of typ_decl list
      (** [LFR s₁ <| a : … = … and s₂ <| a : … = …;] — mutually recursive
          (refinement) families: all families are declared before any
          constructor is processed *)
  | Dschema of {
      s_loc : Loc.t;
      s_name : string;
      s_refines : string option;
      s_worlds : world list;
    }
  | Drec of rec_def list
      (** [rec f : ζ = e;] — the list has one element per member of a
          [rec … and …;] mutual-recursion group (usually a singleton);
          all headers are declared before any body is processed *)
  | Dblock of { bl_loc : Loc.t; bl_world : world }
      (** [%block b = {x:A}* block (y:t, …);] — a named context block for
          [%worlds] declarations (Twelf-style regular worlds) *)
  | Dworlds of {
      ws_loc : Loc.t;
      ws_blocks : (Loc.t * string) list;  (** [(b₁ | … | bₙ)] *)
      ws_fams : (Loc.t * string) list;  (** the families so bounded *)
    }
      (** [%worlds (b₁ | … | bₙ) fam₁ … famₖ;] — declares the regular
          worlds of each family: contexts appearing at its uses may only
          extend by instances of the listed blocks *)
  | Dmode of {
      md_loc : Loc.t;
      md_fam : Loc.t * string;  (** the moded (type or sort) family *)
      md_args : (Loc.t * bool * string) list;
          (** one [(+|-) name] per explicit argument position, in order;
              [true] marks an input ([+]) position *)
    }
      (** [%mode fam +M … -N;] — declares the mode of a judgment family:
          [+] positions are inputs, [-] positions outputs (Twelf-style) *)

and rec_def = { r_loc : Loc.t; r_name : string; r_sort : csort; r_body : cexp }

type program = decl list

(** The location anchoring a whole declaration (for diagnostics whose
    exception carries no span of its own). *)
let decl_loc : decl -> Loc.t = function
  | Dtyp d -> d.d_loc
  | Dmutual (d :: _) -> d.d_loc
  | Dmutual [] -> Loc.ghost
  | Dschema { s_loc; _ } -> s_loc
  | Drec (d :: _) -> d.r_loc
  | Drec [] -> Loc.ghost
  | Dblock { bl_loc; _ } -> bl_loc
  | Dworlds { ws_loc; _ } -> ws_loc
  | Dmode { md_loc; _ } -> md_loc

let typ_decl_names (d : typ_decl) : string list =
  (* a refinement's "constructors" name existing constants of the refined
     family — those belong to an earlier declaration and must not be
     poisoned when this one fails *)
  d.d_name
  ::
  (if d.d_refines = None then List.map (fun c -> c.k_name) d.d_ctors else [])

(** The synthetic signature name binding the [%worlds] declaration of
    family [fam].  The ["%"] cannot occur in a surface identifier, so the
    name can never collide with (or shadow) a user declaration — and
    [Sign.bind_name]'s duplicate rejection enforces one [%worlds] per
    family for free. *)
let worlds_name (fam : string) : string = fam ^ "%worlds"

(** The synthetic signature name binding the [%mode] declaration of
    family [fam] (same discipline as {!worlds_name}: one [%mode] per
    family, enforced by [Sign.bind_name]'s duplicate rejection). *)
let mode_name (fam : string) : string = fam ^ "%mode"

(** Every name a declaration would bind in the signature — the set to
    poison when the declaration fails to check.  A schema also auto-binds
    its trivial refinement under [name ^ "^"]. *)
let declared_names : decl -> string list = function
  | Dtyp d -> typ_decl_names d
  | Dmutual ds -> List.concat_map typ_decl_names ds
  | Dschema { s_name; _ } -> [ s_name; s_name ^ "^" ]
  | Drec ds -> List.map (fun d -> d.r_name) ds
  | Dblock { bl_world; _ } -> [ bl_world.w_name ]
  | Dworlds { ws_fams; _ } ->
      List.map (fun (_, f) -> worlds_name f) ws_fams
  | Dmode { md_fam = _, f; _ } -> [ mode_name f ]

(** The names of the worlds (schema elements) a declaration introduces.
    They are not signature names — elaboration finds a world by scanning
    the schemas — but a declaration mentioning one depends on the schema
    that provides it. *)
let world_names : decl -> string list = function
  | Dschema { s_worlds; _ } -> List.map (fun w -> w.w_name) s_worlds
  | _ -> []

(* --- surface name references (incremental invalidation) ---------------- *)

(** Every identifier a declaration {e mentions}, straight off the surface
    syntax: term/sort identifiers, parameter variables, world names,
    refined family and schema names, expression identifiers.  A sound
    over-approximation of the signature names it depends on — binders are
    not tracked, so a shadowed global counts as referenced; the
    incremental checker then merely re-checks more than strictly needed,
    never less.  Returned sorted and deduplicated. *)
let referenced_names (d : decl) : string list =
  let acc = ref [] in
  let add n = acc := n :: !acc in
  let rec term = function
    | Ident (_, x) -> add x
    | TypeKw _ | SortKw _ -> ()
    | App (t1, t2) | Arrow (t1, t2) -> term t1; term t2
    | Pi (_, _, t1, t2) -> term t1; term t2
    | Lam (_, _, t) -> term t
    | Hash (_, x) -> add x
    | Proj (_, t, _) -> term t
    | Sub (_, t, es) ->
        term t;
        List.iter
          (function
            | Fterm t -> term t
            | Ftuple (_, ts) -> List.iter term ts)
          es.es_fronts
  in
  let ectx (c : ectx) =
    (match c.ec_var with Some (x, _) -> add x | None -> ());
    List.iter
      (fun e ->
        match e.ce_class with
        | Cworld (_, w, ts) -> add w; List.iter term ts
        | Cblock (_, fields) -> List.iter (fun (_, t) -> term t) fields
        | Cterm t -> term t)
      c.ec_entries
  in
  let rec csort = function
    | SBox (_, c, t) -> ectx c; term t
    | SArr (z1, z2) -> csort z1; csort z2
    | SPi (_, _, _, dom, z) -> cdom dom; csort z
  and cdom = function
    | DSchema (_, g) -> add g
    | DBox (_, c, t) -> ectx c; term t
    | DParam (_, c, w, ts) -> ectx c; add w; List.iter term ts
  in
  let rec cexp = function
    | EIdent (_, x) -> add x
    | EApp (_, e1, e2) -> cexp e1; cexp e2
    | EFn (_, _, e) | EMlam (_, _, e) -> cexp e
    | ECase (_, e, bs) ->
        cexp e;
        List.iter
          (fun b ->
            List.iter (fun (_, _, dom) -> cdom dom) b.b_decls;
            ectx b.b_ctx;
            term b.b_pat;
            cexp b.b_body)
          bs
    | ELetBox (_, _, e1, e2) -> cexp e1; cexp e2
    | EBox (_, c, t) -> ectx c; term t
    | ECtx (_, c) -> ectx c
  in
  let typ_decl (td : typ_decl) =
    Option.iter add td.d_refines;
    term td.d_kind;
    List.iter (fun k -> term k.k_typ) td.d_ctors;
    (* a refinement's "constructors" name existing constants *)
    if td.d_refines <> None then
      List.iter (fun k -> add k.k_name) td.d_ctors
  in
  (match d with
  | Dtyp td -> typ_decl td
  | Dmutual tds -> List.iter typ_decl tds
  | Dschema { s_refines; s_worlds; _ } ->
      Option.iter add s_refines;
      List.iter
        (fun w ->
          List.iter (fun (_, t) -> term t) w.w_params;
          List.iter (fun (_, t) -> term t) w.w_fields)
        s_worlds
  | Drec ds ->
      List.iter
        (fun rd ->
          csort rd.r_sort;
          cexp rd.r_body)
        ds
  | Dblock { bl_world = w; _ } ->
      List.iter (fun (_, t) -> term t) w.w_params;
      List.iter (fun (_, t) -> term t) w.w_fields
  | Dworlds { ws_blocks; ws_fams; _ } ->
      List.iter (fun (_, b) -> add b) ws_blocks;
      List.iter (fun (_, f) -> add f) ws_fams
  | Dmode { md_fam = _, f; _ } -> add f);
  List.sort_uniq String.compare !acc

(* --- relocation (incremental reparsing) --------------------------------- *)

(** [l] moved [bytes] bytes and [lines] lines further down its source,
    columns unchanged (a ghost stays put). *)
let shift_loc ~(bytes : int) ~(lines : int) (l : Loc.t) : Loc.t =
  let pos (p : Loc.pos) =
    { p with Loc.offset = p.Loc.offset + bytes; Loc.line = p.Loc.line + lines }
  in
  if Loc.is_ghost l || (bytes = 0 && lines = 0) then l
  else
    { l with Loc.start_pos = pos l.Loc.start_pos; end_pos = pos l.Loc.end_pos }

(** [d] moved [bytes] bytes and [lines] lines further down its source:
    every location in it shifted ({!shift_loc}).  Exact for a
    declaration whose text, from the start of its first line, moved as a
    whole — the position a full reparse would give it. *)
let shift_decl ~(bytes : int) ~(lines : int) (d : decl) : decl =
  let loc = shift_loc ~bytes ~lines in
  let rec term = function
    | Ident (l, x) -> Ident (loc l, x)
    | TypeKw l -> TypeKw (loc l)
    | SortKw l -> SortKw (loc l)
    | App (t1, t2) -> App (term t1, term t2)
    | Arrow (t1, t2) -> Arrow (term t1, term t2)
    | Pi (l, x, t1, t2) -> Pi (loc l, x, term t1, term t2)
    | Lam (l, x, t) -> Lam (loc l, x, term t)
    | Hash (l, x) -> Hash (loc l, x)
    | Proj (l, t, k) -> Proj (loc l, term t, k)
    | Sub (l, t, es) ->
        Sub
          ( loc l,
            term t,
            {
              es with
              es_fronts =
                List.map
                  (function
                    | Fterm t -> Fterm (term t)
                    | Ftuple (l, ts) -> Ftuple (loc l, List.map term ts))
                  es.es_fronts;
            } )
  in
  let named (x, t) = (x, term t) in
  let ectx (c : ectx) =
    {
      c with
      ec_loc = loc c.ec_loc;
      ec_entries =
        List.map
          (fun e ->
            {
              e with
              ce_class =
                (match e.ce_class with
                | Cworld (l, w, ts) -> Cworld (loc l, w, List.map term ts)
                | Cblock (l, fields) -> Cblock (loc l, List.map named fields)
                | Cterm t -> Cterm (term t));
            })
          c.ec_entries;
    }
  in
  let rec csort = function
    | SBox (l, c, t) -> SBox (loc l, ectx c, term t)
    | SArr (z1, z2) -> SArr (csort z1, csort z2)
    | SPi (l, x, b, dom, z) -> SPi (loc l, x, b, cdom dom, csort z)
  and cdom = function
    | DSchema (l, g) -> DSchema (loc l, g)
    | DBox (l, c, t) -> DBox (loc l, ectx c, term t)
    | DParam (l, c, w, ts) -> DParam (loc l, ectx c, w, List.map term ts)
  in
  let rec cexp = function
    | EIdent (l, x) -> EIdent (loc l, x)
    | EApp (l, e1, e2) -> EApp (loc l, cexp e1, cexp e2)
    | EFn (l, x, e) -> EFn (loc l, x, cexp e)
    | EMlam (l, x, e) -> EMlam (loc l, x, cexp e)
    | ECase (l, e, bs) ->
        ECase
          ( loc l,
            cexp e,
            List.map
              (fun b ->
                {
                  b_loc = loc b.b_loc;
                  b_decls =
                    List.map
                      (fun (l, x, dom) -> (loc l, x, cdom dom))
                      b.b_decls;
                  b_ctx = ectx b.b_ctx;
                  b_pat = term b.b_pat;
                  b_body = cexp b.b_body;
                })
              bs )
    | ELetBox (l, x, e1, e2) -> ELetBox (loc l, x, cexp e1, cexp e2)
    | EBox (l, c, t) -> EBox (loc l, ectx c, term t)
    | ECtx (l, c) -> ECtx (loc l, ectx c)
  in
  let world (w : world) =
    {
      w with
      w_loc = loc w.w_loc;
      w_params = List.map named w.w_params;
      w_fields = List.map named w.w_fields;
    }
  in
  let typ_decl (td : typ_decl) =
    {
      td with
      d_loc = loc td.d_loc;
      d_kind = term td.d_kind;
      d_ctors =
        List.map
          (fun k -> { k with k_loc = loc k.k_loc; k_typ = term k.k_typ })
          td.d_ctors;
    }
  in
  let located (l, x) = (loc l, x) in
  if bytes = 0 && lines = 0 then d
  else
    match d with
    | Dtyp td -> Dtyp (typ_decl td)
    | Dmutual tds -> Dmutual (List.map typ_decl tds)
    | Dschema s ->
        Dschema
          { s with s_loc = loc s.s_loc; s_worlds = List.map world s.s_worlds }
    | Drec ds ->
        Drec
          (List.map
             (fun rd ->
               {
                 rd with
                 r_loc = loc rd.r_loc;
                 r_sort = csort rd.r_sort;
                 r_body = cexp rd.r_body;
               })
             ds)
    | Dblock b ->
        Dblock { bl_loc = loc b.bl_loc; bl_world = world b.bl_world }
    | Dworlds w ->
        Dworlds
          {
            ws_loc = loc w.ws_loc;
            ws_blocks = List.map located w.ws_blocks;
            ws_fams = List.map located w.ws_fams;
          }
    | Dmode m ->
        Dmode
          {
            md_loc = loc m.md_loc;
            md_fam = located m.md_fam;
            md_args = List.map (fun (l, b, x) -> (loc l, b, x)) m.md_args;
          }
