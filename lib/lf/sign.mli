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
}
(** A [%worlds (b₁ | … | bₙ) fam] declaration: contexts at uses of [fam]
    may only extend by instances of the listed blocks.  Where it stands
    is {!decl_loc} of [fam ^ "%worlds"]. *)

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
}
(** A [%mode fam +M … -N] declaration: input ([+]) positions must be
    ground for the judgment to be invoked, output ([-]) positions are
    ground when it succeeds.  Where it stands is {!mode_loc}. *)

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

(** A signature: the tables above, the shared namespace, the declaration
    spans, and the incremental server's retire-pass state. *)
type t

val create : unit -> t

(** {1 Names} *)

(** Bind [name], rejecting a duplicate.  Every [add_*] binds before it
    creates its entry, so a rejected duplicate leaves no entry behind
    (none that retraction, which goes by name, could reach). *)
val bind_name : t -> string -> sym -> unit

(** Mark [name] as declared by a failed declaration (fault-tolerant
    checking); subsequent lookups raise {!Error.Depends_on_failed}. *)
val poison : t -> string -> unit

val is_poisoned : t -> string -> bool

val lookup_name : t -> string -> sym option

(** Like {!lookup_name}, but poison-blind: tooling that inspects the
    signature (the incremental invalidation pass of [belr serve]) needs
    to see failed declarations too, without raising. *)
val sym_opt : t -> string -> sym option

(** Record where [name] was declared.  Ghost spans are not recorded, so a
    later real span (e.g. a per-constructor location refining the whole
    declaration's) can still land. *)
val set_decl_loc : t -> string -> Loc.t -> unit

val decl_loc : t -> string -> Loc.t option

(** Where a [%mode] declaration stands: the {!decl_loc} of the synthetic
    name it is bound under. *)
val mode_loc : t -> mode_entry -> Loc.t option

(** {1 Declaration}

    Every [add_*] below binds [name] to the id of the entry a retire pass
    retired under it when the new payload is α-equal to that entry's
    ({!retire}); otherwise, and always outside a pass, to a fresh id.  The
    name is bound first, so a rejected duplicate reclaims nothing. *)

val add_typ : t -> name:string -> kind:Lf.kind -> implicit:int -> Lf.cid_typ

val add_srt :
  t ->
  name:string ->
  refines:Lf.cid_typ ->
  skind:Lf.skind ->
  implicit:int ->
  Lf.cid_srt

val add_const : t -> name:string -> typ:Lf.typ -> implicit:int -> Lf.cid_const

(** Record the sort assignment [c :: S] where [S]'s target is the sort
    family [s]; used when an [LFR s ⊑ a] declaration lists [c]. *)
val add_csort : t -> const:Lf.cid_const -> srt:Lf.srt -> implicit:int -> unit

val add_schema : t -> name:string -> elems:Ctxs.schema -> Lf.cid_schema

val add_sschema :
  t ->
  name:string ->
  refines:Lf.cid_schema ->
  elems:Ctxs.selem list ->
  Lf.cid_sschema

val add_rec :
  t -> name:string -> styp:Comp.ctyp -> typ:Comp.ctyp_t -> Lf.cid_rec

(** Declare a [%block].  Fields are at the sort level (see
    {!type-block_entry}); the name lives in the shared namespace. *)
val add_block :
  t ->
  name:string ->
  params:(Name.t * Lf.srt) list ->
  fields:Ctxs.sblock ->
  int

(** Declare the [%worlds] of family [fam] — at most one per family,
    enforced through the synthetic name binding [fam ^ "%worlds"] (the
    ["%"] cannot occur in a surface identifier, so no collision with user
    declarations is possible). *)
val add_worlds :
  t -> fam:Lf.cid_typ -> fam_name:string -> blocks:int list -> unit

(** Declare the [%mode] of a family — at most one per resolved family,
    enforced through the synthetic name binding [fam ^ "%mode"] exactly
    like {!add_worlds}.  [name] is the surface name the declaration used
    (a sort family keeps its own name even though it keys under its
    refined type family). *)
val add_mode :
  t ->
  fam:Lf.cid_typ ->
  srt:Lf.cid_srt option ->
  name:string ->
  args:(bool * string) list ->
  unit

val set_rec_body : t -> Lf.cid_rec -> Comp.exp -> unit

(** Record that [ids] (in declaration order) form one [rec … and …;]
    group; every member gets the full list. *)
val set_rec_group : t -> Lf.cid_rec list -> unit

(** The mutual-recursion group of [id], defaulting to the singleton for
    functions declared alone (or predating group tracking). *)
val rec_group : t -> Lf.cid_rec -> Lf.cid_rec list

(** {1 Retirement (incremental re-checking)} *)

(** Start or extend a retire pass over a declaration's names: unbind each
    one, clear its poison mark and span, and hide its entry — keeping the
    links refinement declarations wrote into it ([c_sorts], [csorts]).
    During the pass an [add_*] of a retired name with an α-equal payload
    takes the old id back, so an entry that mentions the name reads
    exactly what it read before.  Ids are otherwise never reused ([fresh]
    keeps counting), so a reused id always denotes an α-equal entry and
    every memo key over ids stays sound.  {!restore} puts back the names
    of a declaration that need not re-check, and {!settle} ends the pass. *)
val retire : t -> string list -> unit

(** Can a declaration binding [names] be put back as it was?  Only if no
    other declaration bound or poisoned any of them since the pass
    retired them, nor took the family slot of its [%worlds] or [%mode]
    (a sort family's declaration keys under the refined family). *)
val restorable : t -> string list -> bool

(** Put back the retired entries of [names], exactly as they were. *)
val restore : t -> string list -> unit

(** Does an entry mentioning [name] need to re-check in this pass?  Yes
    when the name is retired and not (yet) back under its old id (removed,
    re-bound to a new id, or declared later), was bound to a new id by the
    pass, is poisoned, or is a world some retired or newly added
    (refinement) schema provides — or once a re-bound sort family changed
    its assignments.
    Call it only between declarations: it settles the pending sort
    comparisons of the ones before. *)
val changed : t -> string -> bool

(** End a retire pass: retract what is still retired — drop its entry
    and scrub the links into it — keeping poison marks set during the
    pass. *)
val settle : t -> unit

(** Record the source position of the declaration binding [name].  The
    incremental server ranks schemas and functions: their ids stop
    following the source once it re-checks some of them, and world
    lookup and the modes analysis read their source order. *)
val set_rank : t -> string -> int -> unit

(** [(id, entry)] pairs in source order: by recorded rank, then by id
    (which follows the source in a batch check, where no rank is
    recorded). *)
val in_source_order : t -> ('a -> string) -> (int * 'a) list -> (int * 'a) list

(** {1 Lookup}

    The [*_entry] functions fail with an internal violation on an id the
    signature does not hold. *)

val typ_entry : t -> Lf.cid_typ -> typ_entry

val srt_entry : t -> Lf.cid_srt -> srt_entry

val const_entry : t -> Lf.cid_const -> const_entry

val schema_entry : t -> Lf.cid_schema -> schema_entry

val sschema_entry : t -> Lf.cid_sschema -> sschema_entry

val rec_entry : t -> Lf.cid_rec -> rec_entry

val rec_entry_opt : t -> Lf.cid_rec -> rec_entry option

(** The sort assigned to constant [c] in sort family [s], if any. *)
val csort : t -> const:Lf.cid_const -> family:Lf.cid_srt -> (Lf.srt * int) option

val block_entry : t -> int -> block_entry

(** The declared worlds of a family, if any. *)
val worlds_of : t -> Lf.cid_typ -> worlds_entry option

(** All declared computation-level functions (unordered). *)
val all_recs : t -> (Lf.cid_rec * rec_entry) list

val all_blocks : t -> (int * block_entry) list

val all_worlds : t -> worlds_entry list

(** The declared mode of a family (resolved through [s_refines] for sort
    families at declaration time), if any. *)
val mode_of : t -> Lf.cid_typ -> mode_entry option

val all_modes : t -> mode_entry list

val all_typs : t -> (Lf.cid_typ * typ_entry) list

val all_srts : t -> (Lf.cid_srt * srt_entry) list

val all_consts : t -> (Lf.cid_const * const_entry) list

val all_schemas : t -> (Lf.cid_schema * schema_entry) list

val all_sschemas : t -> (Lf.cid_sschema * sschema_entry) list

(** Every recorded sort assignment
    [(constant, sort family) → (sort, implicits)] (unordered). *)
val all_csorts : t -> ((Lf.cid_const * Lf.cid_srt) * (Lf.srt * int)) list

(** Is this refinement-schema entry the auto-registered trivial refinement
    (hidden from user-facing summaries)? *)
val is_hidden_sschema : sschema_entry -> bool

(** {1 Summary} *)

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

val summary : t -> summary

(** Constructors of a type family, in declaration order. *)
val constants_of_typ : t -> Lf.cid_typ -> Lf.cid_const list

(** Constants carrying a sort in family [s], in declaration order. *)
val constants_of_srt : t -> Lf.cid_srt -> Lf.cid_const list

(** The trivial refinement [⌈G⌉] of a declared schema (every world
    embedded); used for promotion [Ψ⊤]. *)
val embed_schema : t -> Lf.cid_schema -> Ctxs.sschema

val pp_env : t -> Pp.env
