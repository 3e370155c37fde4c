(** The hash-consing term store.

    Every LF(R) node of the five interned syntactic categories —
    {!head}, {!normal}, {!sub}, {!typ}, {!srt} — is built through a smart
    constructor ([mk_*]) that interns it into a weak arena: two
    structurally α-equal nodes (binder {!Belr_support.Name.t} hints are
    printing-only and ignored) constructed in the same store state are
    the {e same} OCaml value.  The node types are [private], so pattern
    matching everywhere in the kernel is unchanged while construction is
    compiler-forced through this interface.

    Alongside the arena, each interned node carries metadata (held in a
    weak-key side table, so dead terms cost nothing):

    - a {e unique id} (monotone, never reused — the memo key for
      hereditary substitution in [Belr_lf.Hsub]);
    - its precomputed structural {e hash};
    - a {e max-free-index} bound [mfi]: the largest free de Bruijn index
      possibly occurring in the node, [0] for closed terms, and
      {!mfi_infinity} when the node contains a delayed [Shift]-rooted
      substitution (whose composition under an outer substitution can
      change, so no bound is sound).

    The [mfi] bound powers the substitution fast paths: shifting below a
    cutoff that dominates the bound, or substituting into a closed term,
    returns the input with no traversal.

    Smart constructors also normalize substitutions: {!mk_dot} collapses
    [Dot (Obj xₙ, Shift n)] to [Shift (n-1)] (so [Dot (Obj x₁, Shift 1)]
    is [id]), keeping identity substitutions syntactically canonical.

    Physical equality is {e sound} for every pair of nodes, but complete
    only for nodes interned in the same state since its last
    {!store_clear}: a term that outlives a clear is not re-interned, so
    [Equal] keeps its deep structural fallback. *)

open Belr_support

(** Identifiers into the global signature (see {!Belr_lf.Sign}). *)
type cid_typ = int
(** Atomic type family [a]. *)

type cid_srt = int
(** Atomic sort family [s ⊑ a]. *)

type cid_const = int
(** Term-level constant [c]. *)

type cid_schema = int
(** Type-level context schema [G]. *)

type cid_sschema = int
(** Refinement (sort-level) context schema [H ⊑ G]. *)

type cid_rec = int
(** Computation-level (recursive) function. *)

(** Heads of neutral terms.

    [Proj] bases are restricted to [BVar] and [PVar] by the checker.
    [MVar (u, σ)] is a contextual meta-variable under a delayed
    substitution; [PVar (p, σ)] is a parameter variable standing for a
    block declared in a context variable.  Both indices point into the
    meta-context [Ω]. *)
type head = private
  | Const of cid_const
  | BVar of int
  | PVar of int * sub
  | Proj of head * int  (** [h.k], 1-based projection out of a block *)
  | MVar of int * sub

and normal = private
  | Lam of Name.t * normal
  | Root of head * spine

and spine = normal list

(** Substitution entries.  [Tup] replaces a block variable with an n-ary
    tuple of terms, resolving projections hereditarily; [Undef] only
    appears inside the unifier.  Fronts are thin wrappers over interned
    normals and are not interned themselves. *)
and front = Obj of normal | Tup of tuple | Undef

and tuple = normal list

(** Simultaneous substitutions.

    - [Empty] is the paper's [·]: it weakens a closed object into an
      arbitrary context.
    - [Shift n] maps index [i] to [i + n]; [Shift 0] is the identity.
    - [Dot (f, σ)] sends index 1 to [f] and the rest through [σ]. *)
and sub = private Empty | Shift of int | Dot of front * sub

(** Canonical type families [A ::= P | Πx:A₁.A₂]. *)
type typ = private Atom of cid_typ * spine | Pi of Name.t * typ * typ

(** Kinds [K ::= type | Πx:A.K] (not interned: signature-cardinality). *)
type kind = Ktype | Kpi of Name.t * typ * kind

(** Canonical sort families [S ::= Q | Πx:S₁.S₂]; [SEmbed (a, sp)] is the
    explicit embedding [⌊a · sp⌋]. *)
type srt = private
  | SAtom of cid_srt * spine
  | SEmbed of cid_typ * spine
  | SPi of Name.t * srt * srt

(** Refinement kinds [L ::= sort | Πx:S.L] (not interned). *)
type skind = Ksort | Kspi of Name.t * srt * skind

(* --- smart constructors --------------------------------------------- *)

val mk_const : cid_const -> head

val mk_bvar : int -> head

val mk_pvar : int -> sub -> head

val mk_proj : head -> int -> head

val mk_mvar : int -> sub -> head

val mk_lam : Name.t -> normal -> normal

val mk_root : head -> spine -> normal

val mk_empty : sub

val mk_shift : int -> sub

val mk_dot : front -> sub -> sub
(** Normalizing: [mk_dot (Obj xₙ) (Shift n) = Shift (n-1)] when [xₙ] is
    the η-short variable [Root (BVar n, \[\])]. *)

val mk_atom : cid_typ -> spine -> typ

val mk_pi : Name.t -> typ -> typ -> typ

val mk_satom : cid_srt -> spine -> srt

val mk_sembed : cid_typ -> spine -> srt

val mk_spi : Name.t -> srt -> srt -> srt

(* --- store states (session isolation) --------------------------------- *)

type state
(** A complete store world: the five weak arenas, their metadata tables,
    and the intern/dedup counters.  Exactly one state is {e installed} at
    any time; every [mk_*] constructor and metadata accessor operates on
    it.  The daemon ([belr serve]) gives each session its own state so no
    interned term, metadata entry, or statistic is shared across
    sessions; batch runs never touch this API and live in the boot
    state.

    Unique ids ({!normal_id} etc.) remain process-global and monotone
    across all states — that is what keeps the [Belr_lf.Hsub] memo tables
    sound when states are swapped or cleared. *)

val fresh_state : unit -> state
(** A new empty store world. *)

val use_state : state -> unit
(** Install [state]: subsequent constructions and lookups run in it. *)

val current_state : unit -> state
(** The currently installed state. *)

val with_state : state -> (unit -> 'a) -> 'a
(** [with_state st f] runs [f] with [st] installed, restoring the
    previously installed state afterwards (also on exceptions). *)

(* --- store control ---------------------------------------------------- *)

val store_clear : unit -> unit
(** Drop every arena and metadata entry of the installed state (bench
    isolation, and the serve memory-pressure reset through
    [Belr_lf.Session.drop_caches], which also empties the memo tables).
    Unique ids keep counting up, so memo entries keyed on old ids can
    never be confused with post-clear terms. *)

(* --- metadata accessors ----------------------------------------------- *)

val mfi_infinity : int
(** The "no sound bound" mfi value ([max_int]). *)

val normal_id : normal -> int
(** Unique id of an interned node.  Total: a node with no metadata in
    the installed state (one that outlived a {!store_clear}, or was built
    in another state) is assigned a fresh id (and has its metadata
    computed and cached) on first query. *)

val sub_id : sub -> int

val head_id : head -> int

val typ_id : typ -> int

val srt_id : srt -> int

val mfi_normal : normal -> int
(** Max-free-index bound; [0] means closed (no substitution or shift can
    change the term), {!mfi_infinity} means no sound bound.  Total, like
    {!normal_id}. *)

val mfi_head : head -> int

val mfi_sub : sub -> int

val mfi_typ : typ -> int

val mfi_srt : srt -> int

val mfi_spine : spine -> int

(* --- statistics ------------------------------------------------------- *)

type store_stats = {
  st_live : int;  (** interned nodes currently alive (arena residents) *)
  st_interned : int;  (** nodes ever interned (fresh arena inserts) *)
  st_dedup_hits : int;  (** constructions answered by an existing node *)
}

val store_stats : unit -> store_stats

val dedup_ratio : unit -> float
(** [(interned + dedup_hits) / interned]: mean number of constructions
    sharing one arena node; [1.0] = no sharing observed, [nan]-free
    ([0.0] before any interning). *)
