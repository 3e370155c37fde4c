(** Regular-worlds checking (Twelf-style [%block] / [%worlds]
    declarations; DESIGN.md §S25).

    A [%worlds (b₁ | … | bₙ) fam;] declaration bounds the contexts at
    which LF family [fam] may be used: every context is built from the
    empty context by adding instances of the declared blocks.  The
    checker verifies the bound per declared function, distinguishing
    {e where a context is used} from {e where it flows}:

    - a context written at a box [\[Ψ ⊢ S\]] hosts exactly the family of
      [S] — its added telescope is checked against that family's worlds;
    - a context {e passed} at a call site (a context argument), and the
      elements of every schema the function's context variables range
      over, reach every family any transitively-called function boxes —
      those telescopes are checked against the worlds of each such
      family, with the call path as witness.

    Subsumption of a telescope by a world is {e tiling}: the telescope,
    restricted to the fields that matter to [fam], must decompose as a
    concatenation of declared block instances (likewise restricted).
    Two quotients apply before comparing:

    - {e refinement subsorting}: fields are erased to type-level
      skeletons ([SAtom q ↦ Atom (q ⊑ a)], [SEmbed a ↦ Atom a]), so a
      block declared over types covers any refinement of the same
      underlying shape;
    - {e subordination strengthening} ({!Subord.leq}): fields whose
      target family cannot occur in [fam]-terms are dropped from both
      sides.  Dropping interior fields is sound because the relation is
      transitively closed: a relevant field cannot depend on an
      irrelevant one (if [u] occurred in relevant [t], then
      [u ≤ tgt(t) ≤ fam] would make [u] relevant too).

    Diagnostics (through the {!Belr_support.Diagnostics} registry):

    - [E0720] (error): a context telescope not tiled by the declared
      worlds of a family it reaches, with the appeal path as witness;
    - [W0721] (warning): a context telescope reaches a family that has
      no [%worlds] declaration at all;
    - [W0722] (warning): a non-strict pattern meta-variable
      ({!Strict}) — the branch's coverage verdict rests on a heuristic.

    Each phase runs under a [worlds:<pass>] telemetry span; the report
    follows the [belr-worlds/1] schema (validated by
    [tools/validate_json.ml] under the [@analyses] alias). *)

open Belr_support
open Belr_syntax
module Sign = Belr_lf.Sign

let c_exts = Telemetry.counter "worlds.extensions"
let c_pairs = Telemetry.counter "worlds.checked_pairs"

(* --- erasure ------------------------------------------------------------ *)

(** Erase field sorts to their type-level skeletons: subsumption for
    worlds is up to refinement subsorting, so a sort field and its
    underlying type stand for the same context shape. *)
let erase_fields (sg : Sign.t) (fields : Ctxs.sblock) : Lf.typ list =
  List.map (fun (_, s) -> Sign.erase_srt sg s) fields

(** The type family a sort's target erases to. *)
let fam_of_srt (sg : Sign.t) (s : Lf.srt) : Lf.cid_typ =
  Lf.typ_target (Sign.erase_srt sg s)

(* --- strengthening ------------------------------------------------------ *)

(** The fields of a telescope that matter to [fam]-terms.  A field whose
    target family [b] satisfies [b ⋠ fam] can never occur in a term of
    family [fam], so its presence or absence in the context is invisible
    to [fam].  Relevant fields never depend on dropped ones (see the
    module comment), so filtering keeps the telescope meaningful. *)
let relevant (sub : Subord.t) ~(fam : Lf.cid_typ) (fields : Lf.typ list) :
    Lf.typ list =
  List.filter (fun t -> Subord.leq sub (Lf.typ_target t) fam) fields

(* --- tiling ------------------------------------------------------------- *)

(** Block fields are compared carrying [off], the number of block fields
    that precede them: a field's de Bruijn indices [1..off] (at depth 0)
    refer to those earlier fields, and anything beyond refers to the
    block's parameter telescope ([%block b = {A:tp} block (…)]), since
    blocks are closed otherwise. *)

(** Does the block-side term mention a block parameter? *)
let rec mentions_param ~off d (m : Lf.normal) : bool =
  match m with
  | Lf.Lam (_, n) -> mentions_param ~off (d + 1) n
  | Lf.Root (h, sp) ->
      head_param ~off d h || List.exists (mentions_param ~off d) sp

and head_param ~off d = function
  | Lf.BVar i -> i > d + off
  | Lf.Proj (h, _) -> head_param ~off d h
  | Lf.Const _ | Lf.PVar _ | Lf.MVar _ -> false

(** Does extension field [et] match block field [bt] (at offset [off])?
    Structural, except that a block-side spine argument mentioning a
    block parameter matches any extension-side argument: the tiling
    instantiates the parameter there.  (Twelf unifies instead; accepting
    each parameter occurrence independently is a sound-for-warnings
    approximation that never {e rejects} a Twelf-acceptable tiling.)
    Hash-consing makes structural [=] on the rigid remainder exact. *)
let match_field ~off (bt : Lf.typ) (et : Lf.typ) : bool =
  let arg d (bm : Lf.normal) (em : Lf.normal) =
    mentions_param ~off d bm || bm = em
  in
  let rec typ d (bt : Lf.typ) (et : Lf.typ) =
    match (bt, et) with
    | Lf.Atom (a, sp1), Lf.Atom (b, sp2) ->
        a = b
        && List.length sp1 = List.length sp2
        && List.for_all2 (arg d) sp1 sp2
    | Lf.Pi (_, a1, b1), Lf.Pi (_, a2, b2) ->
        typ d a1 a2 && typ (d + 1) b1 b2
    | _ -> false
  in
  typ 0 bt et

(** Can [tele] be decomposed as a concatenation of the given block field
    lists (each field paired with its original offset in its block)? *)
let tiles ~(blocks : (int * Lf.typ) list list) (tele : Lf.typ list) : bool =
  let arr = Array.of_list tele in
  let n = Array.length arr in
  let memo = Array.make (n + 1) `Unknown in
  let rec go i =
    if i = n then true
    else
      match memo.(i) with
      | `Known b -> b
      | `Unknown ->
          let matches fb =
            let k = List.length fb in
            k > 0 && i + k <= n
            && (let j = ref i in
                List.for_all
                  (fun (off, f) ->
                    let ok = match_field ~off f arr.(!j) in
                    incr j;
                    ok)
                  fb)
            && go (i + k)
          in
          let b = List.exists matches blocks in
          memo.(i) <- `Known b;
          b
  in
  go 0

(* --- context-extension collection --------------------------------------- *)

(** A context telescope, erased to type level, outermost field first.
    [x_desc] renders the source for diagnostics. *)
type ext = { x_desc : string; x_fields : Lf.typ list }

(** What a function exposes to the worlds discipline. *)
type collected = {
  c_direct : (ext * Lf.cid_typ) list;
      (** telescope written at a box, paired with the boxed family *)
  c_flow : ext list;  (** context arguments at calls ([MOCtx]) *)
  c_schema : ext list;  (** elements of referenced context schemas *)
  c_boxed : Lf.cid_typ list;  (** families this function boxes at *)
}

(** The added telescope of a context: every entry beyond the (optional)
    context variable, outermost first, blocks flattened to their
    fields. *)
let telescope (sg : Sign.t) (psi : Ctxs.sctx) : ext option =
  if psi.Ctxs.s_decls = [] then None
  else
    let entries = List.rev psi.Ctxs.s_decls in
    let descs, fieldss =
      List.split
        (List.map
           (function
             | Ctxs.SCDecl (x, s) ->
                 (Name.to_string x, [ Sign.erase_srt sg s ])
             | Ctxs.SCBlock (x, e, _ms) ->
                 ( Printf.sprintf "%s : %s" (Name.to_string x)
                     (Name.to_string e.Ctxs.f_name),
                   erase_fields sg e.Ctxs.f_block ))
           entries)
    in
    Some
      { x_desc = String.concat ", " descs; x_fields = List.concat fieldss }

(** Collect the worlds-relevant shape of one function from its declared
    sort and body. *)
let collect (sg : Sign.t) (re : Sign.rec_entry) : collected =
  let direct = ref [] in
  let flow = ref [] in
  let schema_exts = ref [] in
  let boxed = ref [] in
  let seen_schemas = ref [] in
  let pair psi fam =
    boxed := fam :: !boxed;
    match telescope sg psi with
    | Some x -> direct := (x, fam) :: !direct
    | None -> ()
  in
  let entry_fams (psi : Ctxs.sctx) : Lf.cid_typ list =
    List.concat_map
      (function
        | Ctxs.SCDecl (_, s) -> [ fam_of_srt sg s ]
        | Ctxs.SCBlock (_, e, _) ->
            List.map (fun (_, s) -> fam_of_srt sg s) e.Ctxs.f_block)
      psi.Ctxs.s_decls
  in
  let schema (h : Lf.cid_sschema) =
    if not (List.mem h !seen_schemas) then begin
      seen_schemas := h :: !seen_schemas;
      let he = Sign.sschema_entry sg h in
      List.iter
        (fun (e : Ctxs.selem) ->
          let fields = erase_fields sg e.Ctxs.f_block in
          if fields <> [] then
            schema_exts :=
              {
                x_desc =
                  Printf.sprintf "schema %s element %s" he.Sign.h_name
                    (Name.to_string e.Ctxs.f_name);
                x_fields = fields;
              }
              :: !schema_exts)
        he.Sign.h_elems
    end
  in
  let msrt (ms : Meta.msrt) =
    match ms with
    | Meta.MSTerm (psi, s) -> pair psi (fam_of_srt sg s)
    | Meta.MSSub (psi1, psi2) ->
        (* a substitution's fronts are terms over the range's sorts,
           formed in the domain context *)
        List.iter (pair psi2) (entry_fams psi1);
        List.iter (pair psi1) (entry_fams psi1)
    | Meta.MSCtx h -> schema h
    | Meta.MSParam (psi, e, _ms) ->
        List.iter (pair psi)
          (List.map (fun (_, s) -> fam_of_srt sg s) e.Ctxs.f_block)
  in
  let mdecl (d : Meta.mdecl) =
    match d with
    | Meta.MDTerm (_, psi, s) -> pair psi (fam_of_srt sg s)
    | Meta.MDSub (_, psi1, psi2) ->
        List.iter (pair psi2) (entry_fams psi1);
        List.iter (pair psi1) (entry_fams psi1)
    | Meta.MDCtx (_, h) -> schema h
    | Meta.MDParam (_, psi, e, _ms) ->
        List.iter (pair psi)
          (List.map (fun (_, s) -> fam_of_srt sg s) e.Ctxs.f_block)
  in
  let mobj (mo : Meta.mobj) =
    match mo with
    | Meta.MOCtx psi -> (
        match telescope sg psi with
        | Some x -> flow := x :: !flow
        | None -> ())
    | Meta.MOTerm _ | Meta.MOSub _ | Meta.MOParam _ -> ()
  in
  let rec ctyp = function
    | Comp.CBox ms -> msrt ms
    | Comp.CArr (t1, t2) -> ctyp t1; ctyp t2
    | Comp.CPi (_, _, ms, t) -> msrt ms; ctyp t
  in
  let rec exp = function
    | Comp.Var _ | Comp.RecConst _ -> ()
    | Comp.Box mo -> mobj mo
    | Comp.Fn (_, topt, e) ->
        Option.iter ctyp topt;
        exp e
    | Comp.App (e1, e2) | Comp.LetBox (_, e1, e2) -> exp e1; exp e2
    | Comp.MLam (_, e) -> exp e
    | Comp.MApp (e, mo) -> exp e; mobj mo
    | Comp.Case (inv, scrut, brs) ->
        List.iter mdecl inv.Comp.inv_mctx;
        msrt inv.Comp.inv_msrt;
        ctyp inv.Comp.inv_body;
        exp scrut;
        List.iter
          (fun (b : Comp.branch) ->
            List.iter mdecl b.Comp.br_mctx;
            mobj b.Comp.br_pat;
            exp b.Comp.br_body)
          brs
  in
  ctyp re.Sign.r_styp;
  Option.iter exp re.Sign.r_body;
  {
    c_direct = List.rev !direct;
    c_flow = List.rev !flow;
    c_schema = List.rev !schema_exts;
    c_boxed = List.sort_uniq compare !boxed;
  }

(* --- call reachability -------------------------------------------------- *)

(** Functions reachable from [f] through at least one call edge, each
    with the (minimal) call path [f; …; g] that reaches it.  [f] itself
    appears when it is recursive. *)
let reachable_callees (cg : Callgraph.t) (f : Lf.cid_rec) :
    (Lf.cid_rec * Lf.cid_rec list) list =
  let parent : (Lf.cid_rec, Lf.cid_rec) Hashtbl.t = Hashtbl.create 16 in
  let dist : (Lf.cid_rec, int) Hashtbl.t = Hashtbl.create 16 in
  let queue = Queue.create () in
  List.iter
    (fun (s : Callgraph.site) ->
      let g = s.Callgraph.cs_callee in
      if not (Hashtbl.mem dist g) then begin
        Hashtbl.replace dist g 1;
        Hashtbl.replace parent g f;
        Queue.add g queue
      end)
    (Callgraph.sites_of cg f);
  let out = ref [] in
  while not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    let rec up g acc =
      if g = f && acc <> [] then f :: acc
      else
        match Hashtbl.find_opt parent g with
        | Some p when p <> g -> up p (g :: acc)
        | _ -> g :: acc
    in
    out := (g, up g []) :: !out;
    List.iter
      (fun (s : Callgraph.site) ->
        let h = s.Callgraph.cs_callee in
        if not (Hashtbl.mem dist h) then begin
          Hashtbl.replace dist h (Hashtbl.find dist g + 1);
          Hashtbl.replace parent h g;
          Queue.add h queue
        end)
      (Callgraph.sites_of cg g)
  done;
  List.rev !out

(* --- the check ----------------------------------------------------------- *)

type fn_report = {
  wf_id : Lf.cid_rec;
  wf_name : string;
  wf_exts : int;  (** distinct telescopes collected *)
  wf_fams : int;  (** (telescope, family) pairs checked *)
  wf_violations : int;  (** E0720 findings *)
  wf_undeclared : int;  (** W0721 findings *)
  wf_nonstrict : int;  (** W0722 findings (non-strict pattern variables) *)
}

type result = {
  wr_fns : fn_report list;  (** ascending id (declaration) order *)
  wr_blocks : int;  (** [%block] declarations in the signature *)
  wr_worlds : int;  (** [%worlds] declarations in the signature *)
}

let empty_result = { wr_fns = []; wr_blocks = 0; wr_worlds = 0 }

let rec_loc sg id =
  Option.value ~default:Loc.ghost
    (Sign.decl_loc sg (Sign.rec_entry sg id).Sign.r_name)

(** Run the worlds checker over every declared function, reporting
    through [sink].  [check_strict] additionally runs the
    strict-occurrence pass ({!Strict}) over every case branch.  Analysis
    failures on a recovered (partially checked) signature are contained
    per function. *)
let run ?(check_strict = true) (sg : Sign.t) (facts : Facts.t)
    (sink : Diagnostics.sink) : result =
  let names = Facts.family_name sg in
  let sub =
    Telemetry.with_span "worlds:subord" (fun () -> Facts.subord facts)
  in
  let cg =
    Telemetry.with_span "worlds:callgraph" (fun () -> Facts.callgraph facts)
  in
  let rec_name id =
    match Sign.rec_entry_opt sg id with
    | Some re -> re.Sign.r_name
    | None -> "#" ^ string_of_int id
  in
  (* the restricted block field lists of a family's declared worlds,
     memoized per family *)
  let world_tiles
      : (Lf.cid_typ, (string * (int * Lf.typ) list) list option) Hashtbl.t
      =
    Hashtbl.create 16
  in
  let tiles_of fam =
    match Hashtbl.find_opt world_tiles fam with
    | Some t -> t
    | None ->
        let t =
          Option.map
            (fun (w : Sign.worlds_entry) ->
              List.filter_map
                (fun b ->
                  let be = Sign.block_entry sg b in
                  (* offsets are assigned before the relevance
                     filter: dropped fields still occupy binder
                     indices in the kept ones *)
                  match
                    List.filter
                      (fun (_, t) ->
                        Subord.leq sub (Lf.typ_target t) fam)
                      (List.mapi
                         (fun j t -> (j, t))
                         (erase_fields sg be.Sign.b_fields))
                  with
                  | [] -> None
                  | fs -> Some (be.Sign.b_name, fs))
                w.Sign.w_blocks)
            (Sign.worlds_of sg fam)
        in
        Hashtbl.replace world_tiles fam t;
        t
  in
  let check_fn (id, fname) =
    let loc = rec_loc sg id in
    let re = Sign.rec_entry sg id in
    let c =
      Telemetry.with_span "worlds:collect" (fun () -> collect sg re)
    in
    Telemetry.add c_exts
      (List.length c.c_direct + List.length c.c_flow
      + List.length c.c_schema);
    (* assemble the (telescope, family, witness) obligations:
       box-local pairs, schema content against the function's own
       boxed families, and flowed telescopes against every family a
       transitive callee boxes *)
    let obligations = ref [] in
    let seen = Hashtbl.create 32 in
    let add x fam path =
      let key = (x.x_fields, fam) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        obligations := (x, fam, path) :: !obligations
      end
    in
    List.iter (fun (x, fam) -> add x fam [ id ]) c.c_direct;
    List.iter (fun x -> List.iter (fun fam -> add x fam [ id ]) c.c_boxed)
      c.c_schema;
    List.iter
      (fun (g, path) ->
        match Sign.rec_entry_opt sg g with
        | None -> ()
        | Some ge ->
            let gc = collect sg ge in
            List.iter
              (fun fam ->
                List.iter
                  (fun x -> add x fam path)
                  (c.c_flow @ c.c_schema))
              gc.c_boxed)
      (reachable_callees cg id);
    let violations = ref 0 in
    let undeclared = ref 0 in
    let checked = ref 0 in
    Telemetry.with_span "worlds:subsume" (fun () ->
        List.iter
          (fun (x, fam, path) ->
            match relevant sub ~fam x.x_fields with
            | [] -> ()  (* nothing [fam] can see: trivially subsumed *)
            | tele -> (
                incr checked;
                Telemetry.bump c_pairs;
                let witness =
                  String.concat " -> "
                    (List.map rec_name path @ [ names fam ])
                in
                match tiles_of fam with
                | None ->
                    incr undeclared;
                    Diagnostics.emit sink
                      (Diagnostics.make ~loc ~code:"W0721"
                         Diagnostics.Warning
                         "%s extends contexts reaching %s (e.g. %s), \
                          but %s has no %%worlds declaration (appeal \
                          path: %s)"
                         fname (names fam) x.x_desc (names fam) witness)
                | Some blocks ->
                    if not (tiles ~blocks:(List.map snd blocks) tele)
                    then begin
                      incr violations;
                      Diagnostics.emit sink
                        (Diagnostics.make ~loc ~code:"E0720"
                           Diagnostics.Error
                           "context extension %s in %s is not subsumed \
                            by the declared worlds of %s (%s) (appeal \
                            path: %s)"
                           x.x_desc fname (names fam)
                           (if blocks = [] then "no relevant block"
                            else
                              String.concat " | " (List.map fst blocks))
                           witness)
                    end))
          (List.rev !obligations));
    let nonstrict = ref 0 in
    if check_strict then
      Telemetry.with_span "worlds:strict" (fun () ->
          List.iteri
            (fun case_i offenders ->
              List.iter
                (fun (branch_i, _pos, x) ->
                  incr nonstrict;
                  Diagnostics.emit sink
                    (Diagnostics.make ~loc ~code:"W0722"
                       Diagnostics.Warning
                       "pattern variable %s in branch %d of case %d of \
                        %s has no strict occurrence: coverage of this \
                        case is heuristic"
                       x (branch_i + 1) (case_i + 1) fname))
                offenders)
            (Strict.rec_nonstrict sg id));
    {
      wf_id = id;
      wf_name = fname;
      wf_exts =
        List.length c.c_direct + List.length c.c_flow
        + List.length c.c_schema;
      wf_fams = !checked;
      wf_violations = !violations;
      wf_undeclared = !undeclared;
      wf_nonstrict = !nonstrict;
    }
  in
  let fns =
    List.filter_map
      (fun (id, fname) ->
        Diagnostics.recover sink ~loc:(rec_loc sg id) ~code:"E0201"
          (fun () -> check_fn (id, fname)))
      cg.Callgraph.cg_recs
  in
  {
    wr_fns = fns;
    wr_blocks = List.length (Sign.all_blocks sg);
    wr_worlds = List.length (Sign.all_worlds sg);
  }

(* --- report ------------------------------------------------------------- *)

let clean (f : fn_report) =
  f.wf_violations = 0 && f.wf_undeclared = 0 && f.wf_nonstrict = 0

let fn_json (f : fn_report) : Json.t =
  Json.Obj
    [
      ("name", Json.String f.wf_name);
      ("extensions", Json.Int f.wf_exts);
      ("families", Json.Int f.wf_fams);
      ("violations", Json.Int f.wf_violations);
      ("undeclared", Json.Int f.wf_undeclared);
      ("nonstrict", Json.Int f.wf_nonstrict);
      ("clean", Json.Bool (clean f));
    ]

(** The report's own sections: per-function counts and the signature's
    block/worlds declaration counts. *)
let sections (r : result) : (string * Json.t) list =
  [
    ("functions", Json.List (List.map fn_json r.wr_fns));
    ( "signature",
      Json.Obj
        [ ("blocks", Json.Int r.wr_blocks); ("worlds", Json.Int r.wr_worlds) ]
    );
  ]

(** The serve reply payload. *)
let reply_json (r : result) : Json.t =
  Json.Obj
    [
      ("functions", Json.Int (List.length r.wr_fns));
      ("clean", Json.Int (List.length (List.filter clean r.wr_fns)));
      ("blocks", Json.Int r.wr_blocks);
      ("worlds", Json.Int r.wr_worlds);
    ]

(** The [-v] listing: one verdict line per function. *)
let pp ppf (r : result) =
  Fmt.pf ppf "signature: %d block(s), %d worlds declaration(s)@." r.wr_blocks
    r.wr_worlds;
  List.iter
    (fun f ->
      Fmt.pf ppf "worlds %s : %s (%d extension(s), %d familie(s) checked)%s@."
        f.wf_name
        (if clean f then "clean" else "dirty")
        f.wf_exts f.wf_fams
        (if f.wf_nonstrict > 0 then
           Printf.sprintf "  [%d non-strict pattern variable(s)]"
             f.wf_nonstrict
         else ""))
    r.wr_fns
