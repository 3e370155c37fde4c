(** Declaration processing: parse → elaborate → check → extend the
    signature.

    Every elaborated object is re-checked with the unified sort checker,
    and every computation-level function additionally has its erasure
    re-checked through the type-level (embedded) fragment — running the
    conservativity theorems on all user code. *)

open Belr_support
open Belr_syntax
open Belr_lf
open Belr_core

(* Telemetry spans: phase names are shared across declarations so the
   --stats/--profile renderers aggregate by pipeline phase.  "elaborate"
   covers surface→internal reconstruction, "check-lf" the LF kind/type
   checker, "check-lfr" the unified sort checker, "check-comp" the
   computation level, and "conservativity" the erase + re-check pass. *)

let span = Telemetry.with_span

(** Phase 1: declare the family (type or sort); phase 2 processes the
    constructors — split so that mutually recursive declaration groups
    ([LFR … and …]) can declare every family first. *)
let declare_family (sg : Sign.t) (d : Ext.typ_decl) :
    [ `T of Lf.cid_typ | `S of Lf.cid_srt ] =
  let e = Elab.make_env sg in
  let l0 = { Elab.lctx = Ctxs.empty_sctx; Elab.lnames = [] } in
  match d.Ext.d_refines with
  | None ->
      let kind = span "elaborate" (fun () -> Elab.elab_kind e l0 d.Ext.d_kind) in
      span "check-lf" (fun () ->
          Check_lf.check_kind (Check_lf.make_env sg []) Ctxs.empty_ctx kind);
      `T (Sign.add_typ sg ~name:d.Ext.d_name ~kind ~implicit:0)
  | Some a_name ->
      let a =
        match Sign.lookup_name sg a_name with
        | Some (Sign.Sym_typ a) -> a
        | _ ->
            Error.raise_at d.Ext.d_loc "%s does not name a type family" a_name
      in
      let skind =
        span "elaborate" (fun () -> Elab.elab_skind e l0 d.Ext.d_kind)
      in
      span "check-lfr" (fun () ->
          Check_lfr.check_skind_refines (Check_lfr.make_env sg [])
            Ctxs.empty_sctx skind
            (Sign.typ_entry sg a).Sign.t_kind);
      `S (Sign.add_srt sg ~name:d.Ext.d_name ~refines:a ~skind ~implicit:0)

let process_family_ctors (sg : Sign.t) (d : Ext.typ_decl)
    (fam : [ `T of Lf.cid_typ | `S of Lf.cid_srt ]) : unit =
  let e = Elab.make_env sg in
  match fam with
  | `T a ->
      List.iter
        (fun (c : Ext.ctor) ->
          let typ, implicit =
            span "elaborate" (fun () -> Elab.elab_decl_typ e c.Ext.k_typ)
          in
          span "check-lf" (fun () ->
              Check_lf.check_typ (Check_lf.make_env sg []) Ctxs.empty_ctx typ);
          if Lf.typ_target typ <> a then
            Error.raise_at c.Ext.k_loc
              "constructor %s does not target the family %s" c.Ext.k_name
              d.Ext.d_name;
          ignore (Sign.add_const sg ~name:c.Ext.k_name ~typ ~implicit))
        d.Ext.d_ctors
  | `S s ->
      List.iter
        (fun (c : Ext.ctor) ->
          let const =
            match Sign.lookup_name sg c.Ext.k_name with
            | Some (Sign.Sym_const cid) -> cid
            | _ ->
                Error.raise_at c.Ext.k_loc
                  "%s does not name an existing constructor (refinements \
                   select constructors of the refined family)"
                  c.Ext.k_name
          in
          let srt, implicit =
            span "elaborate" (fun () -> Elab.elab_decl_srt e c.Ext.k_typ)
          in
          (match Lf.srt_target srt with
          | Some s' when s' = s -> ()
          | _ ->
              Error.raise_at c.Ext.k_loc
                "assigned sort does not target the declared family");
          span "check-lfr" (fun () ->
              Check_lfr.check_srt_refines (Check_lfr.make_env sg [])
                Ctxs.empty_sctx srt
                (Sign.const_entry sg const).Sign.c_typ);
          Sign.add_csort sg ~const ~srt ~implicit)
        d.Ext.d_ctors

(** Elaborate a world's parameters, then its fields, each entry under the
    ones before it; [to_srt] is what the local context records for an
    elaborated entry. *)
let elab_world elab to_srt (w : Ext.world) =
  let rec go l acc = function
    | [] -> (l, List.rev acc)
    | (x, t) :: rest ->
        let a = elab l t in
        go (Elab.lpush l x (to_srt a)) ((x, a) :: acc) rest
  in
  span "elaborate" (fun () ->
      let l0 = { Elab.lctx = Ctxs.empty_sctx; Elab.lnames = [] } in
      let l1, ps = go l0 [] w.Ext.w_params in
      (ps, snd (go l1 [] w.Ext.w_fields)))

let process_decl_inner (sg : Sign.t) (d : Ext.decl) : unit =
  let e = Elab.make_env sg in
  match d with
  | Ext.Dtyp td -> process_family_ctors sg td (declare_family sg td)
  | Ext.Dmutual tds ->
      (* declare every family first, then process every constructor *)
      let fams = List.map (declare_family sg) tds in
      List.iter2 (process_family_ctors sg) tds fams
  | Ext.Dschema { s_loc; s_name; s_refines = None; s_worlds } ->
      let elems =
        List.map
          (fun (w : Ext.world) ->
            let ps, blk =
              elab_world (fun l t -> Elab.elab_typ e l t) Embed.typ w
            in
            { Ctxs.e_name = w.Ext.w_name; Ctxs.e_params = ps;
              Ctxs.e_block = blk })
          s_worlds
      in
      span "check-lf" (fun () ->
          Check_lf.check_schema (Check_lf.make_env sg []) elems);
      ignore (Sign.add_schema sg ~name:s_name ~elems);
      ignore s_loc
  | Ext.Dschema { s_loc; s_name; s_refines = Some g_name; s_worlds } ->
      let g =
        match Sign.lookup_name sg g_name with
        | Some (Sign.Sym_schema g) -> g
        | _ -> Error.raise_at s_loc "%s does not name a schema" g_name
      in
      let g_elems = (Sign.schema_entry sg g).Sign.g_elems in
      let selems =
        List.map
          (fun (w : Ext.world) ->
            let refines =
              let rec find i = function
                | [] ->
                    Error.raise_at w.Ext.w_loc
                      "world %s does not appear in schema %s" w.Ext.w_name
                      g_name
                | (el : Ctxs.elem) :: rest ->
                    if Name.to_string el.Ctxs.e_name = w.Ext.w_name then i
                    else find (i + 1) rest
              in
              find 0 g_elems
            in
            let ps, blk =
              elab_world (fun l t -> Elab.elab_srt e l t) Fun.id w
            in
            { Ctxs.f_name = w.Ext.w_name; Ctxs.f_refines = refines;
              Ctxs.f_params = ps; Ctxs.f_block = blk })
          s_worlds
      in
      span "check-lfr" (fun () ->
          Check_lfr.check_sschema_refines (Check_lfr.make_env sg []) selems
            g_elems);
      ignore (Sign.add_sschema sg ~name:s_name ~refines:g ~elems:selems)
  | Ext.Dblock { bl_loc; bl_world = w } ->
      (* elaborate params and fields at the sort level: a type-level
         family arrives as its embedding, a refinement family as an
         atomic sort, so one path covers both LF and LFR blocks *)
      let ps, blk = elab_world (fun l t -> Elab.elab_srt e l t) Fun.id w in
      span "check-lfr" (fun () ->
          ignore
            (Check_lfr.wf_selem
               (Check_lfr.make_env sg [])
               Ctxs.empty_sctx
               {
                 Ctxs.f_name = w.Ext.w_name;
                 Ctxs.f_refines = 0;
                 Ctxs.f_params = ps;
                 Ctxs.f_block = blk;
               }));
      ignore (Sign.add_block sg ~name:w.Ext.w_name ~params:ps ~fields:blk);
      ignore bl_loc
  | Ext.Dworlds { ws_blocks; ws_fams; _ } ->
      let blocks =
        List.map
          (fun (bloc, b) ->
            match Sign.lookup_name sg b with
            | Some (Sign.Sym_block id) -> id
            | _ -> Error.raise_at bloc "%s does not name a %%block" b)
          ws_blocks
      in
      List.iter
        (fun (floc, f) ->
          let fam =
            match Sign.lookup_name sg f with
            | Some (Sign.Sym_typ a) -> a
            | Some (Sign.Sym_srt s) -> (Sign.srt_entry sg s).Sign.s_refines
            | _ ->
                Error.raise_at floc
                  "%s does not name a type or sort family" f
          in
          Sign.add_worlds sg ~fam ~fam_name:f ~blocks)
        ws_fams
  | Ext.Dmode { md_loc; md_fam = floc, f; md_args } ->
      (* a sort family keys its mode under the refined type family (one
         mode per erased judgment), but the analyzer will check the sort
         family's own — sharper — clauses *)
      let fam, srt, arity =
        match Sign.lookup_name sg f with
        | Some (Sign.Sym_typ a) ->
            (a, None, Lf.kind_arity (Sign.typ_entry sg a).Sign.t_kind)
        | Some (Sign.Sym_srt s) ->
            let se = Sign.srt_entry sg s in
            (se.Sign.s_refines, Some s, Lf.skind_arity se.Sign.s_kind)
        | _ -> Error.raise_at floc "%s does not name a type or sort family" f
      in
      let n = List.length md_args in
      if n <> arity then
        Error.raise_at md_loc
          "%%mode for %s declares %d argument position(s) but the family \
           has %d"
          f n arity;
      let args = List.map (fun (_, input, x) -> (input, x)) md_args in
      Sign.add_mode sg ~fam ~srt ~name:f ~args
  | Ext.Drec defs ->
      (* two-phase, like [Dmutual]: declare every header first so the
         bodies of a [rec … and …;] group can call any member *)
      let headers =
        List.map
          (fun (def : Ext.rec_def) ->
            let styp =
              span "elaborate" (fun () -> Elab.elab_csort e def.Ext.r_sort)
            in
            let typ = Erase.ctyp sg styp in
            span "check-comp" (fun () ->
                ignore (Check_comp.wf_ctyp (Check_comp.make_env sg [] []) styp));
            let id = Sign.add_rec sg ~name:def.Ext.r_name ~styp ~typ in
            (def, id, styp, typ))
          defs
      in
      Sign.set_rec_group sg (List.map (fun (_, id, _, _) -> id) headers);
      let recs_env =
        List.map (fun (def, id, styp, _) -> (def.Ext.r_name, (id, styp))) headers
      in
      List.iter
        (fun ((def : Ext.rec_def), id, styp, typ) ->
          let e_body = { e with Elab.recs = recs_env @ e.Elab.recs } in
          let body =
            span "elaborate" (fun () -> Elab.elab_cexp e_body def.Ext.r_body styp)
          in
          span "check-comp" (fun () ->
              try Check_comp.check_exp (Check_comp.make_env sg [] []) body styp
              with Error.Belr_error (loc, msg) ->
                let loc = if Loc.is_ghost loc then def.Ext.r_loc else loc in
                Error.raise_at loc "in the body of %s: %s" def.Ext.r_name msg);
          (* conservativity: the erasure checks through the type-level
             (embedded) fragment *)
          span "conservativity" (fun () ->
              Embed_t.check_exp_t sg [] [] (Erase.exp sg body) typ);
          Sign.set_rec_body sg id body)
        headers

(** Record where [d]'s names stand in its source: a coarse span per bound
    name, then the finer per-constructor spans.  Tooling over the checked
    signature ([belr lint]) locates its findings with these; the
    incremental server re-records them for a reused declaration whose
    text moved. *)
let record_locs (sg : Sign.t) (d : Ext.decl) : unit =
  List.iter
    (fun n -> Sign.set_decl_loc sg n (Ext.decl_loc d))
    (Ext.declared_names d);
  let typ_decl_locs (td : Ext.typ_decl) =
    List.iter
      (fun n -> Sign.set_decl_loc sg n td.Ext.d_loc)
      (Ext.typ_decl_names td);
    if td.Ext.d_refines = None then
      List.iter
        (fun (c : Ext.ctor) -> Sign.set_decl_loc sg c.Ext.k_name c.Ext.k_loc)
        td.Ext.d_ctors
  in
  match d with
  | Ext.Dtyp td -> typ_decl_locs td
  | Ext.Dmutual tds -> List.iter typ_decl_locs tds
  | Ext.Drec defs ->
      List.iter
        (fun (def : Ext.rec_def) ->
          Sign.set_decl_loc sg def.Ext.r_name def.Ext.r_loc)
        defs
  | Ext.Dschema _ | Ext.Dblock _ | Ext.Dworlds _ | Ext.Dmode _ -> ()

(** Process one declaration, under a "decl" telemetry span carrying the
    first declared name (so traces show which declaration each phase
    belongs to). *)
let process_decl (sg : Sign.t) (d : Ext.decl) : unit =
  record_locs sg d;
  if Telemetry.enabled () then
    let arg =
      match Ext.declared_names d with name :: _ -> name | [] -> ""
    in
    span ~arg "decl" (fun () -> process_decl_inner sg d)
  else process_decl_inner sg d

(** Process a whole source program into a signature (fail-fast: the first
    error is raised as an exception, as the unit tests and examples
    expect). *)
let program ?name (src : string) : Sign.t =
  let decls = span "parse" (fun () -> Parse.parse_program ?name src) in
  let sg = Sign.create () in
  List.iter (process_decl sg) decls;
  sg

(** Process one declaration under error recovery: a failure is rendered
    into [sink] (located at the declaration, code [E0201] unless the
    exception carries its own classification) and the declaration's names
    are poisoned so downstream references yield a single [E0801]
    dependency note instead of an error cascade. *)
let process_decl_tolerant (sink : Diagnostics.sink) (sg : Sign.t)
    (d : Ext.decl) : unit =
  match
    Diagnostics.recover sink ~loc:(Ext.decl_loc d) ~code:"E0201" (fun () ->
        process_decl sg d)
  with
  | Some () -> ()
  | None -> List.iter (Sign.poison sg) (Ext.declared_names d)

(** Process additional declarations into an existing signature, fault-
    tolerantly: syntax errors resynchronize at declaration boundaries, and
    each declaration that fails to elaborate or check is reported into
    [diags], skipped, and poisoned while checking continues with the rest
    of the input — so one pass reports every independent error in a
    file. *)
let extend ~(diags : Diagnostics.sink) (sg : Sign.t) ?name (src : string) :
    unit =
  let decls =
    span "parse" (fun () -> Parse.parse_program_tolerant diags ?name src)
  in
  List.iter (process_decl_tolerant diags sg) decls
