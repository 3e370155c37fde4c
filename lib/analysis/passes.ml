(** The concrete lint passes over a checked signature.

    Codes live in the lint range of the {!Belr_support.Diagnostics}
    registry:

    - [W0701] vacuous Π-dependency (subordination pass)
    - [W0702] adequacy: a constant leaves the second-order HOAS fragment
    - [W0703] empty refinement sort
    - [E0702] subsort cycle between refinement sorts
    - [W0704] unused declaration
    - [W0705] shadowed binder or duplicated context/world entry

    All passes are pure folds over {!Belr_lf.Sign} (via {!Refs} and
    {!Subord}), reading its entries in id order from the run's {!Facts}
    (so findings come out in a deterministic order); none re-runs
    checking.  A finding's text is formatted only when it is emitted.
    Findings are located at the declaration that introduced the
    offending name, using the declaration-location table the processing
    pipeline records. *)

open Belr_support
open Belr_syntax
module Sign = Belr_lf.Sign

let c_findings = Telemetry.counter "analysis.findings"

let c_subord_pairs = Telemetry.counter "analysis.subord.pairs"

let c_decls_scanned = Telemetry.counter "analysis.decls.scanned"

let loc_of sg name =
  match Sign.decl_loc sg name with Some l -> l | None -> Loc.ghost

(** Emit one finding, located at [name]'s declaration. *)
let report :
    'a.
    Diagnostics.sink ->
    Sign.t ->
    code:string ->
    Diagnostics.severity ->
    at:string ->
    ('a, Format.formatter, unit, unit) format4 ->
    'a =
 fun sink sg ~code severity ~at fmt ->
  Format.kasprintf
    (fun msg ->
      Telemetry.bump c_findings;
      Diagnostics.emit sink
        (Diagnostics.make ~loc:(loc_of sg at) ~code severity "%s" msg))
    fmt

let binder_named x =
  let x = Name.to_string x in
  if x = "_" || x = "" then None else Some x

(* --- pass 1: subordination (and vacuous Π-dependencies) ----------------- *)

(** A named Π-binder whose variable never occurs in its scope is a vacuous
    dependency: the declaration is an arrow written as a Π.  Beyond style,
    vacuous dependencies defeat context strengthening (they keep the
    subordination relation larger than the terms require).  The leading
    [skip] implicit binders are reconstructed from occurring free
    variables and are never vacuous. *)
let rec vacuous_in_typ sink sg ~at ~skip (ty : Lf.typ) =
  match ty with
  | Lf.Atom _ -> ()
  | Lf.Pi (x, a, b) ->
      (match binder_named x with
      | Some x when skip <= 0 && not (Refs.typ_mentions_bvar 1 b) ->
          report sink sg ~code:"W0701" Diagnostics.Warning ~at
            "vacuous Pi-dependency in %s: binder %s never occurs in its \
             scope (write the domain as an arrow, or drop it so the family \
             can be strengthened away)"
            at x
      | _ -> ());
      (* domains of implicit binders are machine-reconstructed hole sorts
         (their inner binder names are synthetic), so only user-written
         domains are checked *)
      if skip <= 0 then vacuous_in_typ sink sg ~at ~skip:0 a;
      vacuous_in_typ sink sg ~at ~skip:(skip - 1) b

let rec vacuous_in_kind sink sg ~at ~skip (k : Lf.kind) =
  match k with
  | Lf.Ktype -> ()
  | Lf.Kpi (x, a, body) ->
      (match binder_named x with
      | Some x when skip <= 0 && not (Refs.kind_mentions_bvar 1 body) ->
          report sink sg ~code:"W0701" Diagnostics.Warning ~at
            "vacuous Pi-dependency in the kind of %s: binder %s never occurs \
             in its scope"
            at x
      | _ -> ());
      (* domains are ordinary types; their nested binders get the
         type-level check with no implicit prefix (skipped entirely for
         implicit binders, whose domains are machine-reconstructed) *)
      if skip <= 0 then vacuous_in_typ sink sg ~at ~skip:0 a;
      vacuous_in_kind sink sg ~at ~skip:(skip - 1) body

let subord_pass sg facts sink =
  let v = Facts.view facts in
  Telemetry.add c_subord_pairs (Subord.pair_count (Facts.subord facts));
  Array.iter
    (fun (_, (te : Sign.typ_entry)) ->
      Telemetry.bump c_decls_scanned;
      vacuous_in_kind sink sg ~at:te.Sign.t_name ~skip:te.Sign.t_implicit
        te.Sign.t_kind)
    v.Facts.typs;
  Array.iter
    (fun (_, (ce : Sign.const_entry)) ->
      Telemetry.bump c_decls_scanned;
      vacuous_in_typ sink sg ~at:ce.Sign.c_name ~skip:ce.Sign.c_implicit
        ce.Sign.c_typ)
    v.Facts.consts

(* --- pass 2: adequacy (second-order HOAS fragment) ----------------------- *)

(** HOAS encodings are adequate (in bijection with the informal syntax)
    only while constant types stay second-order: domains may be function
    types over atomic families ([lam : (tm -> tm) -> tm]), but once a
    domain's domain is itself a function type whose target can embed the
    constant's own family, exotic terms appear and the bijection breaks.
    We flag occurrences of the constant's own family — or one mutually
    subordinate with it — in negative position at order ≥ 2, i.e. at an
    odd Π-domain nesting depth ≥ 3. *)
let rec negative_occurrences sink sg sub (ce : Sign.const_entry) reported
    depth (ty : Lf.typ) =
  match ty with
  | Lf.Atom (f, _) ->
      let fam = ce.Sign.c_family in
      if
        depth >= 3
        && depth mod 2 = 1
        && (f = fam || Subord.mutual sub f fam)
        && not (List.mem f !reported)
      then begin
        reported := f :: !reported;
        report sink sg ~code:"W0702" Diagnostics.Warning ~at:ce.Sign.c_name
          "%s leaves the second-order HOAS fragment: family %s occurs at \
           order %d in negative position, so the encoding admits exotic \
           terms and its adequacy is at risk"
          ce.Sign.c_name (Sign.typ_entry sg f).Sign.t_name depth
      end
  | Lf.Pi (_, a, b) ->
      negative_occurrences sink sg sub ce reported (depth + 1) a;
      negative_occurrences sink sg sub ce reported depth b

let adequacy_pass sg facts sink =
  let sub = Facts.subord facts in
  (* the families already reported for the constant at hand *)
  let reported = ref [] in
  Array.iter
    (fun (_, (ce : Sign.const_entry)) ->
      Telemetry.bump c_decls_scanned;
      reported := [];
      negative_occurrences sink sg sub ce reported 0 ce.Sign.c_typ)
    (Facts.view facts).Facts.consts

(* --- pass 3: dead / cyclic refinement sorts ------------------------------ *)

let sorts_pass sg facts sink =
  let srts = (Facts.view facts).Facts.srts in
  Array.iter
    (fun (_, (se : Sign.srt_entry)) ->
      Telemetry.bump c_decls_scanned;
      if se.Sign.s_consts = [] then
        report sink sg ~code:"W0703" Diagnostics.Warning ~at:se.Sign.s_name
          "refinement sort %s is empty: no constant of %s was assigned a \
           sort in this family, so no closed term inhabits it"
          se.Sign.s_name
          (Sign.typ_entry sg se.Sign.s_refines).Sign.t_name)
    srts;
  (* The subsort preorder on sorts refining the same family is inclusion
     of constant sets; two distinct sorts with the same set are mutual
     subsorts — a cycle, so one of the declarations is redundant. *)
  let const_set (se : Sign.srt_entry) =
    List.sort_uniq compare se.Sign.s_consts
  in
  for i = 0 to Array.length srts - 1 do
    let se1 = snd srts.(i) in
    for j = i + 1 to Array.length srts - 1 do
      let se2 = snd srts.(j) in
      if
        se1.Sign.s_refines = se2.Sign.s_refines
        && se1.Sign.s_consts <> []
        && const_set se1 = const_set se2
      then
        report sink sg ~code:"E0702" Diagnostics.Error ~at:se2.Sign.s_name
          "subsort cycle: %s and %s refine %s with identical constant \
           sets, so each is a subsort of the other; one of the two \
           declarations is redundant"
          se1.Sign.s_name se2.Sign.s_name
          (Sign.typ_entry sg se1.Sign.s_refines).Sign.t_name
    done
  done

(* --- pass 4: unused declarations ----------------------------------------- *)

(** Group keys: references {e within} one declaration group (a constant
    mentioning its own target family, a sort's assigned constants
    mentioning the sort, one member of a [rec … and …] group calling
    another) do not count as uses. *)
type key =
  | KT of Lf.cid_typ
  | KS of Lf.cid_srt
  | KC of Lf.cid_const
  | KG of Lf.cid_schema
  | KH of Lf.cid_sschema
  | KR of Lf.cid_rec
  | KB of int  (** a [%block] declaration *)
  | KW of Lf.cid_typ  (** the [%worlds] declaration of a family *)

let unused_pass sg facts sink =
  let v = Facts.view facts in
  let used : (key, unit) Hashtbl.t = Hashtbl.create 64 in
  (* one key per mutual group, so f calling its group-mate g does not
     count as a use of g *)
  let rec_key r = KR (List.fold_left min r (Sign.rec_group sg r)) in
  let group_of = function
    | Refs.RTyp a -> KT a
    | Refs.RSrt s -> KS s
    | Refs.RConst c -> KT (Sign.const_entry sg c).Sign.c_family
    | Refs.RSchema g -> KG g
    | Refs.RSschema h -> KH h
    | Refs.RRec r -> rec_key r
  in
  let key_of = function
    | Refs.RTyp a -> KT a
    | Refs.RSrt s -> KS s
    | Refs.RConst c -> KC c
    | Refs.RSchema g -> KG g
    | Refs.RSschema h -> KH h
    | Refs.RRec r -> rec_key r
  in
  let rec credit ~owner (t : Refs.target) =
    (* a use of the auto-registered trivial refinement ⌈G⌉ is a use of G *)
    (match t with
    | Refs.RSschema h ->
        let he = Sign.sschema_entry sg h in
        if he.Sign.h_hidden then credit ~owner (Refs.RSchema he.Sign.h_refines)
    | _ -> ());
    if group_of t <> owner then Hashtbl.replace used (key_of t) ()
  in
  Array.iter
    (fun (a, (te : Sign.typ_entry)) ->
      Refs.iter_kind (credit ~owner:(KT a)) te.Sign.t_kind)
    v.Facts.typs;
  Array.iter
    (fun (_, (ce : Sign.const_entry)) ->
      Refs.iter_typ (credit ~owner:(KT ce.Sign.c_family)) ce.Sign.c_typ)
    v.Facts.consts;
  Array.iter
    (fun (s, (se : Sign.srt_entry)) ->
      credit ~owner:(KS s) (Refs.RTyp se.Sign.s_refines);
      Refs.iter_skind (credit ~owner:(KS s)) se.Sign.s_kind)
    v.Facts.srts;
  List.iter
    (fun ((c, fam), (srt, _)) ->
      credit ~owner:(KS fam) (Refs.RConst c);
      Refs.iter_srt (credit ~owner:(KS fam)) srt)
    (Sign.all_csorts sg);
  Array.iter
    (fun (g, (ge : Sign.schema_entry)) ->
      List.iter (Refs.iter_elem (credit ~owner:(KG g))) ge.Sign.g_elems)
    v.Facts.schemas;
  Array.iter
    (fun (h, (he : Sign.sschema_entry)) ->
      if not he.Sign.h_hidden then begin
        credit ~owner:(KH h) (Refs.RSchema he.Sign.h_refines);
        List.iter (Refs.iter_selem (credit ~owner:(KH h))) he.Sign.h_elems
      end)
    v.Facts.sschemas;
  Array.iter
    (fun (r, (re : Sign.rec_entry)) ->
      Refs.iter_ctyp (credit ~owner:(rec_key r)) re.Sign.r_styp;
      Option.iter (Refs.iter_exp (credit ~owner:(rec_key r))) re.Sign.r_body)
    v.Facts.recs;
  (* [%block] / [%worlds] declarations reference sorts and families;
     those references keep their targets live.  The declarations
     themselves are never reported — they exist to be consumed by the
     worlds analyzer (`belr worlds`), not by later declarations. *)
  List.iter
    (fun (b, (be : Sign.block_entry)) ->
      List.iter (fun (_, s) -> Refs.iter_srt (credit ~owner:(KB b)) s)
        (be.Sign.b_params @ be.Sign.b_fields))
    (Sign.all_blocks sg);
  List.iter
    (fun (we : Sign.worlds_entry) ->
      credit ~owner:(KW we.Sign.w_fam) (Refs.RTyp we.Sign.w_fam))
    (Sign.all_worlds sg);
  let is_used k = Hashtbl.mem used k in
  (* Constants are data: a constructor counts as used while its family is
     referenced anywhere (matching on the family needs every constructor),
     so only constants of entirely unreferenced families are reported. *)
  Array.iter
    (fun (c, (ce : Sign.const_entry)) ->
      Telemetry.bump c_decls_scanned;
      if (not (is_used (KC c))) && not (is_used (KT ce.Sign.c_family)) then
        report sink sg ~code:"W0704" Diagnostics.Warning ~at:ce.Sign.c_name
          "constant %s is never referenced, and neither is its family %s"
          ce.Sign.c_name
          (Sign.typ_entry sg ce.Sign.c_family).Sign.t_name)
    v.Facts.consts;
  Array.iter
    (fun (s, (se : Sign.srt_entry)) ->
      Telemetry.bump c_decls_scanned;
      if not (is_used (KS s)) then
        report sink sg ~code:"W0704" Diagnostics.Warning ~at:se.Sign.s_name
          "refinement sort %s is never referenced by a later declaration, \
           theorem, or program"
          se.Sign.s_name)
    v.Facts.srts;
  Array.iter
    (fun (g, (ge : Sign.schema_entry)) ->
      Telemetry.bump c_decls_scanned;
      if not (is_used (KG g)) then
        report sink sg ~code:"W0704" Diagnostics.Warning ~at:ge.Sign.g_name
          "schema %s is never referenced by a later declaration, theorem, \
           or program"
          ge.Sign.g_name)
    v.Facts.schemas;
  Array.iter
    (fun (h, (he : Sign.sschema_entry)) ->
      Telemetry.bump c_decls_scanned;
      if (not he.Sign.h_hidden) && not (is_used (KH h)) then
        report sink sg ~code:"W0704" Diagnostics.Warning ~at:he.Sign.h_name
          "refinement schema %s is never referenced by a later \
           declaration, theorem, or program"
          he.Sign.h_name)
    v.Facts.sschemas

(* --- pass 5: shadowing / name hygiene ------------------------------------ *)

(** [what] names the entity a binder sits in, for the message; it is a
    thunk so the text is formatted only for a finding. *)
let shadow_pass sg facts sink =
  let v = Facts.view facts in
  (* duplicate warnings for the same entity/name pair are folded *)
  let seen = Hashtbl.create 16 in
  let once key (emit : unit -> unit) =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      emit ()
    end
  in
  let shadow_binder ~at ~(what : unit -> string) x =
    once (at, "b:" ^ x) (fun () ->
        report sink sg ~code:"W0705" Diagnostics.Warning ~at
          "binder %s in %s shadows an enclosing binder of the same name"
          x (what ()))
  in
  let dup_entry ~at ~(what : unit -> string) x =
    once (at, "d:" ^ x) (fun () ->
        report sink sg ~code:"W0705" Diagnostics.Warning ~at
          "%s binds %s more than once; the later entry shadows the earlier"
          (what ()) x)
  in
  (* add named binder [x] to [env], warning through [dup] when it is
     already there *)
  let bind dup env x =
    match binder_named x with
    | Some x ->
        if List.mem x env then dup x;
        x :: env
    | None -> env
  in
  let rec typ_binders shadow env (ty : Lf.typ) =
    match ty with
    | Lf.Atom _ -> ()
    | Lf.Pi (x, a, b) ->
        let env' = bind shadow env x in
        typ_binders shadow env a;
        typ_binders shadow env' b
  in
  let rec kind_binders shadow env (k : Lf.kind) =
    match k with
    | Lf.Ktype -> ()
    | Lf.Kpi (x, a, body) ->
        let env' = bind shadow env x in
        typ_binders shadow env a;
        kind_binders shadow env' body
  in
  let world_names ~at ~what params fields =
    let dup = dup_entry ~at ~what in
    let names env l = List.fold_left (fun env (x, _) -> bind dup env x) env l in
    ignore (names (names [] params) fields)
  in
  let check_sctx ~at ~what (psi : Ctxs.sctx) =
    ignore
      (List.fold_left (bind (dup_entry ~at ~what)) []
         (List.rev (Ctxs.sctx_names psi)))
  in
  let msrt_ctxs ~at (ms : Meta.msrt) =
    let what () = Fmt.str "a context in the type of %s" at in
    match ms with
    | Meta.MSTerm (psi, _) | Meta.MSParam (psi, _, _) ->
        check_sctx ~at ~what psi
    | Meta.MSSub (psi1, psi2) ->
        check_sctx ~at ~what psi1;
        check_sctx ~at ~what psi2
    | Meta.MSCtx _ -> ()
  in
  Array.iter
    (fun (_, (te : Sign.typ_entry)) ->
      Telemetry.bump c_decls_scanned;
      let at = te.Sign.t_name in
      kind_binders
        (shadow_binder ~at ~what:(fun () -> "the kind of " ^ at))
        [] te.Sign.t_kind)
    v.Facts.typs;
  Array.iter
    (fun (_, (ce : Sign.const_entry)) ->
      Telemetry.bump c_decls_scanned;
      let at = ce.Sign.c_name in
      typ_binders
        (shadow_binder ~at ~what:(fun () -> "the type of " ^ at))
        [] ce.Sign.c_typ)
    v.Facts.consts;
  Array.iter
    (fun (_, (ge : Sign.schema_entry)) ->
      Telemetry.bump c_decls_scanned;
      List.iter
        (fun (e : Ctxs.elem) ->
          world_names ~at:ge.Sign.g_name
            ~what:(fun () ->
              Fmt.str "world %s of schema %s"
                (Name.to_string e.Ctxs.e_name)
                ge.Sign.g_name)
            e.Ctxs.e_params e.Ctxs.e_block)
        ge.Sign.g_elems)
    v.Facts.schemas;
  Array.iter
    (fun (_, (he : Sign.sschema_entry)) ->
      if not he.Sign.h_hidden then begin
        Telemetry.bump c_decls_scanned;
        List.iter
          (fun (e : Ctxs.selem) ->
            world_names ~at:he.Sign.h_name
              ~what:(fun () ->
                Fmt.str "world %s of refinement schema %s"
                  (Name.to_string e.Ctxs.f_name)
                  he.Sign.h_name)
              e.Ctxs.f_params e.Ctxs.f_block)
          he.Sign.h_elems
      end)
    v.Facts.sschemas;
  Array.iter
    (fun (_, (re : Sign.rec_entry)) ->
      Telemetry.bump c_decls_scanned;
      let at = re.Sign.r_name in
      let shadow = shadow_binder ~at ~what:(fun () -> "the type of " ^ at) in
      let rec ctyp_binders env (t : Comp.ctyp) =
        match t with
        | Comp.CBox ms -> msrt_ctxs ~at ms
        | Comp.CArr (t1, t2) ->
            ctyp_binders env t1;
            ctyp_binders env t2
        | Comp.CPi (x, _, ms, body) ->
            let env' = bind shadow env x in
            msrt_ctxs ~at ms;
            ctyp_binders env' body
      in
      ctyp_binders [] re.Sign.r_styp)
    v.Facts.recs

(* --- the registry --------------------------------------------------------- *)

let all : Pass.t list =
  [
    {
      Pass.p_name = "subord";
      p_doc =
        "subordination relation between type families; vacuous \
         Pi-dependencies (W0701)";
      p_run = subord_pass;
    };
    {
      Pass.p_name = "adequacy";
      p_doc = "second-order HOAS fragment / adequacy of encodings (W0702)";
      p_run = adequacy_pass;
    };
    {
      Pass.p_name = "sorts";
      p_doc = "empty refinement sorts (W0703) and subsort cycles (E0702)";
      p_run = sorts_pass;
    };
    {
      Pass.p_name = "unused";
      p_doc = "declarations never referenced downstream (W0704)";
      p_run = unused_pass;
    };
    {
      Pass.p_name = "shadowing";
      p_doc = "shadowed binders and duplicated context entries (W0705)";
      p_run = shadow_pass;
    };
  ]

(** Resolve the [--only] / [--skip] pass-name filters against the
    registry.  An unknown name is a hard error (never a silent no-op
    filter), naming the offender and the valid set. *)
let select ?(only = []) ?(skip = []) () : (Pass.t list, string) result =
  let known = List.map (fun p -> p.Pass.p_name) all in
  match List.find_opt (fun n -> not (List.mem n known)) (only @ skip) with
  | Some n ->
      Result.Error
        (Printf.sprintf "unknown lint pass %s (expected one of: %s)" n
           (String.concat ", " known))
  | None ->
      Result.Ok
        (List.filter
           (fun p ->
             (only = [] || List.mem p.Pass.p_name only)
             && not (List.mem p.Pass.p_name skip))
           all)
