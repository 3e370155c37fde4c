(** Mode & uniqueness analysis (Twelf-style [%mode] declarations;
    DESIGN.md §S27).

    A [%mode fam +M … -N;] declaration assigns a {e mode} to a judgment
    family: [+] positions are inputs the caller must supply ground
    (variable-free after instantiation), [-] positions are outputs the
    judgment promises to ground.  A declaration may name a sort family;
    it is then keyed under the refined type family ([s ⊑ a] shares one
    mode per erased judgment) but checked against the {e sort} family's
    sharper clause set — which is what makes algorithmic equality
    ([aeq ⊑ deq]) modable even though the declarative system it refines
    (with symmetry and transitivity) is not.

    Checking is a groundness dataflow over each clause of a moded
    family, descending through its Π-telescope with the whnf closure
    API.  The lattice per clause is the powerset of its telescope
    variables ordered by inclusion; the transfer function is premise
    scheduling:

    - the ground set is seeded with every variable occurring in an input
      position of the clause head (the conclusion);
    - a premise (a non-dependent telescope domain, or any domain whose
      target family is moded) is {e schedulable} once the variables of
      its input arguments are ground — local binders of a higher-order
      premise count as ground, and nested assumption atoms of moded
      families must have ground inputs but produce nothing;
    - scheduling a premise grounds the variables of its output arguments
      and the premise variable itself (its derivation is constructed);
    - premises are scheduled to a fixpoint, i.e. in {e any} solvable
      order — this is Twelf's mode-respecting reordering of subgoals;
    - a domain whose target family has no [%mode] is handled leniently
      (all its variables are assumed ground) and reported once.

    Soundness of the verdict rests on the subordination relation
    ({!Subord.leq}): a telescope variable whose domain's target family
    is not subordinate to the judgment family can never occur in any
    atom of the clause, so it is exempt from groundness obligations
    (pruning irrelevant positions such as proof-irrelevant packaging).

    The uniqueness pass compares clauses pairwise (Maranget-style rigid
    constructor clashes, as in {!Belr_comp.Coverage}): two clauses whose
    input fragments do {e not} rigidly clash can fire on the same query,
    so rigidly {e clashing} outputs mean the judgment is not a partial
    function of its inputs.

    Diagnostics (through the {!Belr_support.Diagnostics} registry):

    - [E0730] (error): an ill-moded clause — some premise can never be
      scheduled, with the stuck input variable as witness;
    - [E0731] (error): a clause cannot ground an output position of its
      conclusion;
    - [W0732] (warning): a judgment family reachable from a moded clause
      or from a declared [rec] has no [%mode] declaration;
    - [W0733] (warning): overlapping inputs with divergent rigid outputs.

    Each phase runs under a [modes:<pass>] telemetry span; the report
    follows the [belr-modes/1] schema (validated by
    [tools/validate_json.ml] under the [@analyses] alias). *)

open Belr_support
open Belr_syntax
module Sign = Belr_lf.Sign
module Whnf = Belr_lf.Whnf
module ISet = Set.Make (Int)

let c_clauses = Telemetry.counter "modes.clauses"
let c_premises = Telemetry.counter "modes.premises"
let c_pairs = Telemetry.counter "modes.checked_pairs"

(* --- free telescope variables ------------------------------------------- *)

(** Free clause-telescope variables of a term, as absolute 0-based
    indices (outermost binder = 0).  [depth] telescope binders and [d]
    local binders are in scope, so [BVar i] refers to telescope binder
    [depth - (i - d)] exactly when [d < i <= d + depth]. *)
let rec fv_normal ~depth d (m : Lf.normal) (acc : ISet.t) : ISet.t =
  match m with
  | Lf.Lam (_, n) -> fv_normal ~depth (d + 1) n acc
  | Lf.Root (h, sp) ->
      List.fold_left
        (fun acc n -> fv_normal ~depth d n acc)
        (fv_head ~depth d h acc) sp

and fv_head ~depth d (h : Lf.head) (acc : ISet.t) : ISet.t =
  match h with
  | Lf.BVar i when i > d && i - d <= depth -> ISet.add (depth - (i - d)) acc
  | Lf.BVar _ | Lf.Const _ -> acc
  | Lf.Proj (h, _) -> fv_head ~depth d h acc
  | Lf.PVar (_, s) | Lf.MVar (_, s) ->
      (* cannot occur in a constant's (closed, canonical) type; kept for
         totality over the shared term syntax *)
      fv_sub ~depth d s acc

and fv_sub ~depth d (s : Lf.sub) (acc : ISet.t) : ISet.t =
  match s with
  | Lf.Empty | Lf.Shift _ -> acc
  | Lf.Dot (Lf.Obj m, s) -> fv_sub ~depth d s (fv_normal ~depth d m acc)
  | Lf.Dot (Lf.Tup ms, s) ->
      fv_sub ~depth d s
        (List.fold_left (fun acc m -> fv_normal ~depth d m acc) acc ms)
  | Lf.Dot (Lf.Undef, s) -> fv_sub ~depth d s acc

let rec fv_typ ~depth d (t : Lf.typ) (acc : ISet.t) : ISet.t =
  match t with
  | Lf.Atom (_, sp) ->
      List.fold_left (fun acc m -> fv_normal ~depth d m acc) acc sp
  | Lf.Pi (_, a, b) -> fv_typ ~depth (d + 1) b (fv_typ ~depth d a acc)

(* --- rigid clashes (Maranget, as in Belr_comp.Coverage) ----------------- *)

(** Do two conclusion arguments disagree on a rigid constructor?
    Variables (and anything flexible) never clash; equal constructor
    heads recurse into the spines.  Reimplemented locally: the coverage
    checker lives {e above} this library in the dependency order. *)
let rec clashes (m1 : Lf.normal) (m2 : Lf.normal) : bool =
  match (m1, m2) with
  | Lf.Lam (_, n1), Lf.Lam (_, n2) -> clashes n1 n2
  | Lf.Root (Lf.Const c1, sp1), Lf.Root (Lf.Const c2, sp2) ->
      c1 <> c2
      || (List.length sp1 = List.length sp2 && List.exists2 clashes sp1 sp2)
  | _ -> false

(* --- clause views -------------------------------------------------------- *)

(** One clause of a moded family: its Π-telescope (outermost first) and
    the conclusion spine, both fully normalized. *)
type view = {
  v_name : string;
  v_loc : Loc.t;
  v_doms : (Name.t * Lf.typ) array;
  v_concl : Lf.normal array;
}

(** Split a (closed, canonical) clause type through the whnf closure
    API: each domain and conclusion argument is forced and read back to
    a plain normal form before analysis. *)
let split_clause (t : Lf.typ) : (Name.t * Lf.typ) list * Lf.cid_typ * Lf.normal list =
  let rec go acc (c : Whnf.tclo) =
    match Whnf.whnf_typ c with
    | Whnf.WPi (x, dom, cod) ->
        go ((x, Whnf.norm_tclo dom) :: acc) (Whnf.clo_push cod)
    | Whnf.WAtom (a, sp, s) ->
        (List.rev acc, a, List.map (fun m -> Whnf.norm_nclo (m, s)) sp)
  in
  go [] (t, Lf.id)

(* --- premises ------------------------------------------------------------ *)

(** What scheduling one premise needs and provides, over absolute
    telescope indices: [p_req] must be ground before the premise can
    run, [p_prod] becomes ground when it has. *)
type premise = {
  p_k : int;  (** telescope position (also the derivation variable) *)
  p_fam : Lf.cid_typ;  (** goal family, for diagnostics *)
  p_req : ISet.t;
  p_prod : ISet.t;
}

(** Analyze premise domain [t] standing at telescope depth [k]: walk its
    local Π-telescope (local binders are ground), requiring the inputs
    of every moded atom and collecting the outputs of the goal atom
    only — an assumption is used, not solved, so it grounds nothing. *)
let premise_spec (sg : Sign.t) ~(k : int) (t : Lf.typ) : premise =
  let req = ref ISet.empty in
  let prod = ref ISet.empty in
  let goal_fam = ref (Lf.typ_target t) in
  let atom ~goal d a sp =
    match Sign.mode_of sg a with
    | None -> ()
    | Some (gm : Sign.mode_entry) ->
        List.iteri
          (fun i m ->
            match List.nth_opt gm.Sign.m_args i with
            | Some (true, _) ->
                req := fv_normal ~depth:k d m !req
            | Some (false, _) ->
                if goal then prod := fv_normal ~depth:k d m !prod
            | None -> ())
          sp
  in
  let rec assum d = function
    | Lf.Pi (_, a, b) ->
        assum d a;
        assum (d + 1) b
    | Lf.Atom (a, sp) -> atom ~goal:false d a sp
  in
  let rec go d = function
    | Lf.Pi (_, a, b) ->
        assum d a;
        go (d + 1) b
    | Lf.Atom (a, sp) ->
        goal_fam := a;
        atom ~goal:true d a sp
  in
  go 0 t;
  { p_k = k; p_fam = !goal_fam; p_req = !req; p_prod = ISet.add k !prod }

(* --- the check ----------------------------------------------------------- *)

type fam_report = {
  mf_fam : Lf.cid_typ;
  mf_name : string;  (** the family name as written in the [%mode] *)
  mf_sorted : bool;  (** the declaration named a sort family *)
  mf_inputs : int;
  mf_outputs : int;
  mf_clauses : int;
  mf_illmoded : int;  (** E0730 findings *)
  mf_ungrounded : int;  (** E0731 findings *)
  mf_nonunique : int;  (** W0733 findings *)
}

type result = {
  mr_fams : fam_report list;  (** ascending family id (declaration) order *)
  mr_modes : int;  (** [%mode] declarations in the signature *)
  mr_missing : int;  (** W0732 findings *)
}

let empty_result = { mr_fams = []; mr_modes = 0; mr_missing = 0 }

(** Run the mode checker over every [%mode]-declared family, reporting
    through [sink].  Analysis failures on a recovered (partially
    checked) signature are contained per family. *)
let run (sg : Sign.t) (facts : Facts.t) (sink : Diagnostics.sink) : result =
  let names = Facts.family_name sg in
  let sub =
    Telemetry.with_span "modes:subord" (fun () -> Facts.subord facts)
  in
  let modes =
    List.sort
      (fun (m1 : Sign.mode_entry) m2 -> compare m1.m_fam m2.m_fam)
      (Sign.all_modes sg)
  in
  let mode_loc me = Option.value ~default:Loc.ghost (Sign.mode_loc sg me) in
  (* W0732, deduplicated: a family missing its %mode is reported at
     its first appeal, wherever that is; [via] names the appeal, and is
     formatted only for a finding *)
  let missing_warned : (Lf.cid_typ, unit) Hashtbl.t = Hashtbl.create 8 in
  let missing = ref 0 in
  let warn_missing ~loc ~via fam' =
    if not (Hashtbl.mem missing_warned fam') then begin
      Hashtbl.replace missing_warned fam' ();
      incr missing;
      Diagnostics.emit sink
        (Diagnostics.make ~loc ~code:"W0732" Diagnostics.Warning
           "%s appeals to %s, which has no %%mode declaration; its \
            arguments are assumed ground"
           (via ()) (names fam'))
    end
  in
  let check_family (me : Sign.mode_entry) : fam_report =
    let fam = me.Sign.m_fam in
    let clause_loc cname =
      match Sign.decl_loc sg cname with
      | Some l -> l
      | None -> mode_loc me
    in
    let views =
      Telemetry.with_span "modes:clauses" (fun () ->
          let raw =
            match me.Sign.m_srt with
            | Some s ->
                (* a sort-level %mode is checked on the sort family's
                   clauses, erased: premise families resolve — like the
                   mode key itself — at the type level *)
                List.filter_map
                  (fun c ->
                    Option.map
                      (fun (srt, _) ->
                        ( (Sign.const_entry sg c).Sign.c_name,
                          Sign.erase_srt sg srt ))
                      (Sign.csort sg ~const:c ~family:s))
                  (Sign.constants_of_srt sg s)
            | None ->
                List.map
                  (fun c ->
                    let ce = Sign.const_entry sg c in
                    (ce.Sign.c_name, ce.Sign.c_typ))
                  (Sign.constants_of_typ sg fam)
          in
          List.filter_map
            (fun (cname, ct) ->
              let doms, a, concl = split_clause ct in
              if a <> fam then None  (* defensive: foreign target *)
              else
                Some
                  {
                    v_name = cname;
                    v_loc = clause_loc cname;
                    v_doms = Array.of_list doms;
                    v_concl = Array.of_list concl;
                  })
            raw)
    in
    Telemetry.add c_clauses (List.length views);
    let pol i =
      match List.nth_opt me.Sign.m_args i with
      | Some (p, _) -> Some p
      | None -> None
    in
    let illmoded = ref 0 in
    let ungrounded = ref 0 in
    let check_clause (v : view) =
      let n = Array.length v.v_doms in
      let domfv =
        Array.mapi (fun k (_, t) -> fv_typ ~depth:k 0 t ISet.empty) v.v_doms
      in
      let conclfv =
        Array.map (fun m -> fv_normal ~depth:n 0 m ISet.empty) v.v_concl
      in
      let occurs_later k =
        (let rec later j =
           j < n && (ISet.mem k domfv.(j) || later (j + 1))
         in
         later (k + 1))
        || Array.exists (ISet.mem k) conclfv
      in
      (* a variable invisible to the judgment (its family is not
         subordinate to [fam]) carries no groundness obligation *)
      let exempt =
        Array.map
          (fun (_, t) -> not (Subord.leq sub (Lf.typ_target t) fam))
          v.v_doms
      in
      let g = ref ISet.empty in
      Array.iteri
        (fun i fv -> if pol i = Some true then g := ISet.union !g fv)
        conclfv;
      let premises = ref [] in
      Array.iteri
        (fun k (_, t) ->
          let tgt = Lf.typ_target t in
          match Sign.mode_of sg tgt with
          | Some _ ->
              Telemetry.bump c_premises;
              premises := premise_spec sg ~k t :: !premises
          | None ->
              if not (occurs_later k) then begin
                (* an unmoded judgment premise: warn, then be
                   lenient so one missing %mode does not cascade *)
                warn_missing ~loc:v.v_loc
                  ~via:(fun () ->
                    Printf.sprintf "clause %s of %s" v.v_name me.Sign.m_name)
                  tgt;
                g := ISet.add k (ISet.union !g domfv.(k))
              end)
        v.v_doms;
      let ready p =
        ISet.for_all (fun x -> exempt.(x) || ISet.mem x !g) p.p_req
      in
      let pending = ref (List.rev !premises) in
      let rec fixpoint () =
        let fired = ref false in
        pending :=
          List.filter
            (fun p ->
              if ready p then begin
                g := ISet.union !g p.p_prod;
                fired := true;
                false
              end
              else true)
            !pending;
        if !fired && !pending <> [] then fixpoint ()
      in
      fixpoint ();
      match !pending with
      | p :: _ ->
          incr illmoded;
          let stuck =
            ISet.filter
              (fun x -> not (exempt.(x) || ISet.mem x !g))
              p.p_req
          in
          let witness =
            match ISet.min_elt_opt stuck with
            | Some x -> Name.to_string (fst v.v_doms.(x))
            | None -> "?"
          in
          Diagnostics.emit sink
            (Diagnostics.make ~loc:v.v_loc ~code:"E0730"
               Diagnostics.Error
               "clause %s of %s is ill-moded: the premise appealing to \
                %s can never be scheduled because its input variable %s \
                is never ground"
               v.v_name me.Sign.m_name (names p.p_fam) witness)
      | [] ->
          (* outputs only make sense once every premise ran *)
          let reported = ref false in
          Array.iteri
            (fun i fv ->
              if (not !reported) && pol i = Some false then
                match
                  ISet.min_elt_opt
                    (ISet.filter
                       (fun x -> not (exempt.(x) || ISet.mem x !g))
                       fv)
                with
                | Some x ->
                    reported := true;
                    incr ungrounded;
                    Diagnostics.emit sink
                      (Diagnostics.make ~loc:v.v_loc ~code:"E0731"
                         Diagnostics.Error
                         "clause %s of %s cannot ground output argument \
                          %d of its conclusion: variable %s is still \
                          free after all premises"
                         v.v_name me.Sign.m_name (i + 1)
                         (Name.to_string (fst v.v_doms.(x))))
                | None -> ())
            conclfv
    in
    Telemetry.with_span "modes:groundness" (fun () ->
        List.iter check_clause views);
    let nonunique = ref 0 in
    Telemetry.with_span "modes:unique" (fun () ->
        let arr = Array.of_list views in
        for i = 0 to Array.length arr - 1 do
          for j = i + 1 to Array.length arr - 1 do
            Telemetry.bump c_pairs;
            let vi = arr.(i) and vj = arr.(j) in
            let m = min (Array.length vi.v_concl) (Array.length vj.v_concl) in
            let clash_at p = clashes vi.v_concl.(p) vj.v_concl.(p) in
            let overlap = ref true in
            let diverge = ref false in
            for p = 0 to m - 1 do
              match pol p with
              | Some true -> if clash_at p then overlap := false
              | Some false -> if clash_at p then diverge := true
              | None -> ()
            done;
            if !overlap && !diverge then begin
              incr nonunique;
              Diagnostics.emit sink
                (Diagnostics.make ~loc:vj.v_loc ~code:"W0733"
                   Diagnostics.Warning
                   "clauses %s and %s of %s overlap on their inputs but \
                    produce divergent rigid outputs: the output of %s \
                    is not unique"
                   vi.v_name vj.v_name me.Sign.m_name me.Sign.m_name)
            end
          done
        done);
    {
      mf_fam = fam;
      mf_name = me.Sign.m_name;
      mf_sorted = me.Sign.m_srt <> None;
      mf_inputs =
        List.length (List.filter (fun (p, _) -> p) me.Sign.m_args);
      mf_outputs =
        List.length (List.filter (fun (p, _) -> not p) me.Sign.m_args);
      mf_clauses = List.length views;
      mf_illmoded = !illmoded;
      mf_ungrounded = !ungrounded;
      mf_nonunique = !nonunique;
    }
  in
  let fams =
    List.filter_map
      (fun (me : Sign.mode_entry) ->
        Diagnostics.recover sink ~loc:(mode_loc me) ~code:"E0201"
          (fun () -> check_family me))
      modes
  in
  (* a judgment family a rec induction appeals to should carry a
     mode too — but only nag signatures that opted into modes, and only
     at the first such rec in source order *)
  Telemetry.with_span "modes:recs" (fun () ->
      if modes <> [] then
        List.iter
          (fun (_, (re : Sign.rec_entry)) ->
            let loc =
              Option.value ~default:Loc.ghost
                (Sign.decl_loc sg re.Sign.r_name)
            in
            Refs.iter_ctyp
              (fun tgt ->
                let fam' =
                  match tgt with
                  | Refs.RTyp a -> Some a
                  | Refs.RSrt q ->
                      Some (Sign.srt_entry sg q).Sign.s_refines
                  | _ -> None
                in
                match fam' with
                | Some a
                  when Sign.mode_of sg a = None
                       && Lf.kind_arity (Sign.typ_entry sg a).Sign.t_kind
                          >= 1 ->
                    warn_missing ~loc
                      ~via:(fun () -> "rec " ^ re.Sign.r_name)
                      a
                | _ -> ())
              re.Sign.r_styp)
          (Sign.in_source_order sg
             (fun re -> re.Sign.r_name)
             (Sign.all_recs sg)));
  { mr_fams = fams; mr_modes = List.length modes; mr_missing = !missing }

(* --- report ------------------------------------------------------------- *)

let clean (f : fam_report) =
  f.mf_illmoded = 0 && f.mf_ungrounded = 0 && f.mf_nonunique = 0

let fam_json (f : fam_report) : Json.t =
  Json.Obj
    [
      ("name", Json.String f.mf_name);
      ("sorted", Json.Bool f.mf_sorted);
      ("inputs", Json.Int f.mf_inputs);
      ("outputs", Json.Int f.mf_outputs);
      ("clauses", Json.Int f.mf_clauses);
      ("illmoded", Json.Int f.mf_illmoded);
      ("ungrounded", Json.Int f.mf_ungrounded);
      ("nonunique", Json.Int f.mf_nonunique);
      ("clean", Json.Bool (clean f));
    ]

(** The report's own sections: per-family counts and the signature's
    mode/missing counts. *)
let sections (r : result) : (string * Json.t) list =
  [
    ("families", Json.List (List.map fam_json r.mr_fams));
    ( "signature",
      Json.Obj
        [ ("modes", Json.Int r.mr_modes); ("missing", Json.Int r.mr_missing) ]
    );
  ]

(** The serve reply payload. *)
let reply_json (r : result) : Json.t =
  Json.Obj
    [
      ("modes", Json.Int r.mr_modes);
      ("families", Json.Int (List.length r.mr_fams));
      ("clean", Json.Int (List.length (List.filter clean r.mr_fams)));
      ("missing", Json.Int r.mr_missing);
    ]

(** The [-v] listing: one verdict line per moded family. *)
let pp ppf (r : result) =
  Fmt.pf ppf "signature: %d mode declaration(s), %d missing@." r.mr_modes
    r.mr_missing;
  List.iter
    (fun f ->
      Fmt.pf ppf "modes %s : %s (%d clause(s), %d input(s), %d output(s))%s@."
        f.mf_name
        (if clean f then "clean" else "dirty")
        f.mf_clauses f.mf_inputs f.mf_outputs
        (if f.mf_sorted then "  [sort-level]" else ""))
    r.mr_fams
