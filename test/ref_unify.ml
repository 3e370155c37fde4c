(** Reference solution extraction: the test oracle for [Unify.solve].

    The unmemoized definition, written as directly as possible: the
    solution meta-substitution θ is rebuilt over the whole of Ω for every
    resolution, every [resolve_*] applies it to a fixpoint even when
    nothing is solved, and [solve] re-resolves a declaration each time it
    needs one.  It reads only the partial solution and the meta-context of
    a unification state, so [Unify.solve] and {!solve} can be run on the
    same state and their [(ρ, Ω′)] compared. *)

open Belr_support
open Belr_syntax
open Belr_lf
open Belr_unify
open Lf

let decl (st : Unify.state) i =
  match Msub.mctx_lookup_shifted st.Unify.omega i with
  | Some d -> d
  | None -> failwith "Ref_unify: unbound meta-variable"

(** A meta-substitution view of the current solution (identity on
    unsolved variables). *)
let sol_msub (st : Unify.state) : Meta.msub =
  let n = Array.length st.Unify.sol in
  let rec build i =
    if i > n then Meta.MShift 0
    else
      let tail = build (i + 1) in
      match st.Unify.sol.(i - 1) with
      | Some o -> Meta.MDot (o, tail)
      | None ->
          let front =
            match decl st i with
            | Meta.MDTerm (_, psi, _) ->
                Meta.MOTerm
                  (Meta.hat_of_sctx psi, mk_root (mk_mvar i (mk_shift 0)) [])
            | Meta.MDParam (_, psi, _, _) ->
                Meta.MOParam (Meta.hat_of_sctx psi, mk_pvar i (mk_shift 0))
            | Meta.MDCtx _ ->
                Meta.MOCtx
                  {
                    Ctxs.s_var = Some i;
                    Ctxs.s_promoted = false;
                    Ctxs.s_decls = [];
                  }
            | Meta.MDSub (_, psi1, _) ->
                Meta.MOSub (Meta.hat_of_sctx psi1, mk_shift 0)
          in
          Meta.MDot (front, tail)
  in
  build 1

(** Fully resolve solved meta-variables, to a fixpoint (solutions may
    mention other solved variables), under the unifier's depth fuel. *)
let rec resolve_normal st (m : normal) : normal =
  let m' = Msub.normal 0 (sol_msub st) m in
  if Equal.normal m m' then m
  else Limits.guard Unify.depth (fun () -> resolve_normal st m')

let rec resolve_srt st (s : srt) : srt =
  let s' = Msub.srt 0 (sol_msub st) s in
  if Equal.srt s s' then s
  else Limits.guard Unify.depth (fun () -> resolve_srt st s')

let rec resolve_sctx st (psi : Ctxs.sctx) : Ctxs.sctx =
  let psi' = Msub.sctx 0 (sol_msub st) psi in
  if Equal.sctx psi psi' then psi
  else Limits.guard Unify.depth (fun () -> resolve_sctx st psi')

let rec resolve_mobj st (o : Meta.mobj) : Meta.mobj =
  let o' = Msub.mobj 0 (sol_msub st) o in
  if Equal.mobj o o' then o
  else Limits.guard Unify.depth (fun () -> resolve_mobj st o')

(** Extract [(ρ, Ω′)] after unification succeeded. *)
let solve (st : Unify.state) : Meta.msub * Meta.mctx =
  let n = Array.length st.Unify.sol in
  (* 1. fully resolve solutions and declarations in Ω-space *)
  let resolved_sol =
    Array.init n (fun i ->
        match st.Unify.sol.(i) with
        | Some o -> Some (resolve_mobj st o)
        | None -> None)
  in
  let resolved_decl i =
    let d = decl st i in
    match d with
    | Meta.MDTerm (nm, psi, q) ->
        Meta.MDTerm (nm, resolve_sctx st psi, resolve_srt st q)
    | Meta.MDSub (nm, p1, p2) ->
        Meta.MDSub (nm, resolve_sctx st p1, resolve_sctx st p2)
    | Meta.MDCtx _ -> d
    | Meta.MDParam (nm, psi, f, ms) ->
        Meta.MDParam
          ( nm,
            resolve_sctx st psi,
            Msub.selem 0 (sol_msub st) f,
            List.map (resolve_normal st) ms )
  in
  let unsolved = ref [] in
  for i = n downto 1 do
    if resolved_sol.(i - 1) = None then unsolved := i :: !unsolved
  done;
  (* 2. topologically order unsolved variables: a variable must come
     after (outside) everything its declaration depends on *)
  let deps = Hashtbl.create 16 in
  List.iter
    (fun i ->
      let ds = Unify.decl_deps (resolved_decl i) in
      Hashtbl.replace deps i (List.filter (fun j -> List.mem j !unsolved) ds))
    !unsolved;
  let order_out = ref [] in
  let placed = Hashtbl.create 16 in
  let rec place i =
    if not (Hashtbl.mem placed i) then (
      Hashtbl.replace placed i ();
      List.iter place (try Hashtbl.find deps i with Not_found -> []);
      order_out := i :: !order_out)
  in
  List.iter place (List.rev !unsolved);
  let order_out = List.rev !order_out in
  let omega'_order = List.rev order_out in
  let m = List.length omega'_order in
  let remap i =
    let rec go k = function
      | [] -> Error.violation "Ref_unify: remap of a solved variable"
      | j :: rest -> if i = j then k else go (k + 1) rest
    in
    go 1 omega'_order
  in
  (* 3. variable-renaming msub r : Ω → Ω′ *)
  let remap_hat (h : Meta.hat) : Meta.hat =
    match h.Meta.hat_var with
    | Some i -> { h with Meta.hat_var = Some (remap i) }
    | None -> h
  in
  let var_front i =
    match resolved_decl i with
    | Meta.MDTerm (_, psi, _) ->
        Meta.MOTerm
          ( remap_hat (Meta.hat_of_sctx psi),
            mk_root (mk_mvar (remap i) (mk_shift 0)) [] )
    | Meta.MDParam (_, psi, _, _) ->
        Meta.MOParam
          (remap_hat (Meta.hat_of_sctx psi), mk_pvar (remap i) (mk_shift 0))
    | Meta.MDCtx _ ->
        Meta.MOCtx
          {
            Ctxs.s_var = Some (remap i);
            Ctxs.s_promoted = false;
            Ctxs.s_decls = [];
          }
    | Meta.MDSub (_, psi1, _) ->
        Meta.MOSub (remap_hat (Meta.hat_of_sctx psi1), mk_shift 0)
  in
  let dummy =
    Meta.MOCtx { Ctxs.s_var = None; Ctxs.s_promoted = false; Ctxs.s_decls = [] }
  in
  let r =
    let rec build i =
      if i > n then Meta.MShift m
      else
        Meta.MDot
          ( (if resolved_sol.(i - 1) = None then var_front i else dummy),
            build (i + 1) )
    in
    build 1
  in
  (* 4. final ρ : Ω → Ω′ *)
  let rho =
    let rec build i =
      if i > n then Meta.MShift m
      else
        let front =
          match resolved_sol.(i - 1) with
          | None -> var_front i
          | Some o -> Msub.mobj 0 r o
        in
        Meta.MDot (front, build (i + 1))
    in
    build 1
  in
  (* 5. Ω′ declarations: rename into Ω′ space, then relativize each to its
     own position *)
  let omega' =
    List.mapi
      (fun k i ->
        let d = Msub.mdecl 0 r (resolved_decl i) in
        Msub.mdecl 0 (Meta.MShift (-(k + 1))) d)
      omega'_order
  in
  (rho, omega')
