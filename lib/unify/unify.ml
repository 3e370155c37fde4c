open Belr_support
open Belr_syntax
open Belr_lf
open Belr_meta
open Lf

exception Unify of string

(* Telemetry: one counter per interesting unifier operation.  There is no
   postponement in this decidable pattern fragment — problems either solve
   or fail — so the counters are problems/solved-variables/occurs-checks/
   failures. *)

let c_problems = Telemetry.counter "unify.problems"

let c_solved = Telemetry.counter "unify.solved_vars"

(* builds of the solution meta-substitution θ: at most one per solved
   variable, none for a problem that solves nothing *)
let c_substs = Telemetry.counter "unify.solution_substs"

let c_occurs = Telemetry.counter "unify.occurs_checks"

let c_failures = Telemetry.counter "unify.failures"

let fail fmt =
  Telemetry.bump c_failures;
  Format.kasprintf (fun s -> raise (Unify s)) fmt

let depth = Limits.counter "unification"

type state = {
  sg : Sign.t;
  omega : Meta.mctx;
  flex : int -> bool;
  sol : Meta.mobj option array;
  decls : Meta.mdecl Lazy.t array;
  mutable outermost : int;
  mutable theta : Meta.msub option;
}

let make ~sg ~omega ~flex =
  Telemetry.bump c_problems;
  let decls =
    Array.of_list
      (List.mapi (fun k d -> lazy (Shift.mshift_mdecl (k + 1) 0 d)) omega)
  in
  {
    sg;
    omega;
    flex;
    sol = Array.make (Array.length decls) None;
    decls;
    outermost = 0;
    theta = None;
  }

let lookup_sol st i = if i <= Array.length st.sol then st.sol.(i - 1) else None

let set_sol st i o =
  if not (st.flex i) then
    Error.violation "unify: attempt to solve a rigid variable";
  Telemetry.bump c_solved;
  st.sol.(i - 1) <- Some o;
  if i > st.outermost then st.outermost <- i;
  st.theta <- None

let decl st i =
  if i >= 1 && i <= Array.length st.decls then Lazy.force st.decls.(i - 1)
  else Error.violation "unify: unbound meta-variable %d" i

(* --- resolution: apply the current partial solution --------------------- *)

(** A meta-substitution view of the current solution: identity fronts at
    the unsolved variables inside the outermost solved one, then the
    identity shift past it.  Built once per solution state. *)
let sol_msub st : Meta.msub =
  match st.theta with
  | Some theta -> theta
  | None ->
      Telemetry.bump c_substs;
      let rec build i =
        if i > st.outermost then Meta.MShift st.outermost
        else
          let front =
            match st.sol.(i - 1) with
            | Some o -> o
            | None -> (
                match decl st i with
                | Meta.MDTerm (_, psi, _) ->
                    Meta.MOTerm
                      ( Meta.hat_of_sctx psi,
                        mk_root (mk_mvar i (mk_shift 0)) [] )
                | Meta.MDParam (_, psi, _, _) ->
                    Meta.MOParam
                      (Meta.hat_of_sctx psi, mk_pvar i (mk_shift 0))
                | Meta.MDCtx _ ->
                    Meta.MOCtx
                      {
                        Ctxs.s_var = Some i;
                        Ctxs.s_promoted = false;
                        Ctxs.s_decls = [];
                      }
                | Meta.MDSub (_, psi1, _) ->
                    Meta.MOSub (Meta.hat_of_sctx psi1, mk_shift 0))
          in
          Meta.MDot (front, build (i + 1))
      in
      let theta = build 1 in
      st.theta <- Some theta;
      theta

(** Fully resolve an object's solved meta-variables: apply θ to a
    fixpoint (solutions may mention other solved variables).  While
    nothing is solved θ is the identity, so the object is returned as
    is. *)
let resolve apply equal st x =
  if st.outermost = 0 then x
  else
    let theta = sol_msub st in
    let rec go x =
      let x' = apply 0 theta x in
      if equal x x' then x else Limits.guard depth (fun () -> go x')
    in
    go x

let resolve_normal st = resolve Msub.normal Equal.normal st

let resolve_srt st = resolve Msub.srt Equal.srt st

let resolve_sctx st = resolve Msub.sctx Equal.sctx st

let resolve_mobj st = resolve Msub.mobj Equal.mobj st

let resolve_sub st = resolve Msub.sub Equal.sub st

let resolve_msrt st = resolve Msub.msrt Equal.msrt st

(** Weak-head resolution (PR 9): splice in the solution of a {e head}
    meta-variable and hereditarily reduce it against the spine, repeating
    until the head is rigid or unsolved.  Deep occurrences of solved
    variables stay in place — the rigid-rigid decomposition reaches them
    one constructor at a time, so a solved variable buried in an argument
    that the comparison never needs is never substituted out.  This is
    the unifier's analogue of {!Belr_lf.Whnf.whnf_normal}; a solution
    is resolved in full ({!resolve_normal}) only where it must be, before
    the occurs check and inversion in [solve_mvar]. *)
let rec head_unfold st (m : normal) : normal =
  match m with
  | Root (MVar (u, s), sp) -> (
      match lookup_sol st u with
      | Some (Meta.MOTerm (_, n)) ->
          Limits.guard depth (fun () ->
              head_unfold st (Hsub.reduce (Hsub.sub_normal s n) sp))
      | Some _ -> raise (Unify "term meta-variable solved by a non-term")
      | None -> m)
  | _ -> m

(* --- occurs check ------------------------------------------------------- *)

(** Occurs check over the sharing structure: hash-consed terms are DAGs,
    and a plain structural descent revisits shared subtrees as often as
    they are referenced.  The verdict is memoized per node id for the one
    query variable (the table lives only for this check — solutions
    recorded later could change the answer). *)
let occurs_normal (u : int) (m : normal) : bool =
  let seen : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let rec go_n m =
    let id = normal_id m in
    match Hashtbl.find_opt seen id with
    | Some b -> b
    | None ->
        let b =
          match m with
          | Lam (_, n) -> go_n n
          | Root (h, sp) -> go_h h || List.exists go_n sp
        in
        Hashtbl.add seen id b;
        b
  and go_h = function
    | Const _ | BVar _ -> false
    | MVar (v, s) | PVar (v, s) -> v = u || go_s s
    | Proj (b, _) -> go_h b
  and go_s = function
    | Empty | Shift _ -> false
    | Dot (f, s) ->
        (match f with
        | Obj m -> go_n m
        | Tup t -> List.exists go_n t
        | Undef -> false)
        || go_s s
  in
  go_n m

let occurs_head u h = occurs_normal u (mk_root h [])

(* --- pattern substitutions and inversion -------------------------------- *)

(** View a pattern substitution as a finite map [range-var ↦ domain-index]
    plus a tail shift.  Entries must be distinct bare variables or
    projections. *)
type pat_entry = Pvar of int | Pproj of int * int

let rec pat_view (s : sub) (dom_i : int) (acc : (pat_entry * int) list) :
    ((pat_entry * int) list * int option) option =
  (* returns (entries, tail_shift); tail_shift None for Empty *)
  match s with
  | Empty -> Some (acc, None)
  | Shift n -> Some (acc, Some n)
  | Dot (Obj (Root (BVar j, [])), s') ->
      if List.exists (fun (e, _) -> e = Pvar j) acc then None
      else pat_view s' (dom_i + 1) ((Pvar j, dom_i) :: acc)
  | Dot (Obj (Root (Proj (BVar j, k), [])), s') ->
      if List.exists (fun (e, _) -> e = Pproj (j, k)) acc then None
      else pat_view s' (dom_i + 1) ((Pproj (j, k), dom_i) :: acc)
  | Dot (Obj (Lam _), _) ->
      (* η-long functional entries would require recognizing η-expansions
         of variables; outside the supported fragment *)
      None
  | Dot _ -> None

let is_identity (s : sub) : bool =
  match s with
  | Shift 0 -> true
  | _ -> false

let invert_term (s : sub) (m : normal) : normal =
  if is_identity s then m
  else
    match pat_view s 1 [] with
    | None -> fail "substitution is not a pattern; cannot invert"
    | Some (entries, tail) ->
        let invert_var j =
          match List.assoc_opt (Pvar j) entries with
          | Some d -> mk_bvar d
          | None -> (
              match tail with
              | Some n when j > n ->
                  (* tail shift: range var j came from domain var j - n +
                     (number of explicit entries) *)
                  mk_bvar (j - n + List.length entries)
              | _ -> fail "variable escapes the pattern substitution")
        in
        let invert_proj j k =
          match List.assoc_opt (Pproj (j, k)) entries with
          | Some d -> mk_bvar d
          | None -> (
              match tail with
              | Some n when j > n -> mk_proj (mk_bvar (j - n + List.length entries)) k
              | _ -> fail "projection escapes the pattern substitution")
        in
        let rec go_head c = function
          | Const _ as h -> h
          | BVar j as h ->
              if j <= c then h else shift_entry c (invert_var (j - c))
          | Proj (BVar j, k) as h ->
              if j <= c then h else shift_entry c (invert_proj (j - c) k)
          | Proj (b, k) -> mk_proj (go_head c b) k
          | MVar (u, s') -> mk_mvar u (go_sub c s')
          | PVar (p, s') -> mk_pvar p (go_sub c s')
        and shift_entry c h = Shift.shift_head c 0 h
        and go_normal c = function
          | Lam (x, m) -> mk_lam x (go_normal (c + 1) m)
          | Root (h, sp) -> mk_root (go_head c h) (List.map (go_normal c) sp)
        and go_sub c = function
          | Empty as s -> s
          | Shift _ ->
              fail "shift under inverted substitution is not supported"
          | Dot (Obj m, s') -> mk_dot (Obj (go_normal c m)) (go_sub c s')
          | Dot (Tup t, s') -> mk_dot (Tup (List.map (go_normal c) t)) (go_sub c s')
          | Dot (Undef, s') -> mk_dot Undef (go_sub c s')
        in
        go_normal 0 m

(* --- the unifier --------------------------------------------------------- *)

let rec unify_normal st (m1 : normal) (m2 : normal) : unit =
  Fault.hit "unify";
  Limits.guard depth (fun () -> unify_normal_inner st m1 m2)

and unify_normal_inner st (m1 : normal) (m2 : normal) : unit =
  let m1 = head_unfold st m1 and m2 = head_unfold st m2 in
  if Equal.normal m1 m2 then ()
  else
  match (m1, m2) with
  | Lam (_, n1), Lam (_, n2) -> unify_normal st n1 n2
  | Root (MVar (u, s), []), m when st.flex u && lookup_sol st u = None ->
      solve_mvar st u s m
  | m, Root (MVar (u, s), []) when st.flex u && lookup_sol st u = None ->
      solve_mvar st u s m
  | Root (h1, sp1), Root (h2, sp2) ->
      unify_head st h1 h2;
      unify_spine st sp1 sp2
  | _ ->
      fail "cannot unify an abstraction with a neutral term"

and solve_mvar st (u : int) (s : sub) (m : normal) : unit =
  (* under lazy head-unfolding [m] may still mention solved variables
     whose solutions mention [u]; resolve fully before the occurs check
     and inversion (a fixpoint no-op when already resolved) *)
  let m = resolve_normal st m in
  Telemetry.bump c_occurs;
  if occurs_normal u m then fail "occurs check failed";
  let m' = invert_term s m in
  let psi =
    match decl st u with
    | Meta.MDTerm (_, psi, _) -> resolve_sctx st psi
    | _ -> fail "term meta-variable expected"
  in
  set_sol st u (Meta.MOTerm (Meta.hat_of_sctx psi, m'))

and unify_head st (h1 : head) (h2 : head) : unit =
  match (h1, h2) with
  | Const c1, Const c2 when c1 = c2 -> ()
  | BVar i, BVar j when i = j -> ()
  | Proj (b1, k1), Proj (b2, k2) when k1 = k2 -> unify_proj_base st b1 b2
  | MVar (u1, s1), MVar (u2, s2) when u1 = u2 ->
      (* cheap structural check first; under lazy head-unfolding the subs
         may still mention solved variables, so resolve before failing *)
      if
        not
          (Equal.sub s1 s2
          || Equal.sub (resolve_sub st s1) (resolve_sub st s2))
      then fail "meta-variable under two different substitutions"
  | PVar (p1, s1), PVar (p2, s2) when p1 = p2 ->
      if
        not
          (Equal.sub s1 s2
          || Equal.sub (resolve_sub st s1) (resolve_sub st s2))
      then fail "parameter variable under two different substitutions"
  | _ -> fail "head mismatch"

and unify_proj_base st (b1 : head) (b2 : head) : unit =
  match (b1, b2) with
  | PVar (p, s), b when st.flex p && lookup_sol st p = None ->
      solve_pvar st p s b
  | b, PVar (p, s) when st.flex p && lookup_sol st p = None ->
      solve_pvar st p s b
  | _ -> unify_head st b1 b2

and solve_pvar st (p : int) (s : sub) (b : head) : unit =
  (match b with
  | BVar _ | PVar _ -> ()
  | _ -> fail "parameter variable can only be a block or parameter variable");
  Telemetry.bump c_occurs;
  if occurs_head p b then fail "occurs check failed (parameter)";
  let b' =
    if is_identity s then b
    else
      match invert_term s (mk_root b []) with
      | Root (b', []) -> b'
      | _ -> fail "parameter inversion produced a non-variable"
  in
  let psi =
    match decl st p with
    | Meta.MDParam (_, psi, _, _) -> resolve_sctx st psi
    | _ -> fail "parameter meta-variable expected"
  in
  set_sol st p (Meta.MOParam (Meta.hat_of_sctx psi, b'))

and unify_spine st sp1 sp2 =
  if List.length sp1 <> List.length sp2 then fail "spine length mismatch";
  List.iter2 (unify_normal st) sp1 sp2

let unify_sub st (s1 : sub) (s2 : sub) : unit =
  let rec go s1 s2 =
    match (s1, s2) with
    | Empty, Empty -> ()
    | Shift n, Shift m when n = m -> ()
    | Dot (f1, s1'), Dot (f2, s2') ->
        (match (f1, f2) with
        | Obj m1, Obj m2 -> unify_normal st m1 m2
        | Tup t1, Tup t2 -> unify_spine st t1 t2
        | Undef, Undef -> ()
        | _ -> fail "substitution front mismatch");
        go s1' s2'
    | _ -> fail "substitution mismatch"
  in
  go s1 s2

let rec unify_srt ?(leq = false) st (s1 : srt) (s2 : srt) : unit =
  let s1 = resolve_srt st s1 and s2 = resolve_srt st s2 in
  match (s1, s2) with
  | SAtom (c1, sp1), SAtom (c2, sp2) when c1 = c2 -> unify_spine st sp1 sp2
  | SEmbed (a1, sp1), SEmbed (a2, sp2) when a1 = a2 -> unify_spine st sp1 sp2
  | SAtom (c1, sp1), SEmbed (a2, sp2)
    when leq && (Sign.srt_entry st.sg c1).Sign.s_refines = a2 ->
      unify_spine st sp1 sp2
  | SPi (_, s1a, s1b), SPi (_, s2a, s2b) ->
      unify_srt ~leq st s1a s2a;
      unify_srt ~leq st s1b s2b
  | _ -> fail "sort mismatch"

let unify_sctx st (p1 : Ctxs.sctx) (p2 : Ctxs.sctx) : unit =
  let p1 = resolve_sctx st p1 and p2 = resolve_sctx st p2 in
  if p1.Ctxs.s_var <> p2.Ctxs.s_var then fail "context variable mismatch";
  if p1.Ctxs.s_promoted <> p2.Ctxs.s_promoted then fail "promotion mismatch";
  if List.length p1.Ctxs.s_decls <> List.length p2.Ctxs.s_decls then
    fail "context length mismatch";
  List.iter2
    (fun d1 d2 ->
      match (d1, d2) with
      | Ctxs.SCDecl (_, s1), Ctxs.SCDecl (_, s2) -> unify_srt st s1 s2
      | Ctxs.SCBlock (_, f1, ms1), Ctxs.SCBlock (_, f2, ms2) ->
          if not (Equal.selem f1 f2) then fail "world mismatch";
          unify_spine st ms1 ms2
      | _ -> fail "context entry mismatch")
    p1.Ctxs.s_decls p2.Ctxs.s_decls

let unify_msrt ?(leq = false) st (s1 : Meta.msrt) (s2 : Meta.msrt) : unit =
  match (resolve_msrt st s1, resolve_msrt st s2) with
  | Meta.MSTerm (p1, q1), Meta.MSTerm (p2, q2) ->
      unify_sctx st p1 p2;
      unify_srt ~leq st q1 q2
  | Meta.MSSub (p1, q1), Meta.MSSub (p2, q2) ->
      unify_sctx st p1 p2;
      unify_sctx st q1 q2
  | Meta.MSCtx h1, Meta.MSCtx h2 when h1 = h2 -> ()
  | Meta.MSParam (p1, f1, ms1), Meta.MSParam (p2, f2, ms2) ->
      unify_sctx st p1 p2;
      if not (Equal.selem f1 f2) then fail "world mismatch";
      unify_spine st ms1 ms2
  | _ -> fail "contextual sort mismatch"

let unify_mobj st (o1 : Meta.mobj) (o2 : Meta.mobj) : unit =
  match (resolve_mobj st o1, resolve_mobj st o2) with
  | Meta.MOTerm (_, m1), Meta.MOTerm (_, m2) -> unify_normal st m1 m2
  | Meta.MOSub (_, s1), Meta.MOSub (_, s2) -> unify_sub st s1 s2
  | Meta.MOCtx p1, Meta.MOCtx p2 -> unify_sctx st p1 p2
  | Meta.MOParam (_, b1), Meta.MOParam (_, b2) -> unify_proj_base st b1 b2
  | Meta.MOTerm (_, Root (MVar (u, s), [])), Meta.MOParam (h, b)
  | Meta.MOParam (h, b), Meta.MOTerm (_, Root (MVar (u, s), [])) ->
      ignore (u, s, h, b);
      fail "cannot unify a term with a parameter object"
  | _ -> fail "contextual object mismatch"

let refine_solved_params (st : state) : unit =
  Array.iteri
    (fun i0 sol ->
      match sol with
      | Some (Meta.MOParam (_, BVar j)) -> (
          let i = i0 + 1 in
          match decl st i with
          | Meta.MDParam (_, psi, _, ms_p) -> (
              let psi = resolve_sctx st psi in
              match Ctxs.sctx_lookup psi j with
              | Some (Ctxs.SCBlock (_, _, ms_c)) -> (
                  let ms_c = List.map (Shift.shift_normal j 0) ms_c in
                  try
                    unify_spine st (List.map (resolve_normal st) ms_p) ms_c
                  with Unify _ -> ())
              | _ -> ())
          | _ -> ())
      | _ -> ())
    st.sol

(* --- extraction ----------------------------------------------------------- *)

let decl_deps (d : Meta.mdecl) : int list =
  let acc = ref [] in
  let add i = if not (List.mem i !acc) then acc := i :: !acc in
  let rec h_head = function
    | Const _ | BVar _ -> ()
    | MVar (u, s) | PVar (u, s) ->
        add u;
        h_sub s
    | Proj (b, _) -> h_head b
  and h_normal = function
    | Lam (_, m) -> h_normal m
    | Root (hd, sp) ->
        h_head hd;
        List.iter h_normal sp
  and h_sub = function
    | Empty | Shift _ -> ()
    | Dot (Obj m, s) ->
        h_normal m;
        h_sub s
    | Dot (Tup t, s) ->
        List.iter h_normal t;
        h_sub s
    | Dot (Undef, s) -> h_sub s
  and h_srt = function
    | SAtom (_, sp) | SEmbed (_, sp) -> List.iter h_normal sp
    | SPi (_, s1, s2) ->
        h_srt s1;
        h_srt s2
  and h_selem (f : Ctxs.selem) =
    List.iter (fun (_, s) -> h_srt s) f.Ctxs.f_params;
    List.iter (fun (_, s) -> h_srt s) f.Ctxs.f_block
  and h_sctx (psi : Ctxs.sctx) =
    (match psi.Ctxs.s_var with Some i -> add i | None -> ());
    List.iter
      (function
        | Ctxs.SCDecl (_, s) -> h_srt s
        | Ctxs.SCBlock (_, f, ms) ->
            h_selem f;
            List.iter h_normal ms)
      psi.Ctxs.s_decls
  in
  (match d with
  | Meta.MDTerm (_, psi, q) ->
      h_sctx psi;
      h_srt q
  | Meta.MDSub (_, p1, p2) ->
      h_sctx p1;
      h_sctx p2
  | Meta.MDCtx (_, _) -> ()
  | Meta.MDParam (_, psi, f, ms) ->
      h_sctx psi;
      h_selem f;
      List.iter h_normal ms);
  !acc

(** Declaration of variable [i], transported into full Ω space and
    resolved. *)
let resolved_decl st i : Meta.mdecl =
  match decl st i with
  | Meta.MDTerm (nm, psi, q) ->
      Meta.MDTerm (nm, resolve_sctx st psi, resolve_srt st q)
  | Meta.MDSub (nm, p1, p2) ->
      Meta.MDSub (nm, resolve_sctx st p1, resolve_sctx st p2)
  | Meta.MDCtx _ as d -> d
  | Meta.MDParam (nm, psi, f, ms) ->
      let f = if st.outermost = 0 then f else Msub.selem 0 (sol_msub st) f in
      Meta.MDParam
        (nm, resolve_sctx st psi, f, List.map (resolve_normal st) ms)

let solve (st : state) : Meta.msub * Meta.mctx =
  let n = Array.length st.sol in
  (* 1. fully resolve solutions and declarations in Ω-space *)
  let resolved_sol = Array.map (Option.map (resolve_mobj st)) st.sol in
  let is_unsolved j =
    j >= 1 && j <= n && Option.is_none resolved_sol.(j - 1)
  in
  let rdecls =
    Array.init n (fun i0 ->
        if is_unsolved (i0 + 1) then Some (resolved_decl st (i0 + 1))
        else None)
  in
  let rdecl i =
    match rdecls.(i - 1) with
    | Some d -> d
    | None -> Error.violation "unify: declaration of a solved variable"
  in
  (* 2. topologically order unsolved variables: a variable must come
     after (outside) everything its declaration depends on.  We visit in
     the original outermost-to-innermost order for stability. *)
  let deps = Array.make (n + 1) [] in
  for i = 1 to n do
    if is_unsolved i then
      deps.(i) <- List.filter is_unsolved (decl_deps (rdecl i))
  done;
  (* order_out: innermost first once complete, as Ω′ stores it *)
  let order_out = ref [] in
  let placed = Array.make (n + 1) false in
  let rec place i =
    if not placed.(i) then (
      placed.(i) <- true;
      (* place dependencies first (they must be more outer) *)
      List.iter place deps.(i);
      order_out := i :: !order_out)
  in
  for i = n downto 1 do
    if is_unsolved i then place i
  done;
  let omega'_order = !order_out in
  let m = List.length omega'_order in
  (* remap: Ω index ↦ Ω′ index (1-based innermost); 0 at solved ones *)
  let remap_tbl = Array.make (n + 1) 0 in
  List.iteri (fun k i -> remap_tbl.(i) <- k + 1) omega'_order;
  let remap i =
    if remap_tbl.(i) = 0 then
      Error.violation "unify: remap of a solved variable"
    else remap_tbl.(i)
  in
  (* 3. variable-renaming msub r : Ω → Ω′ (dummy fronts at solved
     positions; resolved solutions never mention solved variables).  The
     fronts live in Ω′ space: indices and hat roots are remapped.  Context
     variables are never solved, so remapping hat roots is total. *)
  let remap_hat (h : Meta.hat) : Meta.hat =
    match h.Meta.hat_var with
    | Some i -> { h with Meta.hat_var = Some (remap i) }
    | None -> h
  in
  let var_front i =
    match rdecl i with
    | Meta.MDTerm (_, psi, _) ->
        Meta.MOTerm
          ( remap_hat (Meta.hat_of_sctx psi),
            mk_root (mk_mvar (remap i) (mk_shift 0)) [] )
    | Meta.MDParam (_, psi, _, _) ->
        Meta.MOParam (remap_hat (Meta.hat_of_sctx psi), mk_pvar (remap i) (mk_shift 0))
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
  let fronts =
    Array.init n (fun i0 ->
        if is_unsolved (i0 + 1) then var_front (i0 + 1) else dummy)
  in
  let msub_of front_at =
    let rec build i =
      if i > n then Meta.MShift m
      else
        let front = front_at i in
        Meta.MDot (front, build (i + 1))
    in
    build 1
  in
  let r = msub_of (fun i -> fronts.(i - 1)) in
  (* 4. final ρ : Ω → Ω′ *)
  let rho =
    msub_of (fun i ->
        match resolved_sol.(i - 1) with
        | Some o -> Msub.mobj 0 r o
        | None -> fronts.(i - 1))
  in
  (* 5. Ω′ declarations: rename into Ω′ space, then relativize each to its
     own position *)
  let omega' =
    List.mapi
      (fun k i ->
        (* k is 0-based from innermost; entry must be valid outside its
           position: shift down by (k + 1) *)
        let d = Msub.mdecl 0 r (rdecl i) in
        Shift.mshift_mdecl (-(k + 1)) 0 d)
      omega'_order
  in
  (rho, omega')
