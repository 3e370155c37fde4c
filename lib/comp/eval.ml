(** A big-step, environment-based operational semantics for the
    computation level, so that mechanized proofs are {e runnable}
    functions: applying [ceq] to a boxed [deq] derivation really computes
    the boxed [aeq] derivation.

    Meta-variables are instantiated by the value environment (every
    scrutinee is ground at run time), and pattern matching reuses the
    unifier in matching mode: only the branch's pattern variables are
    flexible, and a match must solve all of them.

    Laziness (PR 9): a [Box] evaluates to a {e suspended} grounding —
    the meta-substitution of the environment is applied only when the
    box is scrutinized ([case]/[let box]) or observed ({!as_box}), so a
    boxed derivation passed through function arguments and returned
    unopened never forces its full normal form.  The environment's
    meta-substitution itself is built once per [vmeta] spine and cached
    ({!theta_of}), instead of being rebuilt at every [Box]/[MApp].

    Fuel: evaluation counts steps against the [Limits]-style
    configurable budget ({!Belr_support.Limits.set_eval_fuel}, the CLI's
    [--max-eval-steps]); exhaustion raises
    {!Belr_support.Limits.Fuel_exhausted}, which the diagnostics engine
    renders as the stable [E0905] error — so [--max-errors], [--werror],
    and the exit-code contract apply to runaway evaluation exactly as
    they do to runaway recursion ([E0901]) and missed deadlines
    ([E0903]). *)

open Belr_support
open Belr_syntax
open Belr_lf
open Belr_unify

type value =
  | VBox of Meta.mobj Lazy.t
      (** ground contextual object, grounded on first observation *)
  | VFn of env * Name.t * Comp.exp
  | VMLam of env * Name.t * Comp.exp

and env = {
  sg : Sign.t;
  vmeta : Meta.mobj list;  (** ground instantiations of Ω, innermost first *)
  vcomp : value list;  (** values of Φ, innermost first *)
  mutable vtheta : Meta.msub option;
      (** cache of {!theta_of} for this [vmeta] spine; never shared
          across environments with different [vmeta] *)
}

let make_env sg = { sg; vmeta = []; vcomp = []; vtheta = None }

(* Environment extension goes through these helpers so the theta cache is
   invalidated exactly when [vmeta] changes (a [with]-copy would silently
   carry the stale cache along). *)

let push_meta (e : env) (mo : Meta.mobj) : env =
  { e with vmeta = mo :: e.vmeta; vtheta = None }

let push_metas (e : env) (mos : Meta.mobj list) : env =
  { e with vmeta = mos @ e.vmeta; vtheta = None }

let push_comp (e : env) (v : value) : env =
  (* vmeta is unchanged: sharing the cached theta is sound *)
  { e with vcomp = v :: e.vcomp }

(** The ground meta-substitution corresponding to the environment
    (computed once per [vmeta] spine). *)
let theta_of (e : env) : Meta.msub =
  match e.vtheta with
  | Some th -> th
  | None ->
      (* vmeta is innermost first, exactly the order of msub fronts *)
      let th =
        List.fold_right
          (fun o acc -> Meta.MDot (o, acc))
          e.vmeta (Meta.MShift 0)
      in
      e.vtheta <- Some th;
      th

let rec eval ?fuel (e : env) (f : Comp.exp) : value =
  let fuel =
    match fuel with Some n -> n | None -> Limits.eval_fuel_limit ()
  in
  if fuel <= 0 then begin
    Limits.trip ();
    raise (Limits.Fuel_exhausted (Limits.eval_fuel_limit ()))
  end;
  let fuel = fuel - 1 in
  match f with
  | Comp.Var i -> (
      match List.nth_opt e.vcomp (i - 1) with
      | Some v -> v
      | None -> Error.violation "eval: unbound computation variable %d" i)
  | Comp.RecConst r -> (
      match (Sign.rec_entry e.sg r).Sign.r_body with
      | Some body -> eval ~fuel (make_env e.sg) body
      | None -> Error.raise_msg "function %s has no body yet"
                  (Sign.rec_entry e.sg r).Sign.r_name)
  | Comp.Box mo -> VBox (lazy (Msub.mobj 0 (theta_of e) mo))
  | Comp.Fn (x, _, body) -> VFn (e, x, body)
  | Comp.MLam (x, body) -> VMLam (e, x, body)
  | Comp.App (f1, f2) -> (
      let v1 = eval ~fuel e f1 in
      let v2 = eval ~fuel e f2 in
      match v1 with
      | VFn (env', _, body) -> eval ~fuel (push_comp env' v2) body
      | _ -> Error.violation "eval: application of a non-function")
  | Comp.MApp (f1, mo) -> (
      let v1 = eval ~fuel e f1 in
      let mo' = Msub.mobj 0 (theta_of e) mo in
      match v1 with
      | VMLam (env', _, body) -> eval ~fuel (push_meta env' mo') body
      | _ -> Error.violation "eval: meta-application of a non-mlam")
  | Comp.LetBox (_, f1, f2) -> (
      match eval ~fuel e f1 with
      | VBox mo -> eval ~fuel (push_meta e (Lazy.force mo)) f2
      | _ -> Error.violation "eval: let box of a non-box value")
  | Comp.Case (_, scrut, branches) -> (
      match eval ~fuel e scrut with
      | VBox mo -> eval_case ~fuel e (Lazy.force mo) branches
      | _ -> Error.violation "eval: case scrutinee is not a box")

and eval_case ~fuel (e : env) (scrut : Meta.mobj) (branches : Comp.branch list)
    : value =
  match branches with
  | [] -> Error.raise_msg "match failure: no branch covers the scrutinee"
  | br :: rest -> (
      match match_branch e scrut br with
      | Some insts ->
          (* the body lives in Ω, Ω₀: extending the environment with the
             matched instantiations grounds the pattern variables *)
          eval ~fuel (push_metas e insts) br.Comp.br_body
      | None -> eval_case ~fuel e scrut rest)

(** Try to match [scrut] against a branch.  The branch's pattern lives in
    [Ω, Ω₀]; grounding the ambient Ω with the environment leaves only the
    pattern variables [Ω₀] free.  On success returns their ground
    instantiations (innermost first). *)
and match_branch (e : env) (scrut : Meta.mobj) (br : Comp.branch) :
    Meta.mobj list option =
  let n0 = List.length br.Comp.br_mctx in
  let theta = theta_of e in
  (* ground the ambient references of the branch's pattern context and
     pattern: afterwards only indices 1..n0 (the pattern variables) remain *)
  let omega0 = Msub.mctx_local 0 theta br.Comp.br_mctx in
  let pat = Msub.mobj n0 theta br.Comp.br_pat in
  let st = Unify.make ~sg:e.sg ~omega:omega0 ~flex:(fun i -> i <= n0) in
  match Unify.unify_mobj st pat (Msub.mobj 0 (Meta.MShift n0) scrut) with
  | exception Unify.Unify _ -> None
  | () -> (
      (* parameter variables solved to concrete blocks determine their
         world instantiations *)
      Unify.refine_solved_params st;
      match Unify.solve st with
      | exception Unify.Unify _ -> None
      | rho, omega' ->
          if omega' <> [] then
            (* stuck match: pattern variables remain uninstantiated *)
            None
          else
            let rec fronts i theta =
              if i > n0 then []
              else
                match theta with
                | Meta.MDot (o, theta') -> o :: fronts (i + 1) theta'
                | Meta.MShift _ ->
                    Error.violation "eval: match produced a short msub"
            in
            Some (fronts 1 rho))

(** Force a value to a ground contextual object (for printing/tests). *)
let as_box : value -> Meta.mobj = function
  | VBox mo -> Lazy.force mo
  | _ -> Error.raise_msg "value is not a boxed object"
