(** Typed λ-calculus with {e parameterized} schema worlds.

    The §2 example's blocks take no parameters; this example exercises
    the general form [Πy:A.Σx:A'. …] of schema elements (§3.1.2): typing
    contexts whose blocks are parameterized by the variable's type,
    [schema tG = tW : {A : tp} block (x : tm, t : oft x A)].

    It declares simple types, Church-style terms, and the typing
    judgment, then runs a small type-inference function written by
    pattern matching on typing derivations (including the
    parameter-variable case [#b.2] whose world instantiation [tW A0] is
    itself a pattern variable).

    Run with: [dune exec examples/typed_lambda.exe] *)

open Belr_syntax
open Belr_lf
open Belr_core
open Belr_comp
open Belr_kits
open Lf

let program =
  {bel|
LF tp : type =
| base : tp
| arr : tp -> tp -> tp;

LF tm : type =
| lam : tp -> (tm -> tm) -> tm
| app : tm -> tm -> tm;

LF oft : tm -> tp -> type =
| t-lam : {A : tp} ({x : tm} oft x A -> oft (M x) B)
          -> oft (lam A M) (arr A B)
| t-app : oft M (arr A B) -> oft N A -> oft (app M N) B;

% blocks parameterized by the variable's type
schema tG = | tW : {A : tp} block (x : tm, t : oft x A);

% a tiny type-inference function: reading the type off the derivation
rec infer : (Psi : tG) (M : [Psi |- tm]) (A : [Psi |- tp])
            [Psi |- oft M A] -> [Psi |- tp] =
mlam Psi => mlam M => mlam A => fn d =>
case d of
| {A0 : [Psi |- tp]} {#b : #[Psi |- tW A0]}
  [Psi |- #b.2] => [Psi |- A0]
| {A0 : [Psi |- tp]} {B0 : [Psi |- tp]} {M' : [Psi, x : tm |- tm]}
  {D : [Psi, x : tm, t : oft x A0 |- oft M' B0]}
  [Psi |- t-lam (\x. M') B0 A0 (\x. \t. D)] => [Psi |- arr A0 B0]
| {M0 : [Psi |- tm]} {A0 : [Psi |- tp]} {B0 : [Psi |- tp]} {N0 : [Psi |- tm]}
  {D1 : [Psi |- oft M0 (arr A0 B0)]} {D2 : [Psi |- oft N0 A0]}
  [Psi |- t-app M0 A0 B0 N0 D1 D2] => [Psi |- B0];
|bel}

let () =
  Fmt.pr "=== typed λ-calculus: parameterized schema worlds ===@.@.";
  let sg = Belr_parser.Process.program ~name:"typed.bel" program in
  Fmt.pr "-> program checked@.@.";
  let penv = Sign.pp_env sg in
  let base = Lookup.find_const sg "base"
  and arr = Lookup.find_const sg "arr"
  and lam = Lookup.find_const sg "lam"
  and t_lam = Lookup.find_const sg "t-lam"
  and t_app = Lookup.find_const sg "t-app" in
  let infer = Lookup.find_rec sg "infer" in
  let hat0 = { Meta.hat_var = None; Meta.hat_names = [] } in
  let b = (mk_root ((mk_const base)) []) in
  let arrow a c = (mk_root ((mk_const arr)) ([ a; c ])) in
  (* the identity at base: lam base (\x. x), typed by t-lam with the
     variable case *)
  let id_tm = (mk_root ((mk_const lam)) ([ b; (mk_lam "x" ((mk_root ((mk_bvar 1)) []))) ])) in
  let d_id =
    (mk_root ((mk_const t_lam)) ([ (mk_lam "x" ((mk_root ((mk_bvar 1)) []))); b; b;
          (mk_lam "x" ((mk_lam "t" ((mk_root ((mk_bvar 1)) []))))) ]))
  in
  let env = Check_lfr.make_env sg [] in
  let oft_a = Lookup.find_typ sg "oft" in
  ignore
    (Check_lfr.check_normal env Ctxs.empty_sctx d_id
       ((mk_sembed oft_a ([ id_tm; arrow b b ]))));
  Fmt.pr "⊢ lam base (\\x. x) : base → base  (derivation checks)@.";
  (* apply it to itself?  No — self-application is not typable; apply a
     variable instead: in context b : tW base. *)
  let mapps f args = List.fold_left (fun e a -> Comp.MApp (e, a)) f args in
  let run d m a =
    let call =
      Comp.App
        ( mapps (Comp.RecConst infer)
            [
              Meta.MOCtx Ctxs.empty_sctx;
              Meta.MOTerm (hat0, m);
              Meta.MOTerm (hat0, a);
            ],
          Comp.Box (Meta.MOTerm (hat0, d)) )
    in
    match Eval.as_box (Eval.eval (Eval.make_env sg) call) with
    | Meta.MOTerm (_, t) -> t
    | _ -> assert false
  in
  let t1 = run d_id id_tm (arrow b b) in
  Fmt.pr "infer (t-lam …)  =  %a@." (Pp.pp_normal penv) t1;
  (* an application: (lam base \x.x) applied to (lam base \x.x)?  not
     typable at base; instead type the application of a variable f of
     type base → base to a variable y : base — in a parameterized
     context. *)
  let tw =
    match Belr_parser.Elab.find_world sg "tW" with
    | Some (Belr_parser.Elab.Wsort f) -> f
    | _ -> failwith "tW not found"
  in
  let psi =
    Ctxs.sctx_push
      (Ctxs.sctx_push Ctxs.empty_sctx (Ctxs.SCBlock ("f", tw, [ arrow b b ])))
      (Ctxs.SCBlock ("y", tw, [ b ]))
  in
  (* y = index 1, f = index 2 *)
  let app_c = Lookup.find_const sg "app" in
  let m = (mk_root ((mk_const app_c)) ([ (mk_root ((mk_proj ((mk_bvar 2)) 1)) []); (mk_root ((mk_proj ((mk_bvar 1)) 1)) []) ])) in
  let d =
    (mk_root ((mk_const t_app)) ([ (mk_root ((mk_proj ((mk_bvar 2)) 1)) []); b; b; (mk_root ((mk_proj ((mk_bvar 1)) 1)) []);
          (mk_root ((mk_proj ((mk_bvar 2)) 2)) []); (mk_root ((mk_proj ((mk_bvar 1)) 2)) []) ]))
  in
  ignore
    (Check_lfr.check_normal env psi d
       ((mk_sembed oft_a ([ m; b ]))));
  Fmt.pr "f : base → base, y : base ⊢ f y : base  (derivation checks)@.";
  let h = Meta.hat_of_sctx psi in
  let call =
    Comp.App
      ( mapps (Comp.RecConst infer)
          [ Meta.MOCtx psi; Meta.MOTerm (h, m); Meta.MOTerm (h, b) ],
        Comp.Box (Meta.MOTerm (h, d)) )
  in
  (match Eval.as_box (Eval.eval (Eval.make_env sg) call) with
  | Meta.MOTerm (_, t) ->
      Fmt.pr "infer (t-app …)  =  %a@." (Pp.pp_normal penv) t
  | _ -> assert false);
  Fmt.pr "@.parameterized blocks: the block (x : tm, t : oft x A) is@.";
  Fmt.pr "instantiated at different types (base → base, base) in the@.";
  Fmt.pr "same context, and the pattern world tW A0 binds A0.@."
