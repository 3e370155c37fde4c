(** The paper's §2 case study, end to end.

    Loads the surface-syntax mechanization of the equivalence of
    algorithmic and declarative equality for the untyped λ-calculus
    (lib/kits/surface.ml, also emitted as examples/equal.bel), then:

    - runs the completeness proof [ceq] as a program on a declarative
      derivation, obtaining an algorithmic one;
    - demonstrates that {e soundness is free}: an [aeq] derivation
      already checks at [⌊deq⌋] (this is the refinement [aeq ⊑ deq]);
    - demonstrates the refinement at work: [e-refl] is {e rejected} at
      sort [aeq];
    - shows promotion: the same block variable reads as [deq] under [Ψ⊤]
      and as [aeq] under [Ψ].

    Run with: [dune exec examples/aeq_deq.exe] *)

open Belr_support
open Belr_syntax
open Belr_lf
open Belr_core
open Belr_comp
open Belr_kits
open Lf

let () =
  Fmt.pr "=== the §2 case study: aeq / deq ===@.@.";
  let sg = Surface.load () in
  Fmt.pr
    "-> full development (aeq-refl, aeq-sym, aeq-trans, ceq) checked@.@.";
  let penv = Sign.pp_env sg in
  let lam = Lookup.find_const sg "lam"
  and e_refl = Lookup.find_const sg "e-refl"
  and e_sym = Lookup.find_const sg "e-sym"
  and e_trans = Lookup.find_const sg "e-trans"
  and e_lam = Lookup.find_const sg "e-lam" in
  let aeq = Lookup.find_srt sg "aeq" in
  let deq = Lookup.find_typ sg "deq" in
  let ceq = Lookup.find_rec sg "ceq" in
  let hat0 = { Meta.hat_var = None; Meta.hat_names = [] } in
  let idt = (mk_root ((mk_const lam)) ([ (mk_lam "x" ((mk_root ((mk_bvar 1)) []))) ])) in
  (* a declarative derivation full of equivalence axioms *)
  let refl = (mk_root ((mk_const e_refl)) ([ idt ])) in
  let sym = (mk_root ((mk_const e_sym)) ([ idt; idt; refl ])) in
  let d = (mk_root ((mk_const e_trans)) ([ idt; idt; idt; refl; sym ])) in
  Fmt.pr "declarative input:@.  %a@.@." (Pp.pp_normal penv) d;
  let mapps f args = List.fold_left (fun e a -> Comp.MApp (e, a)) f args in
  let call =
    Comp.App
      ( mapps (Comp.RecConst ceq)
          [
            Meta.MOCtx Ctxs.empty_sctx;
            Meta.MOTerm (hat0, idt);
            Meta.MOTerm (hat0, idt);
          ],
        Comp.Box (Meta.MOTerm (hat0, d)) )
  in
  let result =
    match Eval.as_box (Eval.eval (Eval.make_env sg) call) with
    | Meta.MOTerm (_, m) -> m
    | _ -> assert false
  in
  Fmt.pr "ceq computes the algorithmic derivation:@.  %a@.@."
    (Pp.pp_normal penv) result;
  let env = Check_lfr.make_env sg [] in
  let out_srt = (mk_satom aeq ([ idt; idt ])) in
  let a = Check_lfr.check_normal env Ctxs.empty_sctx result out_srt in
  Fmt.pr "it checks: %a ⊑ %a@.@." (Pp.pp_srt penv) out_srt (Pp.pp_typ penv) a;
  (* soundness is free: the same derivation checks at ⌊deq⌋ *)
  ignore
    (Check_lfr.check_normal env Ctxs.empty_sctx result
       ((mk_sembed deq ([ idt; idt ]))));
  Fmt.pr "soundness is FREE: the aeq derivation already checks at deq@.@.";
  (* the refinement rejects the equivalence axioms *)
  (match
     Error.protect (fun () ->
         Check_lfr.check_normal env Ctxs.empty_sctx refl out_srt)
   with
  | Ok _ -> Fmt.pr "BUG: e-refl checked at aeq@."
  | Error msg ->
      Fmt.pr "e-refl is rejected at sort aeq:@.  %s@.@." msg);
  (* promotion: the same variable reads differently under Ψ and Ψ⊤ *)
  let xeW =
    match Belr_parser.Elab.find_world sg "xeW" with
    | Some (Belr_parser.Elab.Wsort f) -> f
    | _ -> failwith "xeW not found"
  in
  let psi = Ctxs.sctx_push Ctxs.empty_sctx (Ctxs.SCBlock ("b", xeW, [])) in
  let s_plain = Sctxops.srt_of_proj sg psi 1 2 in
  let s_promoted = Sctxops.srt_of_proj sg (Ctxs.promote psi) 1 2 in
  Fmt.pr "promotion (Ψ = b:xeW):@.";
  Fmt.pr "  under Ψ :  b.2 : %a@."
    (Pp.pp_srt (Pp.env_of_sctx penv psi)) s_plain;
  Fmt.pr "  under Ψ⊤:  b.2 : %a@."
    (Pp.pp_srt (Pp.env_of_sctx penv psi)) s_promoted;
  (* run ceq under the binder-heavy input too *)
  let body =
    (mk_lam "x" ((mk_lam "u" ((mk_root ((mk_const e_sym)) ([ (mk_root ((mk_bvar 2)) []); (mk_root ((mk_bvar 2)) []); (mk_root ((mk_bvar 1)) []) ]))))))
  in
  let dlam =
    (mk_root ((mk_const e_lam)) ([ (mk_lam "x" ((mk_root ((mk_bvar 1)) []))); (mk_lam "x" ((mk_root ((mk_bvar 1)) []))); body ]))
  in
  let call2 =
    Comp.App
      ( mapps (Comp.RecConst ceq)
          [
            Meta.MOCtx Ctxs.empty_sctx;
            Meta.MOTerm (hat0, idt);
            Meta.MOTerm (hat0, idt);
          ],
        Comp.Box (Meta.MOTerm (hat0, dlam)) )
  in
  (match Eval.as_box (Eval.eval (Eval.make_env sg) call2) with
  | Meta.MOTerm (_, m) ->
      Fmt.pr "@.ceq through a binder (e-sym under e-lam):@.  %a@."
        (Pp.pp_normal penv) m
  | _ -> assert false);
  Fmt.pr "@.done.@."
