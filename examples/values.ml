(** The values case study: [val ⊑ tm] and the refinement-indexed
    evaluation judgment [evalv ⊑ eval : tm → val → sort] — a proper sort
    in a refinement-kind domain.

    Run with: [dune exec examples/values.exe] *)

open Belr_syntax
open Belr_lf
open Belr_core
open Belr_comp
open Belr_kits
open Lf

let () =
  Fmt.pr "=== values: a datasort in a refinement kind ===@.@.";
  Fmt.pr "%s@." Values.src;
  let sg = Values.load () in
  Fmt.pr "-> development checked@.@.";
  let penv = Sign.pp_env sg in
  let lam = Lookup.find_const sg "lam"
  and app = Lookup.find_const sg "app"
  and ev_lam = Lookup.find_const sg "ev-lam"
  and ev_app = Lookup.find_const sg "ev-app" in
  let strengthen = Lookup.find_rec sg "strengthen" in
  let idf = (mk_lam "x" ((mk_root ((mk_bvar 1)) []))) in
  let idt = (mk_root ((mk_const lam)) ([ idf ])) in
  let appt = (mk_root ((mk_const app)) ([ idt; idt ])) in
  let ev_id = (mk_root ((mk_const ev_lam)) ([ idf ])) in
  let d =
    (mk_root ((mk_const ev_app)) ([ idt; idf; idt; idt; idt; ev_id; ev_id; ev_id ]))
  in
  Fmt.pr "evaluation derivation for (\\x.x) (\\x.x):@.  %a@.@."
    (Pp.pp_normal penv) d;
  let hat0 = { Meta.hat_var = None; Meta.hat_names = [] } in
  let mapps f args = List.fold_left (fun e a -> Comp.MApp (e, a)) f args in
  let call =
    Comp.App
      ( mapps (Comp.RecConst strengthen)
          [ Meta.MOTerm (hat0, appt); Meta.MOTerm (hat0, idt) ],
        Comp.Box (Meta.MOTerm (hat0, d)) )
  in
  let res =
    match Eval.as_box (Eval.eval (Eval.make_env sg) call) with
    | Meta.MOTerm (_, m) -> m
    | _ -> assert false
  in
  let evalv = Lookup.find_srt sg "evalv" in
  Fmt.pr "strengthened into the refined judgment:@.  %a@.@."
    (Pp.pp_normal penv) res;
  let env = Check_lfr.make_env sg [] in
  ignore
    (Check_lfr.check_normal env Ctxs.empty_sctx res
       ((mk_satom evalv ([ appt; idt ]))));
  Fmt.pr "result checks at evalv — the value-ness of the result index is@.";
  Fmt.pr "enforced by the refinement KIND tm -> val -> sort: writing@.";
  Fmt.pr "evalv M (app …) is not even a well-formed sort.@."
