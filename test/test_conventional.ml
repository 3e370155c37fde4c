(** The conventional (refinement-free) baseline development checks and
    runs — and needs strictly more machinery (E1's shape). *)

open Belr_syntax
open Belr_core
open Belr_comp
open Belr_kits
open Lf

let conv = lazy (Conventional.load ())

let ok name thunk = Alcotest.test_case name `Quick thunk

let hat_empty = { Meta.hat_var = None; Meta.hat_names = [] }

let mapps f args = List.fold_left (fun e a -> Comp.MApp (e, a)) f args

(** Run the function [f] of the development on [[ ⊢ id]], [[ ⊢ id]] and
    the boxed derivation [d], and check that the result has the
    (embedded) sort [fam id id]. *)
let run_on_id sg f ~build ~fam =
  let c n = mk_const (Lookup.find_const sg n) in
  let idt = mk_root (c "lam") [ mk_lam "x" (mk_root (mk_bvar 1) []) ] in
  let call =
    Comp.App
      ( mapps
          (Comp.RecConst (Lookup.find_rec sg f))
          [
            Meta.MOCtx Ctxs.empty_sctx;
            Meta.MOTerm (hat_empty, idt);
            Meta.MOTerm (hat_empty, idt);
          ],
        Comp.Box (Meta.MOTerm (hat_empty, build c idt)) )
  in
  let res =
    match Eval.as_box (Eval.eval (Eval.make_env sg) call) with
    | Meta.MOTerm (_, m) -> m
    | _ -> Alcotest.fail "expected a boxed term"
  in
  let env = Check_lfr.make_env sg [] in
  ignore
    (Check_lfr.check_normal env Ctxs.empty_sctx res
       (mk_sembed (Lookup.find_typ sg fam) [ idt; idt ]))

let tests =
  [
    ok "the conventional development type-checks" (fun () ->
        ignore (Lazy.force conv));
    ok "conventional ceq runs on (de-trans (de-refl id) (de-sym (de-refl id)))"
      (fun () ->
        run_on_id (Lazy.force conv) "ceq" ~fam:"aeq" ~build:(fun c idt ->
            let refl = mk_root (c "de-refl") [ idt ] in
            let sym = mk_root (c "de-sym") [ idt; idt; refl ] in
            mk_root (c "de-trans") [ idt; idt; idt; refl; sym ]));
    ok "conventional soundness runs (not free, unlike the refinement)"
      (fun () ->
        (* an aeq derivation: ae-lam with the variable case *)
        run_on_id (Lazy.force conv) "sound" ~fam:"deq" ~build:(fun c _ ->
            let idf = mk_lam "x" (mk_root (mk_bvar 1) []) in
            mk_root (c "ae-lam")
              [
                idf;
                idf;
                mk_lam "x"
                  (mk_lam "u" (mk_lam "v" (mk_root (mk_bvar 2) [])));
              ]));
    ok "E1 measures the recorded proof sizes of both developments"
      (fun () ->
        let row (d : Stats.dev_stats) =
          [
            d.Stats.ds_const_decls;
            d.Stats.ds_sort_assignments;
            d.Stats.ds_block_width;
            List.length d.Stats.ds_theorems;
            d.Stats.ds_total_args;
            d.Stats.ds_total_nodes;
          ]
        in
        let names (d : Stats.dev_stats) =
          List.map (fun r -> r.Stats.rs_name) d.Stats.ds_theorems
        in
        let refin = Stats.dev_stats ~name:"refinement" (Surface.load ()) in
        let cv = Stats.dev_stats ~name:"conventional" (Lazy.force conv) in
        Alcotest.(check (list int))
          "refinement" [ 7; 2; 2; 4; 16; 1259 ] (row refin);
        Alcotest.(check (list int))
          "conventional" [ 9; 0; 3; 5; 20; 1635 ] (row cv);
        Alcotest.(check (list string))
          "theorems in declaration order"
          [ "aeq-refl"; "aeq-sym"; "aeq-trans"; "ceq"; "sound" ]
          (names cv));
  ]

let suites = [ ("conventional", tests) ]
