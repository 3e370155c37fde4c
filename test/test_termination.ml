(** Termination fixtures for the totality analyzer's size-change engine
    ({!Belr_comp.Sct}, run through {!Belr_comp.Totality}): the shipped
    developments terminate, and the small recursion schemes below get the
    verdict their call structure deserves. *)

open Belr_support
open Belr_comp
open Belr_kits

let ok name thunk = Alcotest.test_case name `Quick thunk

let terminating sg n =
  let r = Totality.run sg (Belr_analysis.Facts.make sg) (Diagnostics.sink ()) in
  match List.find_opt (fun f -> f.Totality.fv_name = n) r.Totality.tr_fns with
  | Some f -> Totality.terminating f
  | None -> Alcotest.failf "%s not analyzed" n

let tests =
  [
    ok "the §2 development terminates" (fun () ->
        let sg = Surface.load () in
        List.iter
          (fun n ->
            Alcotest.(check bool) (n ^ " terminating") true (terminating sg n))
          [ "aeq-refl"; "aeq-sym"; "aeq-trans"; "ceq" ]);
    ok "half, strengthen, and result-val terminate" (fun () ->
        let sg = Parity.load () in
        Alcotest.(check bool) "half" true (terminating sg "half");
        let sg2 = Values.load () in
        Alcotest.(check bool) "strengthen" true (terminating sg2 "strengthen");
        Alcotest.(check bool) "result-val" true (terminating sg2 "result-val"));
    ok "a call on the whole scrutinee (not a subterm) is rejected" (fun () ->
        let sg =
          Belr_parser.Process.program
            {bel|
LF nat : type = | z : nat | s : nat -> nat;
rec spin : {N : [ |- nat]} [ |- nat] =
mlam N => case [ |- N] of
| [ |- z] => [ |- z]
| {M : [ |- nat]}
  [ |- s M] => spin [ |- s M];
|bel}
        in
        (* s M rebuilds the scrutinee: no argument shrinks *)
        Alcotest.(check bool) "spin" false (terminating sg "spin"));
    ok "a call on the pattern subterm is accepted" (fun () ->
        let sg =
          Belr_parser.Process.program
            {bel|
LF nat : type = | z : nat | s : nat -> nat;
rec down : {N : [ |- nat]} [ |- nat] =
mlam N => case [ |- N] of
| [ |- z] => [ |- z]
| {M : [ |- nat]}
  [ |- s M] => down [ |- M];
|bel}
        in
        Alcotest.(check bool) "down" true (terminating sg "down"));
    ok "call chains record computation-level argument positions too"
      (fun () ->
        (* regression: [f e [X]] must contribute both positions, in
           application order — the size-change graphs index into this
           list *)
        let module Comp = Belr_syntax.Comp in
        let module Cg = Belr_analysis.Callgraph in
        let mo =
          Belr_syntax.Meta.MOCtx
            {
              Belr_syntax.Ctxs.s_var = None;
              Belr_syntax.Ctxs.s_promoted = false;
              Belr_syntax.Ctxs.s_decls = [];
            }
        in
        let e = Comp.MApp (Comp.App (Comp.RecConst 0, Comp.Var 1), mo) in
        match Cg.chain e [] with
        | Comp.RecConst 0, [ Cg.CAComp (Comp.Var 1); Cg.CAMeta _ ] -> ()
        | _, args ->
            Alcotest.failf "expected the head and both positions, got %d"
              (List.length args));
  ]

let suites = [ ("termination", tests) ]
