(** Quickstart: datasort refinements in five minutes.

    We declare natural numbers, refine them by the sort [pos] of nonzero
    naturals (selecting only the [s] constructor), and write a predecessor
    function whose pattern matching is {e not} exhaustive over [nat] —
    but is total over [pos].  This is the Jones–Ramsay motivation the
    paper cites: refinements validate non-exhaustive matches.

    Run with: [dune exec examples/quickstart.exe] *)

open Belr_support
open Belr_syntax
open Belr_lf
open Belr_core
open Belr_comp
open Belr_kits
open Lf

let program =
  {bel|
LF nat : type =
| z : nat
| s : nat -> nat;

% pos refines nat: only s constructs a positive number.
LFR pos <| nat : sort =
| s : nat -> pos;

% Total on pos; would be non-exhaustive on nat.
rec pred : [ |- pos] -> [ |- nat] =
fn d => case d of
| {N : [ |- nat]}
  [ |- s N] => [ |- N];
|bel}

let () =
  (* emit the §2 .bel source when asked (used by the dune rule) *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--emit-equal-bel" then begin
    print_string Belr_kits.Surface.full_src;
    exit 0
  end;
  Fmt.pr "=== quickstart: datasort refinements ===@.@.";
  Fmt.pr "%s@." program;
  let sg = Belr_parser.Process.program ~name:"quickstart.bel" program in
  Fmt.pr "-> program parsed, elaborated, sort-checked; erasure re-checked@.@.";
  let z = Lookup.find_const sg "z" and s = Lookup.find_const sg "s" in
  let pos = Lookup.find_srt sg "pos" in
  let pred = Lookup.find_rec sg "pred" in
  let rec church k = if k = 0 then (mk_root ((mk_const z)) []) else (mk_root ((mk_const s)) ([ church (k - 1) ])) in
  let penv = Sign.pp_env sg in
  let hat0 = { Meta.hat_var = None; Meta.hat_names = [] } in
  (* three is positive; check it at sort pos and take its predecessor *)
  let three = church 3 in
  let env = Check_lfr.make_env sg [] in
  let a = Check_lfr.check_normal env Ctxs.empty_sctx three ((mk_satom pos [])) in
  Fmt.pr "s (s (s z)) ⇐ pos ⊑ %a   (the type is the checker's output)@."
    (Pp.pp_typ penv) a;
  let call =
    Comp.App (Comp.RecConst pred, Comp.Box (Meta.MOTerm (hat0, three)))
  in
  (match Eval.as_box (Eval.eval (Eval.make_env sg) call) with
  | Meta.MOTerm (_, m) -> Fmt.pr "pred 3 = %a@." (Pp.pp_normal penv) m
  | _ -> assert false);
  (* zero is NOT positive: the refinement rejects it statically *)
  (match
     Error.protect (fun () ->
         Check_lfr.check_normal env Ctxs.empty_sctx (church 0)
           ((mk_satom pos [])))
   with
  | Ok _ -> Fmt.pr "BUG: z checked at pos@."
  | Error msg -> Fmt.pr "z ⇐ pos is rejected, as it should be:@.  %s@." msg);
  Fmt.pr "@.pred is total on pos even though its match is partial on nat —@.";
  Fmt.pr "the refinement carries the exhaustiveness information.@.";
  (* the §6.1 extension: the optional coverage checker agrees *)
  List.iter
    (function
      | Coverage.DCovered ->
          Fmt.pr "coverage checker: pred covers every candidate of pos ✓@."
      | Coverage.DUncovered missing ->
          Fmt.pr "coverage checker: missing %s@." (String.concat ", " missing)
      | Coverage.DGaveUp -> Fmt.pr "coverage checker: split depth exhausted@.")
    (Coverage.deep_check_rec sg pred)
