(** The conventional (refinement-free) baseline, and the E1 comparison.

    Loads both mechanizations of the §2 benchmark — the refinement
    solution ([Surface]) and the conventional joint-context solution
    ([examples/conventional.blr]) — and prints the
    proof-size comparison that reproduces the paper's qualitative claim:
    the refinement solution is smaller on every axis and gets soundness
    for free.

    Run with: [dune exec examples/conventional_baseline.exe] *)

open Belr_kits

let () =
  Fmt.pr "=== E1: refinement vs conventional mechanization ===@.@.";
  let refin_stats = Stats.dev_stats ~name:"refinement" (Surface.load ()) in
  let conv_stats =
    Stats.dev_stats ~name:"conventional" (Conventional.load ())
  in
  Fmt.pr "both developments checked (and their erasures re-checked).@.@.";
  Stats.pp_comparison Fmt.stdout refin_stats conv_stats;
  Fmt.pr "@.observations (the paper's §2 claims, measured):@.";
  Fmt.pr "- the conventional development duplicates the congruence rules@.";
  Fmt.pr "  (separate aeq family) instead of reusing them via a refinement;@.";
  Fmt.pr "- its context blocks carry one extra assumption everywhere;@.";
  Fmt.pr "- its object-logic lam rules are polluted by an extra hypothesis@.";
  Fmt.pr "  (the joint-context device), and soundness needs a real induction@.";
  Fmt.pr "  — with aeq ⊑ deq it is definitional.@."
