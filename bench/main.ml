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
    - E7  the hash-consed term store (PR 4): sort checking and equality
          on interned terms, plus the one-at-a-time vs batched
          spine-append micro-benchmark (the store-off rows are frozen in
          [BENCH_pr4.json])
    - E8  warm vs cold re-check in the belr serve engine (PR 6)
    - E10 lazy whnf normalization (PR 9): cold-path sort checking,
          weak-head queries on delayed closures, telescope checking, and
          running [ceq] on deep [deq] derivation chains (the eager-kernel
          rows are frozen in [BENCH_pr9.json])

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
(* E7 — the hash-consed term store (PR 4)                               *)

let e7 () =
  Fmt.pr
    "@.== E7: hash-consed term store (DESIGN.md §S21; store-off rows \
     frozen in BENCH_pr4.json) ==@.";
  Hsub.clear_memo ();
  let store_tests =
    List.concat_map
      (fun d ->
        let drv = gen_drv d in
        (* a second structurally identical build: physically shared with
           [drv] by interning *)
        let drv' = gen_drv d in
        let s = aeq_srt d in
        [
          Test.make
            ~name:(Fmt.str "on/sort-check/depth-%02d" d)
            (Staged.stage (fun () ->
                 ignore (Check_lfr.check_normal lfr_env Ctxs.empty_sctx drv s)));
          Test.make
            ~name:(Fmt.str "on/equal/depth-%02d" d)
            (Staged.stage (fun () -> ignore (Equal.normal drv drv')));
        ])
      depths
  in
  (* satellite micro-benchmark: the pre-PR4 one-argument-at-a-time spine
     append (O(n²) in the spine length) vs the batched [Lf.app_spine] *)
  let spine_k = 256 in
  let spine_args = List.init spine_k (fun _ -> id_tm) in
  let spine_base = mk_root (mk_bvar 1) [] in
  let spine_tests =
    [
      Test.make
        ~name:(Fmt.str "spine-append/one-at-a-time/%d" spine_k)
        (Staged.stage (fun () ->
             ignore
               (List.fold_left
                  (fun m a -> app_spine m [ a ])
                  spine_base spine_args)));
      Test.make
        ~name:(Fmt.str "spine-append/batched/%d" spine_k)
        (Staged.stage (fun () -> ignore (app_spine spine_base spine_args)));
    ]
  in
  let rows =
    print_results "store (sort-check replicates the E2/E4 workload):"
      (run_tests (Test.make_grouped ~name:"e7" (store_tests @ spine_tests)))
  in
  let spine_ratio =
    let get lbl =
      try List.assoc (Fmt.str "e7/spine-append/%s/%d" lbl spine_k) rows
      with Not_found -> nan
    in
    let r = get "one-at-a-time" /. get "batched" in
    Fmt.pr "  spine-append ×%d: one-at-a-time / batched = %.1fx@." spine_k r;
    r
  in
  record "e7"
    (J.Obj
       [
         ("times_ns", json_rows rows);
         ("spine_one_at_a_time_over_batched", J.Float spine_ratio);
       ])

(* ------------------------------------------------------------------ *)
(* E8 — warm vs cold re-check in the belr serve engine (PR 6)           *)

(** A chained synthetic signature: [f0 : type] and
    [fi = | ci : f(i-1) -> fi], so each family references (and is a
    subordination successor of) its predecessor.  Editing the {e last}
    declaration therefore invalidates exactly itself — the warm path of
    the incremental checker re-checks 1 of [n] declarations. *)
let e8_chain ?(variant = 0) n =
  String.concat "\n"
    (List.init n (fun i ->
         if i = 0 then "LF f0 : type = | c0 : f0;"
         else if i = n - 1 && variant = 1 then
           Fmt.str "LF f%d : type = | c%d : f%d -> f%d | d%d : f%d;" i i
             (i - 1) i i i
         else Fmt.str "LF f%d : type = | c%d : f%d -> f%d;" i i (i - 1) i))

let e8_request ~id src =
  J.to_string ~compact:true
    (J.Obj
       [
         ("id", J.Int id);
         ("method", J.String "check");
         ("session", J.String "bench");
         ("source", J.String src);
       ])

let e8_round server line =
  match Belr_parser.Serve.handle_line server line with
  | Some _ -> ()
  | None -> failwith "e8: serve returned no reply"

let e8 () =
  let n = 60 in
  Fmt.pr
    "@.== E8: warm vs cold re-check — belr serve incremental engine \
     (%d-decl@.   chained signature; warm runs re-check exactly one \
     edited declaration) ==@."
    n;
  let variants = [| e8_chain n; e8_chain ~variant:1 n |] in
  (* warm: one long-lived server; each run toggles the last declaration,
     so the engine diffs, reuses n-1 entries, and re-checks one *)
  let warm_server = Belr_parser.Serve.create () in
  e8_round warm_server (e8_request ~id:0 variants.(0));
  let flip = ref 0 in
  let tests =
    [
      Test.make
        ~name:(Fmt.str "cold/%d-decls" n)
        (Staged.stage (fun () ->
             let server = Belr_parser.Serve.create () in
             e8_round server (e8_request ~id:1 variants.(0))));
      Test.make
        ~name:(Fmt.str "warm/%d-decls" n)
        (Staged.stage (fun () ->
             flip := 1 - !flip;
             e8_round warm_server (e8_request ~id:2 variants.(!flip))));
    ]
  in
  let rows =
    print_results "cold (fresh session, full check) vs warm (one edit):"
      (run_tests (Test.make_grouped ~name:"e8" tests))
  in
  let get lbl =
    try List.assoc (Fmt.str "e8/%s/%d-decls" lbl n) rows
    with Not_found -> nan
  in
  let speedup = get "cold" /. get "warm" in
  Fmt.pr "  warm speedup over cold = %.1fx (acceptance floor: 5x)@." speedup;
  record "e8"
    (J.Obj
       [
         ("times_ns", json_rows rows);
         ("decls", J.Int n);
         ("cold_over_warm", J.Float speedup);
       ])

(* ------------------------------------------------------------------ *)
(* E10 — lazy whnf normalization (PR 9)                                 *)

(** A linear [deq] derivation chain of length [n] over the term [t],
    built from the [e-*] constants of the §2 signature [sg]:
    [chain 0 = e-refl t] and
    [chain n = e-trans t t t (chain (n-1)) (e-sym t t (e-refl t))], so
    [ceq] performs [n] pattern-matching steps — each carrying [t] in the
    implicit arguments — to produce the [aeq] image. *)
let deq_chain sg t n =
  let c name = mk_const (Lookup.find_const sg name) in
  let refl = mk_root (c "e-refl") [ t ] in
  let sym = mk_root (c "e-sym") [ t; t; refl ] in
  let trans = c "e-trans" in
  let rec go n acc =
    if n = 0 then acc else go (n - 1) (mk_root trans [ t; t; t; acc; sym ])
  in
  go n refl

(** A dependent-telescope mini-signature scaled by [n]:
    [tele : ΠM1..Mn:tm. deq M1 M1 → … → deq Mn Mn → deq M1 M1].  All 2n
    binders are in one telescope, so the eager checker re-substitutes the
    O(n)-node remainder at every spine step (O(n²) total) while the lazy
    checker extends the delayed substitution in O(1) per step. *)
let tele_check n =
  let bv i = mk_root (mk_bvar i) [] in
  let sg = Sign.create () in
  let tm = Sign.add_typ sg ~name:"tm" ~kind:Ktype ~implicit:0 in
  let tm_t = mk_atom tm [] in
  let c0 = Sign.add_const sg ~name:"c0" ~typ:tm_t ~implicit:0 in
  let f =
    Sign.add_const sg ~name:"f"
      ~typ:(mk_pi "x" tm_t (Shift.shift_typ 1 0 tm_t))
      ~implicit:0
  in
  let deq =
    Sign.add_typ sg ~name:"deq"
      ~kind:(Kpi ("m", tm_t, Kpi ("n", tm_t, Ktype)))
      ~implicit:0
  in
  let dq m = mk_atom deq [ m; m ] in
  let refl =
    Sign.add_const sg ~name:"refl" ~typ:(mk_pi "M" tm_t (dq (bv 1))) ~implicit:0
  in
  (* in the j-th deq-domain the binders in scope are M1..Mn, d1..d(j-1),
     so Mj is index n for every j — the domains are one shared node *)
  let rec mk_ds j acc = if j = 0 then acc else mk_ds (j - 1) (mk_pi "d" (dq (bv n)) acc) in
  let rec mk_ms i acc = if i = 0 then acc else mk_ms (i - 1) (mk_pi "M" tm_t acc) in
  let tele_typ = mk_ms n (mk_ds n (dq (bv (2 * n)))) in
  let tele = Sign.add_const sg ~name:"tele" ~typ:tele_typ ~implicit:0 in
  let t1 = mk_root (mk_const f) [ mk_root (mk_const c0) [] ] in
  let args =
    List.init n (fun _ -> t1) @ List.init n (fun _ -> mk_root (mk_const refl) [ t1 ])
  in
  let root = mk_root (mk_const tele) args in
  let env = Check_lf.make_env sg [] in
  let target = dq t1 in
  fun () -> Check_lf.check_normal env Ctxs.empty_ctx root target

let e10 () =
  Fmt.pr
    "@.== E10: lazy whnf normalization (DESIGN.md §S26; eager-kernel rows \
     frozen in BENCH_pr9.json) ==@.";
  let dev = Surface.load () in
  let dev_id =
    mk_root (mk_const (Lookup.find_const dev "lam"))
      [ mk_lam "x" (mk_root (mk_bvar 1) []) ]
  in
  let hat0 = { Meta.hat_var = None; Meta.hat_names = [] } in
  let chains = if fast then [ 16; 32 ] else [ 16; 32; 64 ] in
  let widths = if fast then [ 64; 128 ] else [ 64; 128; 256 ] in
  let sizes = if fast then [ 1024; 4096 ] else [ 512; 1024; 4096 ] in
  (* Each workload family runs as its own bechamel group, and the
     family's test closures are dropped (and a major GC forced) before
     the next family starts.  This matters: the deep self-similar terms
     some families keep alive (the whnf-head combs in particular) all
     collide into the same metadata-table buckets — [Hashtbl.hash]
     samples a bounded prefix of the value and the suffixes of a comb
     share theirs — so letting them survive into another family's run
     would tax every [mk_*] there with long chain walks.  Row names keep
     the "on/" prefix of [BENCH_pr9.json] so the two stay comparable. *)
  let run_family banner tests =
    let rows =
      print_results banner (run_tests (Test.make_grouped ~name:"e10" tests))
    in
    Gc.full_major ();
    rows
  in
  (* The sort-check and whnf-head workloads run the memo-cold path: the
     measured closure clears the Hsub and whnf tables first (warm, both
     degenerate to table reads). *)
  let rows_sort =
    run_family "sort-check (cold memo tables):"
      (List.map
         (fun d ->
           let drv = gen_drv d in
           let s = aeq_srt d in
           Test.make
             ~name:(Fmt.str "on/sort-check/depth-%02d" d)
             (Staged.stage (fun () ->
                  Hsub.clear_memo ();
                  Whnf.clear_memo ();
                  ignore (Check_lfr.check_normal lfr_env Ctxs.empty_sctx drv s))))
         depths)
  in
  let rows_head =
    run_family "whnf-head (cold memo tables):"
      (List.map
         (fun n ->
           (* The primitive the lazy kernel rests on: "which constructor
              heads ⟦σ⟧M?".  The comb below is an N-node right-spine of
              applications over #1 (every suffix is a distinct store
              node, so nothing collapses to a DAG); whnf answers in O(1)
              where forcing the substitution costs O(N). *)
           let rec comb k =
             if k = 0 then mk_root (mk_bvar 1) []
             else Ulam.app_tm u (mk_root (mk_bvar 1) []) (comb (k - 1))
           in
           let clo = (comb n, mk_dot (Obj id_tm) Lf.id) in
           Test.make
             ~name:(Fmt.str "on/whnf-head/size-%05d" n)
             (Staged.stage (fun () ->
                  Hsub.clear_memo ();
                  Whnf.clear_memo ();
                  ignore (Whnf.whnf_normal clo))))
         sizes)
  in
  let rows_tele =
    run_family "telescope checking:"
      (List.map
         (fun n ->
           Test.make
             ~name:(Fmt.str "on/telescope/width-%03d" n)
             (Staged.stage (tele_check n)))
         widths)
  in
  let rows_ceq =
    run_family "ceq evaluation (the §2 proof as a program):"
      (List.map
         (fun n ->
           let chain = deq_chain dev dev_id n in
           let call =
             Comp.App
               ( List.fold_left
                   (fun e a -> Comp.MApp (e, a))
                   (Comp.RecConst (Lookup.find_rec dev "ceq"))
                   [
                     Meta.MOCtx Ctxs.empty_sctx;
                     Meta.MOTerm (hat0, dev_id);
                     Meta.MOTerm (hat0, dev_id);
                   ],
                 Comp.Box (Meta.MOTerm (hat0, chain)) )
           in
           Test.make
             ~name:(Fmt.str "on/ceq-eval/chain-%02d" n)
             (Staged.stage (fun () ->
                  ignore
                    (Belr_comp.Eval.as_box
                       (Belr_comp.Eval.eval
                          (Belr_comp.Eval.make_env dev) call)))))
         chains)
  in
  record "e10"
    (J.Obj
       [ ("times_ns", json_rows (rows_sort @ rows_head @ rows_tele @ rows_ceq)) ])

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
  e7 ();
  e8 ();
  e10 ();
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
