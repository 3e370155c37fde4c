(** The lazy weak-head normalization core (PR 9, DESIGN.md §S26):
    agreement of whnf-plus-full-unfolding with the hereditary
    substitution it forces through ([Hsub], itself checked against the
    {!Ref_hsub} oracle in test_store) as a property over random
    closures; agreement of the closure-level convertibility checks with
    [Equal] on forced forms; the shipped examples' verdicts across cold,
    warm and dropped kernel caches; the [E0905] evaluation-fuel diagnostic; and
    session isolation of the whnf memo tables. *)

open Belr_support
open Belr_syntax
open Belr_lf
open Belr_kits
open Lf

let test name f = Alcotest.test_case name `Quick f

let u = Ulam.make ()

(* --- full unfolding through the weak-head views -------------------------- *)

(** Force a term closure to its full normal form by repeated weak-head
    normalization: the lazy engine's answer to what [Hsub.sub_normal]
    computes in one eager pass.  The agreement property below checks the
    two coincide. *)
let rec force_nclo (c : Whnf.nclo) : normal =
  match Whnf.whnf_normal c with
  | Whnf.WLam (x, body, s) ->
      mk_lam x (force_nclo (Whnf.clo_push (body, s)))
  | Whnf.WRoot (h, sp, s) ->
      mk_root h (List.map (fun m -> force_nclo (m, s)) sp)

let rec force_tclo (c : Whnf.tclo) : typ =
  match Whnf.whnf_typ c with
  | Whnf.WAtom (p, sp, s) ->
      mk_atom p (List.map (fun m -> force_nclo (m, s)) sp)
  | Whnf.WPi (x, ca, cb) ->
      mk_pi x (force_tclo ca) (force_tclo (Whnf.clo_push cb))

let rec force_sclo (c : Whnf.sclo) : srt =
  match Whnf.whnf_srt c with
  | Whnf.WSAtom (q, sp, s) ->
      mk_satom q (List.map (fun m -> force_nclo (m, s)) sp)
  | Whnf.WSEmbed (a, sp, s) ->
      mk_sembed a (List.map (fun m -> force_nclo (m, s)) sp)
  | Whnf.WSPi (x, c1, c2) ->
      mk_spi x (force_sclo c1) (force_sclo (Whnf.clo_push c2))

(* --- generators (over the §2 signature, as in test_store) ---------------- *)

(** Random λ-terms (tm) over a context of [nvars] tm-variables. *)
let gen_open (nvars : int) : normal QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    if nvars = 0 then return (Ulam.id_tm u)
    else
      frequency
        [
          (1, return (Ulam.id_tm u));
          (2, map (fun i -> bvar (1 + (i mod nvars))) small_nat);
        ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (2, map2 (Ulam.app_tm u) (self (n / 2)) (self (n / 2)));
               ( 1,
                 map
                   (fun m ->
                     mk_root (mk_const u.Ulam.lam)
                       [ mk_lam "x" (Hsub.sub_normal (mk_shift 1) m) ])
                   (self (n - 1)) );
             ])

(** Random closures: an open term over two variables together with a
    substitution instantiating both (the second through a shift, so Dot
    chains, shifts and β-redexes all occur). *)
let gen_clo : Whnf.nclo QCheck.Gen.t =
  let open QCheck.Gen in
  map2
    (fun m (b1, b2) ->
      (m, mk_dot (Obj b1) (mk_dot (Obj (Hsub.sub_normal (mk_shift 1) b2)) (mk_shift 1))))
    (gen_open 2)
    (pair (gen_open 0) (gen_open 1))

(* --- the agreement property ---------------------------------------------- *)

let prop_agreement =
  QCheck.Test.make ~count:150
    ~name:"whnf + full unfolding ≡ eager hereditary substitution"
    (QCheck.make gen_clo)
    (fun ((m, s) as c) -> Equal.deep_normal (force_nclo c) (Hsub.sub_normal s m))

let prop_typ_srt_agreement =
  QCheck.Test.make ~count:100
    ~name:"type- and sort-closure forcing ≡ eager substitution"
    (QCheck.make gen_clo)
    (fun (m, s) ->
      (* wrap the random closure into dependent Π shapes so WPi/WSPi and
         the under-binder push are exercised too *)
      let a =
        mk_pi "x" (mk_atom u.Ulam.tm [])
          (mk_atom u.Ulam.deq [ m; bvar 1 ])
      in
      let q =
        mk_spi "x"
          (mk_sembed u.Ulam.tm [])
          (mk_satom u.Ulam.aeq [ m; bvar 1 ])
      in
      Equal.deep_typ (force_tclo (a, s)) (Hsub.sub_typ s a)
      && Equal.deep_srt (force_sclo (q, s)) (Hsub.sub_srt s q))

let prop_conv_agrees_with_equal =
  QCheck.Test.make ~count:150
    ~name:"conv on closures ≡ Equal on forced forms"
    (QCheck.make (QCheck.Gen.pair gen_clo gen_clo))
    (fun (((m1, s1) as c1), ((m2, s2) as c2)) ->
      Whnf.conv_normal c1 c2
      = Equal.normal (Hsub.sub_normal s1 m1) (Hsub.sub_normal s2 m2))

(* --- shipped examples across kernel cache states --------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Check [src] in the installed kernel world; the diagnostic codes in
    emission order, and the exit code. *)
let check_codes src =
  let sink = Diagnostics.sink () in
  let _sg = Belr_parser.Driver.check_sources sink [ ("test.bel", src) ] in
  ( List.map (fun (d : Diagnostics.t) -> d.Diagnostics.d_code)
      (Diagnostics.all sink),
    Diagnostics.exit_code sink )

let example_tests =
  let cache_states name path code =
    test (name ^ " checks identically with cold, warm and dropped caches")
      (fun () ->
        let src = read_file path in
        let s = Session.create () in
        (* cold: empty store and memo tables; warm: the same session
           again, answered from the tables the first run filled; dropped:
           after the serve memory-pressure reset, whose pre-clear nodes
           outlive the clear unshared *)
        let codes, exit = Session.with_ s (fun () -> check_codes src) in
        Alcotest.(check int) "cold exit code" code exit;
        Alcotest.(check (pair (list string) int))
          "warm" (codes, exit)
          (Session.with_ s (fun () -> check_codes src));
        Session.drop_caches s;
        Alcotest.(check (pair (list string) int))
          "after drop_caches" (codes, exit)
          (Session.with_ s (fun () -> check_codes src)))
  in
  [
    (* totality.blr alone lacks the quickstart.blr that supplies [nat] *)
    cache_states "examples/quickstart.blr" "../examples/quickstart.blr" 0;
    cache_states "examples/equal.bel" "../examples/equal.bel" 0;
    cache_states "examples/totality.blr" "../examples/totality.blr" 1;
  ]

(* --- E0905: the evaluation step budget ----------------------------------- *)

(** A ceq call evaluating a [deq] chain of length [n] (as in bench E10):
    enough steps to trip a tiny fuel budget. *)
let long_eval () =
  let sg = Surface.load () in
  let c name = mk_const (Lookup.find_const sg name) in
  let hat0 = { Meta.hat_var = None; Meta.hat_names = [] } in
  let id_tm = mk_root (c "lam") [ mk_lam "x" (mk_root (mk_bvar 1) []) ] in
  let refl = mk_root (c "e-refl") [ id_tm ] in
  let sym = mk_root (c "e-sym") [ id_tm; id_tm; refl ] in
  let rec chain n acc =
    if n = 0 then acc
    else chain (n - 1) (mk_root (c "e-trans") [ id_tm; id_tm; id_tm; acc; sym ])
  in
  let call =
    Comp.App
      ( List.fold_left
          (fun e a -> Comp.MApp (e, a))
          (Comp.RecConst (Lookup.find_rec sg "ceq"))
          [
            Meta.MOCtx Ctxs.empty_sctx;
            Meta.MOTerm (hat0, id_tm);
            Meta.MOTerm (hat0, id_tm);
          ],
        Comp.Box (Meta.MOTerm (hat0, chain 64 refl)) )
  in
  fun () ->
    ignore
      (Belr_comp.Eval.as_box
         (Belr_comp.Eval.eval (Belr_comp.Eval.make_env sg) call))

(** Restore the global fuel budget even if the test fails. *)
let with_eval_fuel n f =
  Limits.set_eval_fuel n;
  Fun.protect
    ~finally:(fun () -> Limits.set_eval_fuel Limits.default_eval_fuel)
    f

let fuel_tests =
  [
    test "a starved evaluator raises Fuel_exhausted with its budget"
      (fun () ->
        let run = long_eval () in
        with_eval_fuel 10 (fun () ->
            match run () with
            | () -> Alcotest.fail "expected Fuel_exhausted"
            | exception Limits.Fuel_exhausted n ->
                Alcotest.(check int) "budget in payload" 10 n));
    test "fuel exhaustion renders as the stable E0905 diagnostic" (fun () ->
        let run = long_eval () in
        with_eval_fuel 10 (fun () ->
            let sink = Diagnostics.sink () in
            (match Diagnostics.recover sink run with
            | None -> ()
            | Some () -> Alcotest.fail "expected a diagnostic");
            let codes =
              List.map
                (fun (d : Diagnostics.t) -> d.Diagnostics.d_code)
                (Diagnostics.all sink)
            in
            Alcotest.(check (list string)) "codes" [ "E0905" ] codes;
            Alcotest.(check int) "exit" 1 (Diagnostics.exit_code sink)));
    test "a sufficient budget completes without tripping" (fun () ->
        let run = long_eval () in
        with_eval_fuel 1_000_000 (fun () -> run ()));
  ]

(* --- session isolation of the whnf memo tables --------------------------- *)

(** Populate the current whnf tables with some memoized roots and return
    the observed (hits, misses). *)
let churn () =
  let chain k =
    let rec go k acc =
      if k = 0 then acc else go (k - 1) (Ulam.app_tm u (Ulam.id_tm u) acc)
    in
    go k (bvar 1)
  in
  let s = mk_dot (Obj (Ulam.id_tm u)) (mk_shift 0) in
  List.iter
    (fun k ->
      ignore (Whnf.whnf_normal (chain k, s));
      ignore (Whnf.whnf_normal (chain k, s)))
    [ 1; 2; 3; 4 ];
  let st = Whnf.stats () in
  (st.Whnf.ws_hits, st.Whnf.ws_misses)

let session_tests =
  [
    test "interleaved sessions keep separate whnf memo tables" (fun () ->
        let s1 = Session.create () and s2 = Session.create () in
        let h1, m1 = Session.with_ s1 (fun () -> churn ()) in
        Alcotest.(check bool) "s1 saw whnf traffic" true (h1 + m1 > 0);
        (* a fresh session starts from zero, regardless of s1's work *)
        let st2 =
          Session.with_ s2 (fun () -> Whnf.stats ())
        in
        Alcotest.(check int) "s2 hits" 0 st2.Whnf.ws_hits;
        Alcotest.(check int) "s2 misses" 0 st2.Whnf.ws_misses;
        (* interleave: work in s2, then confirm s1's counters are
           exactly where s1 left them *)
        ignore (Session.with_ s2 (fun () -> churn ()));
        let st1 = Session.with_ s1 (fun () -> Whnf.stats ()) in
        Alcotest.(check int) "s1 hits preserved" h1 st1.Whnf.ws_hits;
        Alcotest.(check int) "s1 misses preserved" m1 st1.Whnf.ws_misses);
    test "Session.reset drops the whnf memo world" (fun () ->
        let s = Session.create () in
        ignore (Session.with_ s (fun () -> churn ()));
        Session.reset s;
        let st = Session.with_ s (fun () -> Whnf.stats ()) in
        Alcotest.(check int) "hits after reset" 0 st.Whnf.ws_hits;
        Alcotest.(check int) "misses after reset" 0 st.Whnf.ws_misses);
  ]

(* ------------------------------------------------------------------------- *)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_agreement; prop_typ_srt_agreement; prop_conv_agrees_with_equal ]

let suites =
  [
    ("whnf: lazy/eager agreement", props);
    ("whnf: shipped examples × cache states", example_tests);
    ("whnf: evaluation fuel (E0905)", fuel_tests);
    ("whnf: session isolation", session_tests);
  ]
