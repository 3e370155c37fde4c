(** The hash-consed term store (PR 4, DESIGN.md §S21): interning
    invariants (identical builds are physically equal; physical equality
    implies deep [Equal]; a copy from another store state is equal but not
    shared), agreement of the memoized [Hsub] with the unmemoized
    reference substitution in {!Ref_hsub}, the shipped examples' verdicts,
    the always-on kernel counters, and the Shift-vs-Dot-expansion
    regression at context boundaries. *)

open Belr_support
open Belr_syntax
open Belr_lf
open Belr_kits
open Lf

let test name f = Alcotest.test_case name `Quick f

let f = Ulam.make ()

(* --- generators (over the §2 signature, as in test_props) --------------- *)

(** Random closed λ-terms (tm). *)
let gen_tm : normal QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then return (Ulam.id_tm f)
         else
           frequency
             [
               (1, return (Ulam.id_tm f));
               (2, map2 (Ulam.app_tm f) (self (n / 2)) (self (n / 2)));
               ( 1,
                 map
                   (fun m ->
                     mk_root (mk_const f.Ulam.lam)
                       [ mk_lam "x" (Hsub.sub_normal (mk_shift 1) m) ])
                   (self (n - 1)) );
             ])

(** Random terms over a context of [n] nat-variables. *)
let gen_nat_open (nvars : int) : normal QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self sz ->
         if sz <= 0 then
           if nvars = 0 then return (Ulam.zero f)
           else
             frequency
               [
                 (1, return (Ulam.zero f));
                 ( 2,
                   map
                     (fun i -> mk_root (mk_bvar (1 + (i mod nvars))) [])
                     small_nat );
               ]
         else frequency [ (1, map (Ulam.succ f) (self (sz - 1))); (1, self 0) ])

(* --- rebuilding through the smart constructors --------------------------- *)

(** Rebuild a term node by node through the [mk_*] constructors, keeping
    binder names.  In the store state the term was built in, the result
    is the same physical node (interning is deterministic and total). *)
let rec rebuild_normal (m : normal) : normal =
  match m with
  | Lam (x, b) -> mk_lam x (rebuild_normal b)
  | Root (h, sp) -> mk_root (rebuild_head h) (List.map rebuild_normal sp)

and rebuild_head (h : head) : head =
  match h with
  | Const c -> mk_const c
  | BVar i -> mk_bvar i
  | PVar (p, s) -> mk_pvar p (rebuild_sub s)
  | MVar (u, s) -> mk_mvar u (rebuild_sub s)
  | Proj (b, k) -> mk_proj (rebuild_head b) k

and rebuild_sub (s : sub) : sub =
  match s with
  | Empty -> mk_empty
  | Shift n -> mk_shift n
  | Dot (fr, s') ->
      let fr' =
        match fr with
        | Obj m -> Obj (rebuild_normal m)
        | Tup t -> Tup (List.map rebuild_normal t)
        | Undef -> Undef
      in
      mk_dot fr' (rebuild_sub s')

(* --- interning properties ------------------------------------------------ *)

let prop_intern_phys =
  QCheck.Test.make ~count:200
    ~name:"interning is canonical: rebuilding a term yields the same node"
    (QCheck.make gen_tm)
    (fun m -> rebuild_normal m == m)

let prop_phys_implies_deep =
  QCheck.Test.make ~count:200
    ~name:"phys-eq implies deep Equal (and the fast path agrees with it)"
    (QCheck.make (QCheck.Gen.pair gen_tm gen_tm))
    (fun (m1, m2) ->
      (* the rebuilt copy is phys-eq and must be deep-equal *)
      Equal.deep_normal m1 (rebuild_normal m1)
      (* on arbitrary pairs the phys-shortcut equality and the pure
         structural spec always agree *)
      && Equal.normal m1 m2 = Equal.deep_normal m1 m2)

let prop_foreign_copy_equal =
  (* a copy built in a fresh store state is what a term that outlives a
     [store_clear] (serve's memory-pressure reset) looks like: it has no
     representative or metadata in the installed state *)
  QCheck.Test.make ~count:200
    ~name:"a copy from a fresh store state is deep-equal but physically fresh"
    (QCheck.make gen_tm)
    (fun m ->
      let copy = with_state (fresh_state ()) (fun () -> rebuild_normal m) in
      Equal.deep_normal m copy && Equal.normal m copy && not (copy == m))

(* --- substitution: Hsub vs the reference oracle -------------------------- *)

(** Random terms over a fixed source context, shaped to reach every case
    of hereditary substitution under {!gen_sub}: index [1 + d] (under [d]
    local [Lam]s) is a function variable applied to one argument (a
    β-redex once it is replaced by a [Lam]), [2 + d] a plain variable,
    [3 + d] a block variable used through projections (a [Tup] front),
    plus meta-variables under a delayed substitution ([comp]).  The LF
    [Lam]s are untyped here — substitution does not look at types. *)
let gen_redex_src : normal QCheck.Gen.t =
  let open QCheck.Gen in
  let rec go d sz st =
    let proj k = mk_root (mk_proj (mk_bvar (3 + d)) (1 + (k mod 2))) [] in
    let leaf =
      frequency
        ((if d > 0 then [ (1, return (bvar 1)) ] else [])
        @ [
            (1, return (Ulam.zero f));
            (2, return (bvar (2 + d)));
            (1, map proj small_nat);
            (1, return (mk_root (mk_mvar 1 (mk_shift 0)) []));
          ])
    in
    if sz <= 0 then leaf st
    else
      frequency
        [
          (1, leaf);
          (2, map (Ulam.succ f) (go d (sz - 1)));
          (2, map (fun a -> mk_root (mk_bvar (1 + d)) [ a ]) (go d (sz - 1)));
          (1, map (mk_lam "x") (go (d + 1) (sz / 2)));
        ]
        st
  in
  sized (go 0)

(** Substitutions for {!gen_redex_src}'s context: a [Lam] for the
    function variable, a term for the plain one, a two-component tuple
    for the block, and a shift for the rest; or a bare shift [↑ⁿ]
    ([n ∈ 1..3]), the renaming every LF weakening goes through. *)
let gen_sub : sub QCheck.Gen.t =
  let open QCheck.Gen in
  let body = gen_nat_open 2 in
  frequency
    [
      ( 3,
        map
          (fun (((fb, x), (p1, p2)), k) ->
            mk_dot
              (Obj (mk_lam "y" fb))
              (mk_dot (Obj x) (mk_dot (Tup [ p1; p2 ]) (mk_shift k))))
          (pair
             (pair (pair body (gen_nat_open 1)) (pair (gen_nat_open 1) (gen_nat_open 1)))
             (int_bound 2)) );
      (1, map mk_shift (int_range 1 3));
    ]

let prop_hsub_matches_oracle =
  QCheck.Test.make ~count:300
    ~name:"Hsub.sub_normal ≡ the unmemoized reference substitution"
    (QCheck.make (QCheck.Gen.pair gen_redex_src gen_sub))
    (fun (m, s) ->
      (* twice: the second call is answered from the memo tables *)
      let r1 = Hsub.sub_normal s m and r2 = Hsub.sub_normal s m in
      let spec = Ref_hsub.sub_normal s m in
      Equal.deep_normal r1 spec && Equal.deep_normal r2 spec)

let prop_hsub_typ_srt_match_oracle =
  QCheck.Test.make ~count:200
    ~name:"Hsub.sub_typ/sub_srt ≡ the unmemoized reference substitution"
    (QCheck.make (QCheck.Gen.pair gen_redex_src gen_sub))
    (fun (m, s) ->
      (* dependent Π shapes, so substitution also goes under binders *)
      let m1 = Hsub.sub_normal (mk_shift 1) m in
      let a =
        mk_pi "x" (mk_atom f.Ulam.deq [ m; m ]) (mk_atom f.Ulam.deq [ m1; bvar 1 ])
      in
      let q =
        mk_spi "x"
          (mk_satom f.Ulam.aeq [ m; m ])
          (mk_satom f.Ulam.aeq [ m1; bvar 1 ])
      in
      Equal.deep_typ (Hsub.sub_typ s a) (Ref_hsub.sub_typ s a)
      && Equal.deep_srt (Hsub.sub_srt s q) (Ref_hsub.sub_srt s q))

let prop_dot_collapse_semantics =
  (* the mk_dot normalization (↑ⁿ for its η-expansion) is semantics-
     preserving: substituting with the expanded spelling behaves exactly
     like the shift it denotes *)
  let gen = QCheck.Gen.(pair (gen_nat_open 2) (int_bound 3)) in
  QCheck.Test.make ~count:200
    ~name:"sub normalization is semantics-preserving under Hsub"
    (QCheck.make gen)
    (fun (m, n) ->
      let expanded = mk_dot (Obj (bvar (n + 1))) (mk_shift (n + 1)) in
      Equal.deep_normal
        (Hsub.sub_normal expanded m)
        (Hsub.sub_normal (mk_shift n) m))

(* --- shipped examples ----------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_src src =
  let sink = Diagnostics.sink () in
  let _sg = Belr_parser.Driver.check_sources sink [ ("test.bel", src) ] in
  Diagnostics.exit_code sink

let example_tests =
  (* totality.blr is checked alone here, without the quickstart.blr that
     supplies [nat], so it must fail *)
  List.map
    (fun (path, code) ->
      test (Fmt.str "%s checks with exit code %d" path code) (fun () ->
          Alcotest.(check int)
            path code
            (check_src (read_file ("../" ^ path)))))
    [
      ("examples/quickstart.blr", 0);
      ("examples/equal.bel", 0);
      ("examples/totality.blr", 1);
    ]

(* --- Shift vs Dot-expansion at context boundaries (the PR 4 bugfix) ------ *)

let boundary_tests =
  [
    test "the Dot-expanded identity equals the identity" (fun () ->
        (* the original bug: crossing a context boundary spells id as
           (1 . ↑¹), which must be equal to ↑⁰ *)
        let expanded = mk_dot (Obj (bvar 1)) (mk_shift 1) in
        Alcotest.(check bool) "Equal.sub" true (Equal.sub expanded (mk_shift 0));
        Alcotest.(check bool) "deep_sub" true
          (Equal.deep_sub expanded (mk_shift 0)));
    test "↑ⁿ equals its Dot-expansion (n+1 . ↑ⁿ⁺¹) for every n" (fun () ->
        List.iter
          (fun n ->
            let expanded = mk_dot (Obj (bvar (n + 1))) (mk_shift (n + 1)) in
            Alcotest.(check bool)
              (Fmt.str "shift %d" n)
              true
              (Equal.sub expanded (mk_shift n)
              && Equal.deep_sub expanded (mk_shift n)))
          [ 0; 1; 2; 5; 11 ]);
    test "the expanded spelling substitutes like the shift" (fun () ->
        List.iter
          (fun n ->
            let expanded = mk_dot (Obj (bvar (n + 1))) (mk_shift (n + 1)) in
            List.iter
              (fun i ->
                Alcotest.(check bool)
                  (Fmt.str "[(%d+1 . ↑%d+2)]%d" n n i)
                  true
                  (Equal.normal
                     (Hsub.sub_normal expanded (bvar i))
                     (bvar (i + n))))
              [ 1; 2; 3; 7 ])
          [ 0; 1; 3 ]);
    test "a genuinely non-shift sub stays distinct from every shift" (fun () ->
        (* (2 . ↑²) IS ↑¹ and collapses at construction; (3 . ↑¹) is not
           the expansion of any shift and must stay distinct *)
        Alcotest.(check bool) "(2 . ↑²) collapses" true
          (Equal.sub (mk_dot (Obj (bvar 2)) (mk_shift 2)) (mk_shift 1));
        let s = mk_dot (Obj (bvar 3)) (mk_shift 1) in
        Alcotest.(check bool) "≠ ↑⁰" false (Equal.sub s (mk_shift 0));
        Alcotest.(check bool) "≠ ↑¹" false (Equal.sub s (mk_shift 1));
        Alcotest.(check bool) "≠ ↑²" false (Equal.sub s (mk_shift 2));
        (* dot1 ↑⁰ short-circuits to the identity *)
        Alcotest.(check bool) "dot1 id = id" true
          (Equal.sub (Hsub.dot1 (mk_shift 0)) (mk_shift 0)));
  ]

(* --- always-on counters --------------------------------------------------- *)

let counter_tests =
  [
    test "store stats: dedup ratio ≥ 1 and live ≤ interned" (fun () ->
        (* force some construction traffic first *)
        for i = 1 to 50 do
          ignore (Ulam.app_tm f (Ulam.id_tm f) (bvar i))
        done;
        let st = store_stats () in
        Alcotest.(check bool) "interned > 0" true (st.st_interned > 0);
        Alcotest.(check bool) "live ≤ interned" true
          (st.st_live <= st.st_interned);
        Alcotest.(check bool) "dedup ratio ≥ 1" true (dedup_ratio () >= 1.0));
    test "repeating a substitution hits the memo" (fun () ->
        let m = Ulam.succ f (Ulam.succ f (bvar 1)) in
        let s = mk_dot (Obj (Ulam.zero f)) (mk_shift 0) in
        let r1 = Hsub.sub_normal s m in
        let before = Hsub.memo_stats () in
        let r2 = Hsub.sub_normal s m in
        let after = Hsub.memo_stats () in
        Alcotest.(check bool) "same node" true (r1 == r2);
        Alcotest.(check bool) "hit counted" true
          (after.Hsub.ms_hits > before.Hsub.ms_hits));
    test "equality counts its phys-eq shortcuts" (fun () ->
        let m = Ulam.app_tm f (Ulam.id_tm f) (Ulam.id_tm f) in
        let before = (Equal.phys_stats ()).Equal.ps_hits in
        Alcotest.(check bool) "equal" true (Equal.normal m (rebuild_normal m));
        let after = (Equal.phys_stats ()).Equal.ps_hits in
        Alcotest.(check bool) "hit counted" true (after > before));
  ]

let suites =
  [
    ( "store",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_intern_phys;
          prop_phys_implies_deep;
          prop_foreign_copy_equal;
          prop_hsub_matches_oracle;
          prop_hsub_typ_srt_match_oracle;
          prop_dot_collapse_semantics;
        ]
      @ example_tests @ boundary_tests @ counter_tests );
  ]
