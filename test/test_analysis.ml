(** The [belr lint] signature analyses: subordination (cross-checked
    against a brute-force closure), the five passes on seeded fixtures,
    clean runs over the shipped examples, the shared-sink exit-code
    contract, and the [belr-lint/1] report shape. *)

open Belr_support
open Belr_parser
module Sign = Belr_lf.Sign
module Subord = Belr_analysis.Subord
module Lint = Belr_analysis.Lint

let test name f = Alcotest.test_case name `Quick f

let check ?werror (sources : (string * string) list) =
  let sink = Diagnostics.sink ?werror () in
  let sg = Driver.check_sources sink sources in
  (sink, sg)

let lint = Driver.lint_analysis ()

(** Lint [sg] through the analysis registry; the result is the per-pass
    finding counts, read back from the outcome's [passes] section. *)
let run_lint sink sg =
  let o = Driver.run_analysis lint sink sg in
  let pass j =
    match (Json.member "name" j, Json.member "findings" j) with
    | Some (Json.String n), Some (Json.Int c) -> (n, c)
    | _ -> Alcotest.fail "malformed passes entry"
  in
  match List.assoc_opt "passes" (Lazy.force o.Driver.sections) with
  | Some (Json.List ps) -> ({ Lint.lr_passes = List.map pass ps }, o)
  | _ -> Alcotest.fail "lint outcome lacks its passes section"

let lint_src ?werror src =
  let sink, sg = check ?werror [ ("test.bel", src) ] in
  let r, _ = run_lint sink sg in
  (sink, sg, r)

(** The belr-lint/1 report of checking then linting [src]. *)
let lint_report src =
  let sink, sg = check [ ("test.bel", src) ] in
  let _, o = run_lint sink sg in
  (sink, Driver.report_json ~files:[ "planted.bel" ] sink lint o)

let codes sink =
  List.map (fun (d : Diagnostics.t) -> d.Diagnostics.d_code)
    (Diagnostics.all sink)

let count code sink =
  List.length (List.filter (String.equal code) (codes sink))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let nat = "LF nat : type = | z : nat | s : nat -> nat;\n"

(* --- subordination ------------------------------------------------------- *)

(** Reference implementation: reflexive-transitive reachability over
    {!Subord.direct_edges} by depth-first search, independent of the
    bitset closure. *)
let brute_leq sg =
  let edges = Subord.direct_edges sg in
  fun a b ->
    let visited = Hashtbl.create 16 in
    let rec reach x =
      x = b
      || (not (Hashtbl.mem visited x))
         && begin
              Hashtbl.replace visited x ();
              List.exists (fun (u, v) -> u = x && reach v) edges
            end
    in
    reach a

let cross_check name src () =
  let _, sg = check [ (name, src) ] in
  let sub = Subord.analyze sg in
  let reference = brute_leq sg in
  let fams = Subord.families sub in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Fmt.str "%s: %s =< %s" name (Sign.typ_entry sg a).Sign.t_name
               (Sign.typ_entry sg b).Sign.t_name)
            (reference a b) (Subord.leq sub a b))
        fams)
    fams

let planted_src =
  nat
  ^ "LF tm : type = | bad : ((tm -> tm) -> tm) -> tm;\n\
     LF vac : nat -> type = | v : {x : nat} vac z;\n\
     LF shad : nat -> type = | w : {y : nat} {y : nat} shad y;\n\
     LFR mt <| nat : sort;\n\
     LFR p1 <| nat : sort = | s : nat -> p1;\n\
     LFR p2 <| nat : sort = | s : nat -> p2;\n\
     schema gdead = | w : block (x : nat);\n\
     LF use : tm -> vac z -> shad z -> type;\n"

let subord_tests =
  [
    test "closure matches brute force on the aeq/deq signature"
      (cross_check "equal.bel" Belr_kits.Surface.signature_src);
    test "closure matches brute force on the full development"
      (cross_check "full.bel" Belr_kits.Surface.full_src);
    test "closure matches brute force on the planted lint fixture"
      (cross_check "planted.bel" planted_src);
    test "tm is subordinate to deq but not conversely" (fun () ->
        let _, sg = check [ ("s.bel", Belr_kits.Surface.signature_src) ] in
        let sub = Subord.analyze sg in
        let fam = Belr_kits.Lookup.find_typ sg in
        Alcotest.(check bool) "tm =< deq" true
          (Subord.leq sub (fam "tm") (fam "deq"));
        Alcotest.(check bool) "deq =< tm" false
          (Subord.leq sub (fam "deq") (fam "tm"));
        Alcotest.(check bool) "reflexive" true
          (Subord.leq sub (fam "tm") (fam "tm"));
        Alcotest.(check bool) "not mutual" false
          (Subord.mutual sub (fam "tm") (fam "deq")));
    test "the relation is exported through the lint listing" (fun () ->
        let sink, sg =
          check [ ("test.bel", Belr_kits.Surface.signature_src) ]
        in
        let _, o = run_lint sink sg in
        let listing = Fmt.str "%a" o.Driver.listing () in
        let has affix =
          let n = String.length affix in
          let rec go i =
            i + n <= String.length listing
            && (String.sub listing i n = affix || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "has a cross-family pair" true
          (has "tm =< deq"));
  ]

(* --- dependents: the closure against plain reachability -------------------- *)

(** Reference implementation of {!Subord.dependents}: plain forward
    reachability over {!Subord.direct_edges}, one DFS per seed. *)
let brute_dependents sg seeds =
  let edges = Subord.direct_edges sg in
  let seen = Hashtbl.create 16 in
  let rec visit x =
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.replace seen x ();
      List.iter (fun (u, v) -> if u = x then visit v) edges
    end
  in
  List.iter visit seeds;
  List.sort compare (Hashtbl.fold (fun a () acc -> a :: acc) seen [])

(* Random signatures as one mutual LF group — mutual recursion means any
   family can reference any other, so arbitrary edge graphs (including
   cycles) are expressible.  Edge (u, v) is a constant of [fv] with
   domain [fu], i.e. [fu ≼ fv]. *)
let src_of_graph (n, edges) =
  let b = Buffer.create 256 in
  for i = 0 to n - 1 do
    Buffer.add_string b (if i = 0 then "LF " else "and ");
    Buffer.add_string b (Printf.sprintf "f%d : type =\n| k%d : f%d" i i i);
    List.iteri
      (fun j (u, v) ->
        if v = i then
          Buffer.add_string b (Printf.sprintf "\n| e%d : f%d -> f%d" j u v))
      edges;
    Buffer.add_char b '\n'
  done;
  Buffer.add_string b ";";
  Buffer.contents b

let graph_gen =
  QCheck.Gen.(
    int_range 2 5 >>= fun n ->
    let cells =
      List.concat_map
        (fun u ->
          List.filter_map
            (fun v -> if u = v then None else Some (u, v))
            (List.init n Fun.id))
        (List.init n Fun.id)
    in
    list_repeat (List.length cells) bool >>= fun flips ->
    let edges =
      List.combine cells flips |> List.filter snd |> List.map fst
    in
    return (n, edges))

let graph_print (n, edges) = src_of_graph (n, edges)

let with_graph_sig (n, edges) k =
  let sink = Diagnostics.sink () in
  let sg =
    Driver.check_sources sink [ ("gen.bel", src_of_graph (n, edges)) ]
  in
  if Diagnostics.error_count sink > 0 then
    QCheck.Test.fail_reportf "generated fixture does not check:@.%s"
      (src_of_graph (n, edges))
  else k sg

let dependents_qcheck =
  [
    QCheck.Test.make ~count:200
      ~name:
        "the bitset closure's dependents agree with brute-force \
         reachability on random signatures"
      (QCheck.make ~print:graph_print graph_gen)
      (fun (n, edges) ->
        with_graph_sig (n, edges) (fun sg ->
            let sub = Subord.analyze sg in
            List.for_all
              (fun i ->
                let seed = Belr_kits.Lookup.find_typ sg (Printf.sprintf "f%d" i) in
                List.sort compare (Subord.dependents sub [ seed ])
                = brute_dependents sg [ seed ])
              (List.init n Fun.id)));
  ]

let dependents_tests =
  [
    test "a mutual group's families depend on each other" (fun () ->
        let _, sg =
          check
            [
              ( "mut.bel",
                "LF a : type = | ca : b -> a\n\
                 and b : type = | cb : a -> b;\n" );
            ]
        in
        let fam = Belr_kits.Lookup.find_typ sg in
        let a = fam "a" and bf = fam "b" in
        let both = List.sort compare [ a; bf ] in
        let sub = Subord.analyze sg in
        let deps seed = List.sort compare (Subord.dependents sub [ seed ]) in
        Alcotest.(check bool) "from a" true (deps a = both);
        Alcotest.(check bool) "from b" true (deps bf = both);
        Alcotest.(check bool) "mutual" true (Subord.mutual sub a bf));
    test "an isolated family depends only on itself" (fun () ->
        let _, sg = check [ ("iso.bel", nat ^ "LF tm : type = | c : tm;\n") ] in
        let tm = Belr_kits.Lookup.find_typ sg "tm" in
        Alcotest.(check bool) "singleton" true
          (Subord.dependents (Subord.analyze sg) [ tm ] = [ tm ]));
  ]
  @ List.map QCheck_alcotest.to_alcotest dependents_qcheck

(* --- the bitset closure across 64-bit word boundaries -------------------- *)

(* A sparse random graph over [n] families, 3n/2 edges, fixed per size. *)
let sparse_graph n =
  let rng = Random.State.make [| n |] in
  let edge _ =
    let u = Random.State.int rng n in
    (u, (u + 1 + Random.State.int rng (n - 1)) mod n)
  in
  (n, List.init (3 * n / 2) edge)

let closure_tests =
  List.map
    (fun n ->
      test (Printf.sprintf "closure matches brute force at %d families" n)
        (fun () ->
          let sink, sg =
            check [ ("words.bel", src_of_graph (sparse_graph n)) ]
          in
          Alcotest.(check int) "fixture checks" 0 (Diagnostics.error_count sink);
          let sub = Subord.analyze sg in
          Alcotest.(check int) "families" n (List.length (Subord.families sub));
          List.iter
            (fun a ->
              Alcotest.(check (list int))
                (Fmt.str "dependents of %s" (Sign.typ_entry sg a).Sign.t_name)
                (brute_dependents sg [ a ])
                (Subord.dependents sub [ a ]))
            (Subord.families sub);
          Alcotest.(check int) "pair_count counts the pairs"
            (List.length (Subord.pairs sub))
            (Subord.pair_count sub)))
    [ 63; 64; 65; 128; 129 ]
  @ [
      test "the empty signature has no pairs; unknown families are reflexive"
        (fun () ->
          let sub = Subord.analyze (Sign.create ()) in
          Alcotest.(check int) "no pairs" 0 (List.length (Subord.pairs sub));
          Alcotest.(check int) "pair_count" 0 (Subord.pair_count sub);
          Alcotest.(check bool) "a =< a" true (Subord.leq sub 7 7);
          Alcotest.(check bool) "a =< b" false (Subord.leq sub 7 8));
    ]

(* --- the passes on seeded fixtures -------------------------------------- *)

let pass_tests =
  [
    test "W0701: a vacuous Pi-dependency is reported once" (fun () ->
        let sink, _, _ =
          lint_src
            (nat
           ^ "LF vac : nat -> type = | v : {x : nat} vac z;\n\
              LF use : vac z -> type;\n")
        in
        Alcotest.(check int) "one W0701" 1 (count "W0701" sink);
        Alcotest.(check int) "exit 0 (warning only)" 0
          (Diagnostics.exit_code sink));
    test "W0701: second-order binders that are used stay clean" (fun () ->
        let sink, _, _ =
          lint_src
            (nat
           ^ "LF fin : nat -> type = | fz : {n : nat} fin (s n);\n\
              LF use : fin (s z) -> type;\n")
        in
        Alcotest.(check int) "no W0701" 0 (count "W0701" sink));
    test "W0702: third-order negative occurrence breaks adequacy" (fun () ->
        let sink, _, _ =
          lint_src
            ("LF tm : type = | lam : (tm -> tm) -> tm | app : tm -> tm -> \
              tm;\n\
              LF bad : type = | b : ((bad -> bad) -> bad) -> bad;\n\
              LF use : tm -> bad -> type;\n")
        in
        Alcotest.(check int) "one W0702" 1 (count "W0702" sink));
    test "W0702: the canonical second-order HOAS encoding is adequate"
      (fun () ->
        let sink, _, _ =
          lint_src
            ("LF tm : type = | lam : (tm -> tm) -> tm | app : tm -> tm -> \
              tm;\n\
              LF use : tm -> type;\n")
        in
        Alcotest.(check int) "no W0702" 0 (count "W0702" sink));
    test "W0703: an empty refinement sort is reported" (fun () ->
        let sink, _, _ = lint_src (nat ^ "LFR mt <| nat : sort;\n") in
        Alcotest.(check int) "one W0703" 1 (count "W0703" sink));
    test "E0702: identical constant sets form a subsort cycle (exit 1)"
      (fun () ->
        let sink, _, _ =
          lint_src
            (nat
           ^ "LFR p1 <| nat : sort = | s : nat -> p1;\n\
              LFR p2 <| nat : sort = | s : nat -> p2;\n")
        in
        Alcotest.(check int) "one E0702" 1 (count "E0702" sink);
        Alcotest.(check int) "exit 1" 1 (Diagnostics.exit_code sink));
    test "E0702: distinct constant sets are not a cycle" (fun () ->
        let sink, _, _ =
          lint_src
            (nat
           ^ "LFR p1 <| nat : sort = | s : nat -> p1;\n\
              LFR p2 <| nat : sort = | z : p2 | s : nat -> p2;\n")
        in
        Alcotest.(check int) "no E0702" 0 (count "E0702" sink));
    test "W0704: an unreferenced schema is reported" (fun () ->
        let sink, _, _ =
          lint_src (nat ^ "schema g = | w : block (x : nat);\n")
        in
        Alcotest.(check int) "one W0704" 1 (count "W0704" sink));
    test "W0704: a schema referenced by a theorem is not reported" (fun () ->
        let sink, _, _ =
          lint_src
            (nat
           ^ "schema g = | w : block (x : nat);\n\
              rec f : (Psi : g) (M : [Psi |- nat]) [Psi |- nat] =\n\
              mlam Psi => mlam M => [Psi |- M];\n")
        in
        Alcotest.(check int) "no W0704" 0 (count "W0704" sink));
    test "W0704: constants of a referenced family are considered live"
      (fun () ->
        (* z is never written anywhere, but nat is matched on/referenced,
           so its constructors count as data of a live family *)
        let sink, _, _ = lint_src (nat ^ "LF use : nat -> type;\n") in
        Alcotest.(check int) "no W0704" 0 (count "W0704" sink));
    test "W0704: block/worlds declarations are exempt and keep their \
          family live"
      (fun () ->
        (* nothing references nat except the %block/%worlds pair; the
           declarations themselves must not be flagged either *)
        let sink, _, _ =
          lint_src
            (nat ^ "%block xb = block (x : nat);\n%worlds (xb) nat;\n")
        in
        Alcotest.(check int) "no W0704" 0 (count "W0704" sink));
    test "W0704: a schema referenced only by a mutual rec group still \
          counts as used"
      (fun () ->
        (* intra-group calls share one canonical group key, so flip
           crediting flop is inert — but the group's references to
           *other* declarations still count *)
        let sink, _, _ =
          lint_src
            (nat
           ^ "schema g = | w : block (x : nat);\n\
              rec flip : (Psi : g) (M : [Psi |- nat]) [Psi |- nat] =\n\
              mlam Psi => mlam M => flop [Psi] [Psi |- M]\n\
              and flop : (Psi : g) (M : [Psi |- nat]) [Psi |- nat] =\n\
              mlam Psi => mlam M => [Psi |- M];\n")
        in
        Alcotest.(check int) "no W0704" 0 (count "W0704" sink));
    test "W0705: a shadowed Pi binder is reported" (fun () ->
        let sink, _, _ =
          lint_src
            (nat
           ^ "LF shad : nat -> type = | w : {y : nat} {y : nat} shad y;\n\
              LF use : shad z -> type;\n")
        in
        Alcotest.(check int) "one W0705" 1 (count "W0705" sink));
    test "the five passes run in order with per-pass counts" (fun () ->
        let sink, _, r = lint_src planted_src in
        Alcotest.(check (list string))
          "pass order"
          [ "subord"; "adequacy"; "sorts"; "unused"; "shadowing" ]
          (List.map fst r.Lint.lr_passes);
        let total = List.fold_left (fun n (_, c) -> n + c) 0 r.Lint.lr_passes in
        Alcotest.(check int) "per-pass counts sum to the findings" total
          (Diagnostics.error_count sink + Diagnostics.warning_count sink));
    test "the comprehensive fixture plants every documented code (exit 1)"
      (fun () ->
        let sink, _, _ = lint_src planted_src in
        List.iter
          (fun c ->
            Alcotest.(check bool) (c ^ " planted") true
              (List.mem c (codes sink)))
          [ "W0701"; "W0702"; "W0703"; "E0702"; "W0704"; "W0705" ];
        Alcotest.(check int) "exit 1" 1 (Diagnostics.exit_code sink));
  ]

(* --- golden finding text ------------------------------------------------- *)

(** Every finding of a lint run, rendered as the CLI prints it: location,
    severity, code and message. *)
let rendered sink =
  List.map (Fmt.str "%a" Diagnostics.pp) (Diagnostics.all sink)

(** One W0705 per shape of the entity a shadowed or duplicated name sits
    in: a family's kind, a constant's type, a rec's type, a context in a
    rec's type, a schema world and a refinement-schema world. *)
let shadow_shapes_src =
  nat
  ^ "LFR pos <| nat : sort = | z : pos | s : nat -> pos;\n\
     LF kd : {y : nat} {y : nat} type;\n\
     LF cd : nat -> type = | cw : {y : nat} {y : nat} cd y;\n\
     schema g = | w : block (x : nat, x : nat);\n\
     schema gr <| g = | w : block (x : pos, x : pos);\n\
     rec f : (M : [ |- nat]) (M : [ |- nat]) [ |- nat] = mlam M => mlam M \
     => [ |- M];\n\
     rec h : (Psi : g) (N : [x : nat, x : nat |- nat]) [ |- nat] = mlam Psi \
     => mlam N => [ |- z];\n"

let golden_tests =
  [
    test "planted findings render byte-for-byte" (fun () ->
        let sink, _, _ = lint_src planted_src in
        Alcotest.(check (list string))
          "rendered findings"
          [
            "test.bel:3.25-26: warning[W0701]: vacuous Pi-dependency in v: \
             binder x never occurs in its scope (write the domain as an \
             arrow, or drop it so the family can be strengthened away)";
            "test.bel:4.26-27: warning[W0701]: vacuous Pi-dependency in w: \
             binder y never occurs in its scope (write the domain as an \
             arrow, or drop it so the family can be strengthened away)";
            "test.bel:2.17-20: warning[W0702]: bad leaves the second-order \
             HOAS fragment: family tm occurs at order 3 in negative \
             position, so the encoding admits exotic terms and its adequacy \
             is at risk";
            "test.bel:5.4-6: warning[W0703]: refinement sort mt is empty: no \
             constant of nat was assigned a sort in this family, so no \
             closed term inhabits it";
            "test.bel:7.4-6: error[E0702]: subsort cycle: p1 and p2 refine \
             nat with identical constant sets, so each is a subsort of the \
             other; one of the two declarations is redundant";
            "test.bel:5.4-6: warning[W0704]: refinement sort mt is never \
             referenced by a later declaration, theorem, or program";
            "test.bel:6.4-6: warning[W0704]: refinement sort p1 is never \
             referenced by a later declaration, theorem, or program";
            "test.bel:7.4-6: warning[W0704]: refinement sort p2 is never \
             referenced by a later declaration, theorem, or program";
            "test.bel:8.0-6: warning[W0704]: schema gdead is never \
             referenced by a later declaration, theorem, or program";
            "test.bel:4.26-27: warning[W0705]: binder y in the type of w \
             shadows an enclosing binder of the same name";
          ]
          (rendered sink));
    test "every W0705 shape renders byte-for-byte" (fun () ->
        let sink, _, _ = lint_src shadow_shapes_src in
        Alcotest.(check (list string))
          "rendered findings"
          [
            "test.bel:3.3-5: warning[W0701]: vacuous Pi-dependency in the \
             kind of kd: binder y never occurs in its scope";
            "test.bel:3.3-5: warning[W0701]: vacuous Pi-dependency in the \
             kind of kd: binder y never occurs in its scope";
            "test.bel:4.24-26: warning[W0701]: vacuous Pi-dependency in cw: \
             binder y never occurs in its scope (write the domain as an \
             arrow, or drop it so the family can be strengthened away)";
            "test.bel:4.24-26: warning[W0704]: constant cw is never \
             referenced, and neither is its family cd";
            "test.bel:6.0-6: warning[W0704]: refinement schema gr is never \
             referenced by a later declaration, theorem, or program";
            "test.bel:3.3-5: warning[W0705]: binder y in the kind of kd \
             shadows an enclosing binder of the same name";
            "test.bel:4.24-26: warning[W0705]: binder y in the type of cw \
             shadows an enclosing binder of the same name";
            "test.bel:5.0-6: warning[W0705]: world w of schema g binds x \
             more than once; the later entry shadows the earlier";
            "test.bel:6.0-6: warning[W0705]: world w of refinement schema gr \
             binds x more than once; the later entry shadows the earlier";
            "test.bel:7.4-5: warning[W0705]: binder M in the type of f \
             shadows an enclosing binder of the same name";
            "test.bel:8.4-5: warning[W0705]: a context in the type of h \
             binds x more than once; the later entry shadows the earlier";
          ]
          (rendered sink));
    test "the report's loc strings are the rendered locations" (fun () ->
        let _, j = lint_report planted_src in
        let findings =
          Option.bind (Json.member "findings" j) Json.to_list
          |> Option.value ~default:[]
        in
        Alcotest.(check (list string))
          "loc strings"
          [
            "test.bel:3.25-26"; "test.bel:4.26-27"; "test.bel:2.17-20";
            "test.bel:5.4-6"; "test.bel:7.4-6"; "test.bel:5.4-6";
            "test.bel:6.4-6"; "test.bel:7.4-6"; "test.bel:8.0-6";
            "test.bel:4.26-27";
          ]
          (List.filter_map
             (fun f -> Option.bind (Json.member "loc" f) Json.to_str)
             findings));
  ]

(* --- clean runs over the shipped examples -------------------------------- *)

let clean_tests =
  [
    test "the full §2 development has zero findings" (fun () ->
        let sink, _, _ = lint_src Belr_kits.Surface.full_src in
        Alcotest.(check (list string)) "no diagnostics" [] (codes sink);
        Alcotest.(check int) "exit 0" 0 (Diagnostics.exit_code sink));
    test "examples/quickstart.blr has zero findings" (fun () ->
        let src = read_file "../examples/quickstart.blr" in
        let sink, _, _ = lint_src src in
        Alcotest.(check (list string)) "no diagnostics" [] (codes sink));
    test "the emitted equal.bel has zero findings" (fun () ->
        let src = read_file "../examples/equal.bel" in
        let sink, _, _ = lint_src src in
        Alcotest.(check (list string)) "no diagnostics" [] (codes sink));
  ]

(* --- shared sink, exit codes, recovery ----------------------------------- *)

let contract_tests =
  [
    test "lint shares the sink with checking (one stream, one exit code)"
      (fun () ->
        let sink, sg =
          check [ ("t.bel", nat ^ "LF bad : type = | c : missing;\n") ]
        in
        let _ = run_lint sink sg in
        Alcotest.(check bool) "check error present" true
          (List.mem "E0201" (codes sink));
        Alcotest.(check int) "exit 1" 1 (Diagnostics.exit_code sink));
    test "--werror promotes lint warnings to exit 1" (fun () ->
        let sink, _, _ =
          lint_src ~werror:true (nat ^ "schema g = | w : block (x : nat);\n")
        in
        Alcotest.(check int) "exit 1" 1 (Diagnostics.exit_code sink));
    test "a crashing pass is a recovered B0002, not a lost run" (fun () ->
        let sink = Diagnostics.sink () in
        let boom =
          {
            Belr_analysis.Pass.p_name = "boom";
            p_doc = "always crashes";
            p_run = (fun _ _ _ -> raise Not_found);
          }
        in
        let sg = Sign.create () in
        let counts =
          Belr_analysis.Pass.run_all [ boom ] sg (Belr_analysis.Facts.make sg)
            sink
        in
        Alcotest.(check (list (pair string int)))
          "pass still reports" [ ("boom", 0) ] counts;
        Alcotest.(check int) "bug recorded" 1 (Diagnostics.bug_count sink);
        Alcotest.(check int) "exit 2" 2 (Diagnostics.exit_code sink));
    test "--max-errors keeps the counts of the passes that ran" (fun () ->
        let sink = Diagnostics.sink ~max_errors:1 () in
        let sg =
          Driver.check_sources sink
            [
              ( "cap.bel",
                nat
                ^ "LF vac : nat -> type = | v : {x : nat} vac z;\n\
                   LFR p1 <| nat : sort = | s : nat -> p1;\n\
                   LFR p2 <| nat : sort = | s : nat -> p2;\n" );
            ]
        in
        let r, _ = run_lint sink sg in
        Alcotest.(check (list (pair string int)))
          "subord, adequacy, and the tripping sorts pass"
          [ ("subord", 1); ("adequacy", 0); ("sorts", 1) ]
          r.Lint.lr_passes;
        Alcotest.(check (list string))
          "W0701, E0702, then the cap note"
          [ "W0701"; "E0702"; "E0002" ]
          (codes sink));
    test "lint phases appear as lint:<pass> telemetry spans" (fun () ->
        Telemetry.reset ();
        Telemetry.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Telemetry.set_enabled false)
          (fun () ->
            let _ = lint_src Belr_kits.Surface.signature_src in
            let names =
              List.map (fun e -> e.Telemetry.ev_name) (Telemetry.events ())
            in
            List.iter
              (fun p ->
                Alcotest.(check bool) (p ^ " span recorded") true
                  (List.mem p names))
              [
                "lint"; "lint:subord"; "lint:adequacy"; "lint:sorts";
                "lint:unused"; "lint:shadowing";
              ]));
  ]

(* --- the belr-lint/1 report ---------------------------------------------- *)

let report_tests =
  [
    test "the JSON report round-trips and carries the documented shape"
      (fun () ->
        let sink, j = lint_report planted_src in
        match Json.parse (Json.to_string j) with
        | Error msg -> Alcotest.failf "report does not re-parse: %s" msg
        | Ok j ->
            Alcotest.(check (option string))
              "schema" (Some "belr-lint/1")
              (Option.bind (Json.member "schema" j) Json.to_str);
            let findings =
              Option.bind (Json.member "findings" j) Json.to_list
              |> Option.value ~default:[]
            in
            Alcotest.(check bool) "has findings" true (findings <> []);
            List.iter
              (fun f ->
                Alcotest.(check bool) "finding has code" true
                  (Option.bind (Json.member "code" f) Json.to_str <> None);
                Alcotest.(check bool) "finding has severity" true
                  (Option.bind (Json.member "severity" f) Json.to_str <> None))
              findings;
            Alcotest.(check (option int))
              "exit_code" (Some 1)
              (Option.bind (Json.member "exit_code" j) Json.to_int);
            let summary_warnings =
              Option.bind (Json.member "summary" j) (Json.member "warnings")
              |> Fun.flip Option.bind Json.to_int
            in
            Alcotest.(check (option int))
              "summary.warnings counts the sink"
              (Some (Diagnostics.warning_count sink))
              summary_warnings);
    test "findings carry source positions from the declaration table"
      (fun () ->
        let _, j = lint_report planted_src in
        let findings =
          Option.bind (Json.member "findings" j) Json.to_list
          |> Option.value ~default:[]
        in
        let located =
          List.filter
            (fun f ->
              Option.bind (Json.member "file" f) Json.to_str
              = Some "test.bel")
            findings
        in
        Alcotest.(check bool) "every finding is located" true
          (List.length located = List.length findings));
  ]

let suites =
  [
    ("analysis.subordination", subord_tests);
    ("analysis.dependents", dependents_tests);
    ("analysis.closure", closure_tests);
    ("analysis.passes", pass_tests);
    ("analysis.golden", golden_tests);
    ("analysis.clean", clean_tests);
    ("analysis.contract", contract_tests);
    ("analysis.report", report_tests);
  ]
