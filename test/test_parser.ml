(** Tests for the front end: lexing, parsing, elaboration, and the full
    §2 development in surface syntax — its constructor types checked
    against the internal-syntax fixture, and its proofs run end-to-end. *)

open Belr_support
open Belr_syntax
open Belr_lf
open Belr_core
open Belr_comp
open Belr_kits
open Belr_parser
open Lf

let ok name thunk = Alcotest.test_case name `Quick thunk

let fails name thunk =
  Alcotest.test_case name `Quick (fun () ->
      match thunk () with
      | exception Error.Belr_error _ -> ()
      | exception Error.Violation _ -> ()
      | _ -> Alcotest.failf "%s: expected failure" name)

let lexer_tests =
  [
    ok "lexes identifiers with dashes" (fun () ->
        match List.map (fun l -> l.Lexer.tok) (Lexer.tokens "e-lam -> x") with
        | [ Token.IDENT "e-lam"; Token.ARROW; Token.IDENT "x"; Token.EOF ] ->
            ()
        | _ -> Alcotest.fail "bad tokens");
    ok "lexes symbols" (fun () ->
        match
          List.map (fun l -> l.Lexer.tok) (Lexer.tokens "<| |- .. => ^ #")
        with
        | [ Token.REFINES; Token.TURNSTILE; Token.DOTDOT; Token.DARROW;
            Token.CARET; Token.HASH; Token.EOF ] ->
            ()
        | _ -> Alcotest.fail "bad tokens");
    ok "skips comments" (fun () ->
        match
          List.map (fun l -> l.Lexer.tok)
            (Lexer.tokens "x % this is a comment\n y")
        with
        | [ Token.IDENT "x"; Token.IDENT "y"; Token.EOF ] -> ()
        | _ -> Alcotest.fail "bad tokens");
  ]

let parse_tests =
  [
    ok "parses the signature" (fun () ->
        let p = Parse.parse_program Surface.signature_src in
        Alcotest.(check int) "decls" 8 (List.length p));
    ok "parses a rec with branches" (fun () ->
        match Parse.parse_program Surface.ceq_src with
        | [ Ext.Drec [ { r_body = Ext.EMlam _; _ } ] ] -> ()
        | _ -> Alcotest.fail "unexpected parse");
    ok "parses a mutual rec group" (fun () ->
        match
          Parse.parse_program
            "rec f : [ |- nat] -> [ |- nat] = fn d => g d\n\
             and g : [ |- nat] -> [ |- nat] = fn d => f d;"
        with
        | [ Ext.Drec [ { r_name = "f"; _ }; { r_name = "g"; _ } ] ] -> ()
        | _ -> Alcotest.fail "unexpected parse");
    fails "rejects unbalanced brackets" (fun () ->
        Parse.parse_program "LF t : type = | c : (t -> t;");
    fails "rejects stray tokens" (fun () ->
        Parse.parse_program "schema G = ;");
  ]

(* The full pipeline *)

let surface_sg = lazy (Surface.load ())

let sig_tests =
  [
    ok "the full §2 surface development parses, elaborates, and checks"
      (fun () -> ignore (Lazy.force surface_sg));
    ok "reconstruction found the right number of implicit arguments"
      (fun () ->
        let sg = Lazy.force surface_sg in
        let check name n =
          Alcotest.(check int)
            (name ^ " implicits") n
            (Sign.const_entry sg (Lookup.find_const sg name)).Sign.c_implicit
        in
        check "e-lam" 2;
        check "e-app" 4;
        check "e-refl" 0;
        check "e-sym" 2;
        check "e-trans" 3);
    ok "the surface and internal developments give α-equal constructor types"
      (fun () ->
        let sg = Lazy.force surface_sg in
        let f = Fixtures.make () in
        let get s name =
          Fmt.str "%a"
            (Pp.pp_typ (Sign.pp_env s))
            (Sign.const_entry s (Lookup.find_const s name)).Sign.c_typ
        in
        List.iter
          (fun n ->
            Alcotest.(check string) (n ^ " types agree") (get f.Fixtures.sg n)
              (get sg n))
          [ "lam"; "app"; "e-lam"; "e-app"; "e-refl"; "e-sym"; "e-trans" ]);
    fails "an LFR declaration cannot select foreign constructors" (fun () ->
        Process.program
          (Surface.signature_src
         ^ "LFR bad <| tm : tm -> tm -> sort = | e-refl : {M : tm} bad M M;"));
    fails "ill-sorted surface programs are rejected" (fun () ->
        Process.program
          (Surface.signature_src
         ^ {bel|
rec broken : (Psi : xaG) (M : [Psi |- tm]) [Psi |- aeq M M] =
mlam Psi => mlam M => [Psi |- e-refl M];
|bel}));
  ]

(* Run the surface development *)

let hat_empty = { Meta.hat_var = None; Meta.hat_names = [] }

let mapps f args = List.fold_left (fun e a -> Comp.MApp (e, a)) f args

let run_tests =
  [
    ok "surface ceq computes the recorded result" (fun () ->
        let sg = Lazy.force surface_sg in
        let c n = mk_const (Lookup.find_const sg n) in
        let idt = mk_root (c "lam") [ mk_lam "x" (mk_root (mk_bvar 1) []) ] in
        let refl = mk_root (c "e-refl") [ idt ] in
        let sym = mk_root (c "e-sym") [ idt; idt; refl ] in
        let d = mk_root (c "e-trans") [ idt; idt; idt; refl; sym ] in
        let call =
          Comp.App
            ( mapps
                (Comp.RecConst (Lookup.find_rec sg "ceq"))
                [
                  Meta.MOCtx Ctxs.empty_sctx;
                  Meta.MOTerm (hat_empty, idt);
                  Meta.MOTerm (hat_empty, idt);
                ],
              Comp.Box (Meta.MOTerm (hat_empty, d)) )
        in
        match Eval.as_box (Eval.eval (Eval.make_env sg) call) with
        | Meta.MOTerm (_, m) ->
            Alcotest.(check string)
              "ceq result" "e-lam (\\x. x) (\\x. x) (\\x. \\u. u)"
              (Fmt.str "%a" (Pp.pp_normal (Sign.pp_env sg)) m)
        | _ -> Alcotest.fail "expected a boxed term");
    ok "surface aeq-refl runs in a non-empty context" (fun () ->
        let sg = Lazy.force surface_sg in
        let refl = Lookup.find_rec sg "aeq-refl" in
        (* Ψ = b : xeW, M = app b.1 b.1 *)
        let xeW =
          match Elab.find_world sg "xeW" with
          | Some (Elab.Wsort f) -> f
          | _ -> Alcotest.fail "xeW not found"
        in
        let psi1 =
          Ctxs.sctx_push Ctxs.empty_sctx (Ctxs.SCBlock ("b", xeW, []))
        in
        let app_c = Lookup.find_const sg "app" in
        let b1 = (mk_root ((mk_proj ((mk_bvar 1)) 1)) []) in
        let m = (mk_root ((mk_const app_c)) ([ b1; b1 ])) in
        let h = Meta.hat_of_sctx psi1 in
        let call =
          mapps (Comp.RecConst refl)
            [ Meta.MOCtx psi1; Meta.MOTerm (h, m) ]
        in
        let res =
          match Eval.as_box (Eval.eval (Eval.make_env sg) call) with
          | Meta.MOTerm (_, m) -> m
          | _ -> Alcotest.fail "expected a boxed term"
        in
        let aeq_s = Lookup.find_srt sg "aeq" in
        ignore
          (Check_lfr.check_normal (Check_lfr.make_env sg []) psi1 res
             ((mk_satom aeq_s ([ m; m ])))));
  ]

let suites =
  [
    ("parser.lexer", lexer_tests);
    ("parser.parse", parse_tests);
    ("parser.pipeline", sig_tests);
    ("parser.run", run_tests);
  ]
