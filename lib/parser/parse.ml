(** Recursive-descent parser for the surface language (grammar in
    README.md; see the paper's §2 listings for the intended look). *)

open Belr_support
open Token

type state = { toks : Lexer.lexeme array; mutable pos : int }

let make lexemes = { toks = Array.of_list lexemes; pos = 0 }

let cur st = st.toks.(st.pos)

let cur_tok st = (cur st).Lexer.tok

let cur_loc st = (cur st).Lexer.loc

let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let peek_tok st k =
  if st.pos + k < Array.length st.toks then
    Some st.toks.(st.pos + k).Lexer.tok
  else None

let fail st fmt =
  Format.kasprintf
    (fun s ->
      Error.raise_at (cur_loc st) "parse error: %s (found %s)" s
        (Token.to_string (cur_tok st)))
    fmt

let expect st tok =
  if cur_tok st = tok then advance st
  else fail st "expected %s" (Token.to_string tok)

let expect_ident st =
  match cur_tok st with
  | IDENT s ->
      advance st;
      s
  | _ -> fail st "expected an identifier"

(* ------------------------------------------------------------------ *)
(* LF-level terms                                                      *)

let rec parse_term st : Ext.term =
  match cur_tok st with
  | LBRACE ->
      let loc = cur_loc st in
      advance st;
      let x = expect_ident st in
      expect st COLON;
      let dom = parse_term st in
      expect st RBRACE;
      let body = parse_term st in
      Ext.Pi (loc, x, dom, body)
  | BACKSLASH ->
      let loc = cur_loc st in
      advance st;
      let x = expect_ident st in
      expect st DOT;
      let body = parse_term st in
      Ext.Lam (loc, x, body)
  | _ ->
      let lhs = parse_app st in
      if cur_tok st = ARROW then (
        advance st;
        let rhs = parse_term st in
        Ext.Arrow (lhs, rhs))
      else lhs

and parse_app st : Ext.term =
  let head = parse_atom st in
  let rec go acc =
    match cur_tok st with
    | IDENT _ | LPAREN | HASH | KW_TYPE | KW_SORT | BACKSLASH ->
        let arg = parse_atom st in
        go (Ext.App (acc, arg))
    | _ -> acc
  in
  go head

and parse_atom st : Ext.term =
  let base =
    match cur_tok st with
    | IDENT s ->
        let loc = cur_loc st in
        advance st;
        Ext.Ident (loc, s)
    | KW_TYPE ->
        let loc = cur_loc st in
        advance st;
        Ext.TypeKw loc
    | KW_SORT ->
        let loc = cur_loc st in
        advance st;
        Ext.SortKw loc
    | HASH ->
        let loc = cur_loc st in
        advance st;
        let s = expect_ident st in
        Ext.Hash (loc, s)
    | LPAREN ->
        advance st;
        let t = parse_term st in
        expect st RPAREN;
        t
    | BACKSLASH ->
        let loc = cur_loc st in
        advance st;
        let x = expect_ident st in
        expect st DOT;
        let body = parse_term st in
        Ext.Lam (loc, x, body)
    | _ -> fail st "expected a term"
  in
  parse_postfix st base

and parse_postfix st (base : Ext.term) : Ext.term =
  match cur_tok st with
  | DOT -> (
      match peek_tok st 1 with
      | Some (NUM k) ->
          let loc = cur_loc st in
          advance st;
          advance st;
          parse_postfix st (Ext.Proj (loc, base, k))
      | _ -> base)
  | LBRACK ->
      let loc = cur_loc st in
      advance st;
      let s = parse_esub st in
      expect st RBRACK;
      parse_postfix st (Ext.Sub (loc, base, s))
  | _ -> base

and parse_esub st : Ext.esub =
  let dots =
    if cur_tok st = DOTDOT then (
      advance st;
      true)
    else false
  in
  let fronts = ref [] in
  let parse_front () =
    match cur_tok st with
    | LANGLE ->
        let loc = cur_loc st in
        advance st;
        let rec items acc =
          let t = parse_term st in
          if cur_tok st = SEMI then (
            advance st;
            items (t :: acc))
          else List.rev (t :: acc)
        in
        let ts = items [] in
        expect st RANGLE;
        Ext.Ftuple (loc, ts)
    | _ -> Ext.Fterm (parse_term st)
  in
  if dots then
    while cur_tok st = COMMA do
      advance st;
      fronts := parse_front () :: !fronts
    done
  else if cur_tok st <> RBRACK then begin
    fronts := [ parse_front () ];
    while cur_tok st = COMMA do
      advance st;
      fronts := parse_front () :: !fronts
    done
  end;
  { Ext.es_dots = dots; Ext.es_fronts = List.rev !fronts }

(* ------------------------------------------------------------------ *)
(* Contexts                                                            *)

and parse_ectx st : Ext.ectx =
  let loc = cur_loc st in
  if cur_tok st = DOT then (
    advance st;
    { Ext.ec_loc = loc; Ext.ec_var = None; Ext.ec_entries = [] })
  else if cur_tok st = TURNSTILE || cur_tok st = RBRACK then
    { Ext.ec_loc = loc; Ext.ec_var = None; Ext.ec_entries = [] }
  else begin
    (* first item: bare identifier (optionally ^) = context variable *)
    let var =
      match (cur_tok st, peek_tok st 1) with
      | IDENT s, Some CARET ->
          advance st;
          advance st;
          Some (s, true)
      | IDENT s, (Some (COMMA | TURNSTILE | RBRACK) | None) ->
          advance st;
          Some (s, false)
      | _ -> None
    in
    let entries = ref [] in
    let parse_entry () =
      let n = expect_ident st in
      expect st COLON;
      let cls =
        if cur_tok st = KW_BLOCK then begin
          let bloc = cur_loc st in
          advance st;
          expect st LPAREN;
          let rec fields acc =
            let f = expect_ident st in
            expect st COLON;
            let t = parse_term st in
            if cur_tok st = COMMA then (
              advance st;
              fields ((f, t) :: acc))
            else List.rev ((f, t) :: acc)
          in
          let fs = fields [] in
          expect st RPAREN;
          Ext.Cblock (bloc, fs)
        end
        else Ext.Cterm (parse_term st)
      in
      entries := { Ext.ce_name = n; Ext.ce_class = cls } :: !entries
    in
    (match var with
    | Some _ ->
        while cur_tok st = COMMA do
          advance st;
          parse_entry ()
        done
    | None ->
        parse_entry ();
        while cur_tok st = COMMA do
          advance st;
          parse_entry ()
        done);
    { Ext.ec_loc = loc; Ext.ec_var = var; Ext.ec_entries = List.rev !entries }
  end

(* ------------------------------------------------------------------ *)
(* Computation-level sorts                                             *)

and parse_cdom st : Ext.cdom =
  match cur_tok st with
  | IDENT s ->
      let loc = cur_loc st in
      advance st;
      Ext.DSchema (loc, s)
  | LBRACK ->
      let loc = cur_loc st in
      advance st;
      let ctx = parse_ectx st in
      expect st TURNSTILE;
      let t = parse_term st in
      expect st RBRACK;
      Ext.DBox (loc, ctx, t)
  | HASH ->
      let loc = cur_loc st in
      advance st;
      expect st LBRACK;
      let ctx = parse_ectx st in
      expect st TURNSTILE;
      let w = expect_ident st in
      let rec args acc =
        match cur_tok st with
        | RBRACK -> List.rev acc
        | _ -> args (parse_atom st :: acc)
      in
      let ms = args [] in
      expect st RBRACK;
      Ext.DParam (loc, ctx, w, ms)
  | _ -> fail st "expected a schema name, a boxed sort, or #[…]"

and parse_csort st : Ext.csort =
  match cur_tok st with
  | LBRACE ->
      let loc = cur_loc st in
      advance st;
      let x = expect_ident st in
      expect st COLON;
      let dom = parse_cdom st in
      expect st RBRACE;
      let body = parse_csort st in
      Ext.SPi (loc, x, false, dom, body)
  | LPAREN when is_implicit_pi st ->
      let loc = cur_loc st in
      advance st;
      let x = expect_ident st in
      expect st COLON;
      let dom = parse_cdom st in
      expect st RPAREN;
      let body = parse_csort st in
      Ext.SPi (loc, x, true, dom, body)
  | _ ->
      let lhs = parse_csort_atom st in
      if cur_tok st = ARROW then (
        advance st;
        let rhs = parse_csort st in
        Ext.SArr (lhs, rhs))
      else lhs

and is_implicit_pi st =
  match (peek_tok st 1, peek_tok st 2) with
  | Some (IDENT _), Some COLON -> true
  | _ -> false

and parse_csort_atom st : Ext.csort =
  match cur_tok st with
  | LBRACK ->
      let loc = cur_loc st in
      advance st;
      let ctx = parse_ectx st in
      expect st TURNSTILE;
      let t = parse_term st in
      expect st RBRACK;
      Ext.SBox (loc, ctx, t)
  | LPAREN ->
      advance st;
      let s = parse_csort st in
      expect st RPAREN;
      s
  | _ -> fail st "expected a computation-level sort"

(* ------------------------------------------------------------------ *)
(* Computation-level expressions                                       *)

and parse_cexp st : Ext.cexp =
  match cur_tok st with
  | KW_FN ->
      let loc = cur_loc st in
      advance st;
      let x = expect_ident st in
      expect st DARROW;
      Ext.EFn (loc, x, parse_cexp st)
  | KW_MLAM ->
      let loc = cur_loc st in
      advance st;
      let x = expect_ident st in
      expect st DARROW;
      Ext.EMlam (loc, x, parse_cexp st)
  | KW_LET ->
      let loc = cur_loc st in
      advance st;
      expect st LBRACK;
      let x = expect_ident st in
      expect st RBRACK;
      expect st EQUAL;
      let e1 = parse_cexp st in
      expect st KW_IN;
      let e2 = parse_cexp st in
      Ext.ELetBox (loc, x, e1, e2)
  | KW_CASE ->
      let loc = cur_loc st in
      advance st;
      let scrut = parse_capp st in
      expect st KW_OF;
      let branches = ref [] in
      while cur_tok st = BAR do
        advance st;
        branches := parse_branch st :: !branches
      done;
      if !branches = [] then fail st "case expression has no branches";
      Ext.ECase (loc, scrut, List.rev !branches)
  | _ -> parse_capp st

and parse_capp st : Ext.cexp =
  let head = parse_catom st in
  let rec go acc =
    match cur_tok st with
    | IDENT _ | LBRACK | LPAREN ->
        let arg = parse_catom st in
        go (Ext.EApp (cur_loc st, acc, arg))
    | _ -> acc
  in
  go head

and parse_catom st : Ext.cexp =
  match cur_tok st with
  | IDENT s ->
      let loc = cur_loc st in
      advance st;
      Ext.EIdent (loc, s)
  | LBRACK ->
      let loc = cur_loc st in
      advance st;
      let ctx = parse_ectx st in
      if cur_tok st = TURNSTILE then (
        advance st;
        let t = parse_term st in
        expect st RBRACK;
        Ext.EBox (loc, ctx, t))
      else (
        expect st RBRACK;
        Ext.ECtx (loc, ctx))
  | LPAREN ->
      advance st;
      let e = parse_cexp st in
      expect st RPAREN;
      e
  | _ -> fail st "expected a computation-level expression"

and parse_branch st : Ext.branch =
  let loc = cur_loc st in
  let decls = ref [] in
  while cur_tok st = LBRACE do
    let dloc = cur_loc st in
    advance st;
    (match cur_tok st with HASH -> advance st | _ -> ());
    let x = expect_ident st in
    expect st COLON;
    let dom = parse_cdom st in
    expect st RBRACE;
    decls := (dloc, x, dom) :: !decls
  done;
  expect st LBRACK;
  let ctx = parse_ectx st in
  expect st TURNSTILE;
  let pat = parse_term st in
  expect st RBRACK;
  expect st DARROW;
  let body = parse_cexp st in
  {
    Ext.b_loc = loc;
    Ext.b_decls = List.rev !decls;
    Ext.b_ctx = ctx;
    Ext.b_pat = pat;
    Ext.b_body = body;
  }

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)

let parse_ctors st : Ext.ctor list =
  let ctors = ref [] in
  while cur_tok st = BAR do
    advance st;
    let loc = cur_loc st in
    let name = expect_ident st in
    expect st COLON;
    let t = parse_term st in
    ctors := { Ext.k_loc = loc; Ext.k_name = name; Ext.k_typ = t } :: !ctors
  done;
  List.rev !ctors

let parse_world st : Ext.world =
  let loc = cur_loc st in
  (* either "name : {params} block (…)" or bare "{params} block (…)" *)
  let name =
    match (cur_tok st, peek_tok st 1) with
    | IDENT s, Some COLON ->
        advance st;
        advance st;
        s
    | _ -> "W"
  in
  let params = ref [] in
  while cur_tok st = LBRACE do
    advance st;
    let x = expect_ident st in
    expect st COLON;
    let t = parse_term st in
    expect st RBRACE;
    params := (x, t) :: !params
  done;
  expect st KW_BLOCK;
  expect st LPAREN;
  let rec fields acc =
    let f = expect_ident st in
    expect st COLON;
    let t = parse_term st in
    if cur_tok st = COMMA then (
      advance st;
      fields ((f, t) :: acc))
    else List.rev ((f, t) :: acc)
  in
  let fs = fields [] in
  expect st RPAREN;
  {
    Ext.w_loc = loc;
    Ext.w_name = name;
    Ext.w_params = List.rev !params;
    Ext.w_fields = fs;
  }

let parse_decl st : Ext.decl option =
  match cur_tok st with
  | EOF -> None
  | KW_LF | KW_LFR ->
      let one () =
        let loc = cur_loc st in
        let name = expect_ident st in
        let refines =
          if cur_tok st = REFINES then (
            advance st;
            Some (expect_ident st))
          else None
        in
        expect st COLON;
        let kind = parse_term st in
        let ctors =
          if cur_tok st = EQUAL then (advance st; parse_ctors st) else []
        in
        { Ext.d_loc = loc; Ext.d_name = name; Ext.d_refines = refines;
          Ext.d_kind = kind; Ext.d_ctors = ctors }
      in
      advance st;
      let first = one () in
      let rest = ref [] in
      while cur_tok st = KW_AND do
        advance st;
        rest := one () :: !rest
      done;
      expect st SEMI;
      Some
        (if !rest = [] then Ext.Dtyp first
         else Ext.Dmutual (first :: List.rev !rest))
  | KW_SCHEMA ->
      let loc = cur_loc st in
      advance st;
      let name = expect_ident st in
      let refines =
        if cur_tok st = REFINES then (
          advance st;
          Some (expect_ident st))
        else None
      in
      expect st EQUAL;
      let worlds = ref [] in
      if cur_tok st = BAR then
        while cur_tok st = BAR do
          advance st;
          worlds := parse_world st :: !worlds
        done
      else worlds := [ parse_world st ];
      expect st SEMI;
      Some
        (Ext.Dschema
           { s_loc = loc; s_name = name; s_refines = refines;
             s_worlds = List.rev !worlds })
  | KW_REC ->
      advance st;
      let parse_def () =
        let loc = cur_loc st in
        let name = expect_ident st in
        expect st COLON;
        let sort = parse_csort st in
        expect st EQUAL;
        let body = parse_cexp st in
        { Ext.r_loc = loc; r_name = name; r_sort = sort; r_body = body }
      in
      let defs = ref [ parse_def () ] in
      while cur_tok st = KW_AND do
        advance st;
        defs := parse_def () :: !defs
      done;
      expect st SEMI;
      Some (Ext.Drec (List.rev !defs))
  | KW_PBLOCK ->
      (* %block b = {x:A}* block (y:t, …); *)
      let loc = cur_loc st in
      advance st;
      let name = expect_ident st in
      expect st EQUAL;
      let w = parse_world st in
      expect st SEMI;
      Some
        (Ext.Dblock
           {
             bl_loc = loc;
             bl_world = { w with Ext.w_name = name; Ext.w_loc = loc };
           })
  | KW_PWORLDS ->
      (* %worlds (b₁ | … | bₙ) fam₁ … famₖ; — an empty block list "()"
         declares closed worlds *)
      let loc = cur_loc st in
      advance st;
      expect st LPAREN;
      let blocks = ref [] in
      (match cur_tok st with
      | RPAREN -> ()
      | _ ->
          let rec go () =
            let bloc = cur_loc st in
            let b = expect_ident st in
            blocks := (bloc, b) :: !blocks;
            if cur_tok st = BAR then begin
              advance st;
              go ()
            end
          in
          go ());
      expect st RPAREN;
      let fams = ref [] in
      let floc = cur_loc st in
      let f = expect_ident st in
      fams := [ (floc, f) ];
      let rec more () =
        match cur_tok st with
        | IDENT _ ->
            let floc = cur_loc st in
            let f = expect_ident st in
            fams := (floc, f) :: !fams;
            more ()
        | _ -> ()
      in
      more ();
      expect st SEMI;
      Some
        (Ext.Dworlds
           {
             ws_loc = loc;
             ws_blocks = List.rev !blocks;
             ws_fams = List.rev !fams;
           })
  | KW_PMODE ->
      (* %mode fam +M … -N; — '+' marks an input position, '-' an output *)
      let loc = cur_loc st in
      advance st;
      let floc = cur_loc st in
      let fam = expect_ident st in
      let args = ref [] in
      let rec go () =
        match cur_tok st with
        | PLUS | MINUS ->
            let aloc = cur_loc st in
            let input = cur_tok st = PLUS in
            advance st;
            let x = expect_ident st in
            args := (aloc, input, x) :: !args;
            go ()
        | _ -> ()
      in
      go ();
      expect st SEMI;
      Some
        (Ext.Dmode
           { md_loc = loc; md_fam = (floc, fam); md_args = List.rev !args })
  | _ ->
      fail st
        "expected a declaration (LF, LFR, schema, rec, %%block, %%worlds, \
         or %%mode)"

let parse_program ?name (src : string) : Ext.program =
  let st = make (Lexer.tokens ?name src) in
  let rec go acc =
    match parse_decl st with
    | Some d -> go (d :: acc)
    | None -> List.rev acc
  in
  go []

(** Skip past the next declaration terminator [;] (or to end of input) —
    the resynchronization point after a syntax error. *)
let resync st =
  let rec go () =
    match cur_tok st with
    | EOF -> ()
    | SEMI -> advance st
    | _ ->
        advance st;
        go ()
  in
  go ()

(** Lex [src] (or its region [from]–[stop], see {!Lexer.tokens}) under
    error recovery: a lexical error is reported to [sink] (code [E0101])
    and yields [None] — a text that does not lex has no declarations. *)
let lex_tolerant (sink : Diagnostics.sink) ?name ?from ?stop (src : string) :
    Lexer.lexeme list option =
  Diagnostics.recover sink ~code:"E0101" (fun () ->
      Lexer.tokens ?name ?from ?stop src)

(** Parse a lexeme stream (ending in [EOF]) under error recovery: a
    syntax error inside one declaration is reported to [sink] (code
    [E0101]) and parsing resumes after the next [;]. *)
let parse_lexemes_tolerant (sink : Diagnostics.sink)
    (lexemes : Lexer.lexeme list) : Ext.program =
  let st = make lexemes in
  let rec go acc =
    match Diagnostics.recover sink ~code:"E0101" (fun () -> parse_decl st) with
    | Some (Some d) -> go (d :: acc)
    | Some None -> List.rev acc
    | None ->
        if cur_tok st = EOF then List.rev acc
        else begin
          resync st;
          go acc
        end
  in
  go []

(** Fault-tolerant variant of {!parse_program}: a syntax error inside one
    declaration is reported to [sink] (code [E0101]) and parsing resumes
    at the next [;], so one bad declaration does not hide errors in — or
    the contents of — the rest of the file. *)
let parse_program_tolerant (sink : Diagnostics.sink) ?name (src : string) :
    Ext.program =
  match lex_tolerant sink ?name src with
  | None -> []
  | Some lexemes -> parse_lexemes_tolerant sink lexemes
