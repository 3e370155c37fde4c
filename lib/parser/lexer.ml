(** Hand-written lexer for the surface language.

    Identifiers may contain [-] (e.g. [e-lam]) provided the next character
    continues the identifier, so [a->b] still lexes as [a], [->], [b].
    Comments are [% … end-of-line] (as in Twelf/Beluga). *)

open Belr_support

type lexeme = { tok : Token.t; loc : Loc.t }

type state = {
  src : string;
  name : string;
  stop : int;  (** lexing ends here: offsets from [stop] on read as EOF *)
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
}

(** Where lexing starts: a byte offset, its 1-based line, and the offset
    of that line's first byte.  Starting at a line start [o] on line [l]
    ([{ c_offset = o; c_line = l; c_bol = o }]) lexes [src] from [o] on
    exactly as a whole-text lexer would, locations included. *)
type cursor = { c_offset : int; c_line : int; c_bol : int }

let origin = { c_offset = 0; c_line = 1; c_bol = 0 }

let make ?(name = "<string>") ?(from = origin) ?stop src =
  let n = String.length src in
  let stop = match stop with Some s -> min s n | None -> n in
  { src; name; stop; pos = from.c_offset; line = from.c_line; bol = from.c_bol }

let peek_at st k =
  if st.pos + k < st.stop then Some st.src.[st.pos + k] else None

let peek st = peek_at st 0

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
  | _ -> ());
  st.pos <- st.pos + 1

let here st : Loc.pos =
  { Loc.line = st.line; Loc.col = st.pos - st.bol; Loc.offset = st.pos }

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '\'' || c = '!'

let is_digit c = c >= '0' && c <= '9'

let keyword = function
  | "LF" -> Some Token.KW_LF
  | "LFR" -> Some Token.KW_LFR
  | "schema" -> Some Token.KW_SCHEMA
  | "rec" -> Some Token.KW_REC
  | "block" -> Some Token.KW_BLOCK
  | "type" -> Some Token.KW_TYPE
  | "sort" -> Some Token.KW_SORT
  | "fn" -> Some Token.KW_FN
  | "mlam" -> Some Token.KW_MLAM
  | "case" -> Some Token.KW_CASE
  | "of" -> Some Token.KW_OF
  | "let" -> Some Token.KW_LET
  | "in" -> Some Token.KW_IN
  | "and" -> Some Token.KW_AND
  | _ -> None

(** Does a [%block] / [%worlds] / [%mode] directive start at the current
    position?  The word after [%] must not continue as an identifier, so
    a comment like [%blocked: …] still skips to end of line. *)
let directive_at st : Token.t option =
  let word w tok =
    let n = String.length w in
    let rec eq k = k >= n || (peek_at st (1 + k) = Some w.[k] && eq (k + 1)) in
    if
      eq 0
      &&
      match peek_at st (1 + n) with
      | Some c -> not (is_ident_char c || c = '-')
      | None -> true
    then Some tok
    else None
  in
  match word "block" Token.KW_PBLOCK with
  | Some t -> Some t
  | None -> (
      match word "worlds" Token.KW_PWORLDS with
      | Some t -> Some t
      | None -> word "mode" Token.KW_PMODE)

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_ws st
  | Some '%' when directive_at st = None ->
      let rec to_eol () =
        match peek st with
        | Some '\n' | None -> ()
        | Some _ ->
            advance st;
            to_eol ()
      in
      to_eol ();
      skip_ws st
  | _ -> ()

let next (st : state) : lexeme =
  skip_ws st;
  let start = here st in
  let fin tok =
    let stop = here st in
    { tok; loc = Loc.make ~source:st.name ~start_pos:start ~end_pos:stop }
  in
  match peek st with
  | None -> fin Token.EOF
  | Some c when is_ident_start c ->
      let b = Buffer.create 8 in
      let rec go () =
        match peek st with
        | Some c when is_ident_char c ->
            Buffer.add_char b c;
            advance st;
            go ()
        | Some '-' -> (
            (* include '-' only when the identifier continues *)
            match peek_at st 1 with
            | Some c2 when is_ident_char c2 || c2 = '-' ->
                Buffer.add_char b '-';
                advance st;
                go ()
            | _ -> ())
        | _ -> ()
      in
      Buffer.add_char b c;
      advance st;
      go ();
      let s = Buffer.contents b in
      fin (match keyword s with Some k -> k | None -> Token.IDENT s)
  | Some c when is_digit c ->
      let b = Buffer.create 4 in
      let rec go () =
        match peek st with
        | Some c when is_digit c ->
            Buffer.add_char b c;
            advance st;
            go ()
        | _ -> ()
      in
      go ();
      fin (Token.NUM (int_of_string (Buffer.contents b)))
  | Some '%' -> (
      (* skip_ws left a [%] in place only for a directive *)
      match directive_at st with
      | Some tok ->
          let n =
            match tok with
            | Token.KW_PBLOCK -> 5
            | Token.KW_PMODE -> 4
            | _ -> 6
          in
          for _ = 0 to n do
            advance st
          done;
          fin tok
      | None ->
          Error.raise_at
            (Loc.make ~source:st.name ~start_pos:start ~end_pos:(here st))
            "unexpected character %%")
  | Some '-' when peek_at st 1 = Some '>' ->
      advance st;
      advance st;
      fin Token.ARROW
  | Some '=' when peek_at st 1 = Some '>' ->
      advance st;
      advance st;
      fin Token.DARROW
  | Some '<' when peek_at st 1 = Some '|' ->
      advance st;
      advance st;
      fin Token.REFINES
  | Some '|' when peek_at st 1 = Some '-' ->
      advance st;
      advance st;
      fin Token.TURNSTILE
  | Some '.' when peek_at st 1 = Some '.' ->
      advance st;
      advance st;
      fin Token.DOTDOT
  | Some c ->
      advance st;
      fin
        (match c with
        | '(' -> Token.LPAREN
        | ')' -> Token.RPAREN
        | '[' -> Token.LBRACK
        | ']' -> Token.RBRACK
        | '{' -> Token.LBRACE
        | '}' -> Token.RBRACE
        | '<' -> Token.LANGLE
        | '>' -> Token.RANGLE
        | ';' -> Token.SEMI
        | ':' -> Token.COLON
        | ',' -> Token.COMMA
        | '.' -> Token.DOT
        | '|' -> Token.BAR
        | '=' -> Token.EQUAL
        | '\\' -> Token.BACKSLASH
        | '#' -> Token.HASH
        | '^' -> Token.CARET
        | '+' -> Token.PLUS
        | '-' -> Token.MINUS
        | c ->
            Error.raise_at
              (Loc.make ~source:st.name ~start_pos:start ~end_pos:(here st))
              "unexpected character %c" c)

(** Lex the input, or its region from [from] to [stop] (default: all of
    it).  The final [EOF] lexeme stands at [stop]. *)
let tokens ?name ?from ?stop src : lexeme list =
  let st = make ?name ?from ?stop src in
  let rec go acc =
    let l = next st in
    if l.tok = Token.EOF then List.rev (l :: acc) else go (l :: acc)
  in
  go []
