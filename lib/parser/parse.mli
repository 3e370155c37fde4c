(** Recursive-descent parser for the surface language (grammar in
    README.md; see the paper's §2 listings for the intended look). *)

open Belr_support

val parse_program : ?name:string -> string -> Ext.program

(** Lex [src] (or its region [from]–[stop], see {!Lexer.tokens}) under
    error recovery: a lexical error is reported to [sink] (code [E0101])
    and yields [None] — a text that does not lex has no declarations. *)
val lex_tolerant :
  Diagnostics.sink ->
  ?name:string ->
  ?from:Lexer.cursor ->
  ?stop:int ->
  string ->
  Lexer.lexeme list option

(** Parse a lexeme stream (ending in [EOF]) under error recovery: a
    syntax error inside one declaration is reported to [sink] (code
    [E0101]) and parsing resumes after the next [;]. *)
val parse_lexemes_tolerant : Diagnostics.sink -> Lexer.lexeme list -> Ext.program

(** Fault-tolerant variant of {!parse_program}: a syntax error inside one
    declaration is reported to [sink] (code [E0101]) and parsing resumes
    at the next [;], so one bad declaration does not hide errors in — or
    the contents of — the rest of the file. *)
val parse_program_tolerant :
  Diagnostics.sink -> ?name:string -> string -> Ext.program
