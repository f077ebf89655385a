(** Lexer for the constraint DSL: a cursor that hands out one token per
    {!next} call.  Comments run from ['#'] or ["--"] to end of line.  In a
    string literal a backslash escapes the next character: [\n] reads as a
    newline, [\t] as a tab, and [\c] as [c] for any other character [c],
    the double quote and the backslash included. *)

type token =
  | IDENT of string
  | STRING of string
  | INT of int
  | KW_SCHEMA
  | KW_CIND
  | KW_CFD
  | KW_INSTANCE
  | KW_WITH
  | KW_STRING
  | KW_INT
  | KW_BOOL
  | KW_TRUE
  | KW_FALSE
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | COLON
  | UNDERSCORE
  | SUBSETEQ  (** [<=] *)
  | ARROW  (** [->] *)
  | BARBAR  (** [||] *)
  | EOF

val token_name : token -> string
(** Human-readable token description for error messages. *)

type t
(** A cursor over one source string. *)

exception Error of string
(** A lexical error, as [line N: reason]. *)

val make : string -> t
(** A cursor at the start of the source, on line 1. *)

val next : t -> token
(** The next token; {!EOF} at the end of input, and again on every later
    call.
    @raise Error on a lexical error; the cursor is then spent. *)

val line : t -> int
(** The line of the token {!next} returned last; for a string literal
    that continues past an escaped newline, the line it ends on. *)
