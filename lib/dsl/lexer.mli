(** Lexer for the constraint DSL: a cursor that hands out one token per
    {!next} call.  Comments run from ['#'] or ["--"] to end of line.  In a
    string literal a backslash escapes the next character: [\n] reads as a
    newline, [\t] as a tab, and [\c] as [c] for any other character [c],
    the double quote and the backslash included.

    Tokens are constant constructors, compared with [==]: the text of an
    {!IDENT} or {!STRING} and the value of an {!INT} are read off the
    cursor with {!text} and {!int} until the next {!next} call. *)

type token =
  | IDENT
  | STRING
  | INT
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

type t
(** A cursor over one source string. *)

val token_name : t -> token -> string
(** Human-readable token description for error messages; an {!IDENT},
    {!STRING} or {!INT} is described with the cursor's last one. *)

exception Error of string
(** A lexical error, as [line N: reason]. *)

val make : string -> t
(** A cursor at the start of the source, on line 1. *)

val next : t -> token
(** The next token; {!EOF} at the end of input, and again on every later
    call.
    @raise Error on a lexical error; the cursor is then spent. *)

val text : t -> string
(** The text of the last {!IDENT} or {!STRING} {!next} returned (a string
    literal's escapes resolved). *)

val int : t -> int
(** The value of the last {!INT} {!next} returned. *)

val line : t -> int
(** The line of the token {!next} returned last; for a string literal
    that continues past an escaped newline, the line it ends on. *)
