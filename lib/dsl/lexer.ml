(* Hand-written lexer for the constraint DSL: a cursor over the source that
   hands out one token per [next] call.  [line] is the line of the token
   returned last, for error reporting; comments run from '#' or '--' to end
   of line. *)

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
  | SUBSETEQ (* <= *)
  | ARROW (* -> *)
  | BARBAR (* || *)
  | EOF

let token_name = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | STRING s -> Printf.sprintf "string %S" s
  | INT i -> Printf.sprintf "integer %d" i
  | KW_SCHEMA -> "'schema'"
  | KW_CIND -> "'cind'"
  | KW_CFD -> "'cfd'"
  | KW_INSTANCE -> "'instance'"
  | KW_WITH -> "'with'"
  | KW_STRING -> "'string'"
  | KW_INT -> "'int'"
  | KW_BOOL -> "'bool'"
  | KW_TRUE -> "'true'"
  | KW_FALSE -> "'false'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | COMMA -> "','"
  | SEMI -> "';'"
  | COLON -> "':'"
  | UNDERSCORE -> "'_'"
  | SUBSETEQ -> "'<='"
  | ARROW -> "'->'"
  | BARBAR -> "'||'"
  | EOF -> "end of input"

let keyword = function
  | "schema" -> Some KW_SCHEMA
  | "cind" -> Some KW_CIND
  | "cfd" -> Some KW_CFD
  | "instance" -> Some KW_INSTANCE
  | "with" -> Some KW_WITH
  | "string" -> Some KW_STRING
  | "int" -> Some KW_INT
  | "bool" -> Some KW_BOOL
  | "true" -> Some KW_TRUE
  | "false" -> Some KW_FALSE
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '_' || c = '.' || c = '%'

let is_digit c = c >= '0' && c <= '9'

type t = { source : string; mutable pos : int; mutable line : int }

exception Error of string

let make source = { source; pos = 0; line = 1 }
let line t = t.line

let error t fmt = Printf.ksprintf (fun s -> raise (Error (Printf.sprintf "line %d: %s" t.line s))) fmt

(* [token] ends just before [i]. *)
let emit t i token =
  t.pos <- i;
  token

let rec next t = scan t t.pos

and scan t i =
  let source = t.source in
  let n = String.length source in
  if i >= n then emit t i EOF
  else
    match source.[i] with
    | '\n' ->
        t.line <- t.line + 1;
        scan t (i + 1)
    | ' ' | '\t' | '\r' -> scan t (i + 1)
    | '#' -> skip_line t (i + 1)
    | '-' when i + 1 < n && source.[i + 1] = '-' -> skip_line t (i + 2)
    | '(' -> emit t (i + 1) LPAREN
    | ')' -> emit t (i + 1) RPAREN
    | '{' -> emit t (i + 1) LBRACE
    | '}' -> emit t (i + 1) RBRACE
    | '[' -> emit t (i + 1) LBRACKET
    | ']' -> emit t (i + 1) RBRACKET
    | ',' -> emit t (i + 1) COMMA
    | ';' -> emit t (i + 1) SEMI
    | ':' -> emit t (i + 1) COLON
    | '<' when i + 1 < n && source.[i + 1] = '=' -> emit t (i + 2) SUBSETEQ
    | '-' when i + 1 < n && source.[i + 1] = '>' -> emit t (i + 2) ARROW
    | '|' when i + 1 < n && source.[i + 1] = '|' -> emit t (i + 2) BARBAR
    | '_' when i + 1 >= n || not (is_ident_char source.[i + 1]) -> emit t (i + 1) UNDERSCORE
    | '"' -> lex_string t (i + 1) (Buffer.create 16)
    | c when is_digit c || (c = '-' && i + 1 < n && is_digit source.[i + 1]) -> lex_int t i
    | c when is_ident_start c || c = '_' -> lex_ident t i
    | c -> error t "unexpected character %C" c

and skip_line t i =
  if i >= String.length t.source || t.source.[i] = '\n' then scan t i else skip_line t (i + 1)

and lex_string t i buf =
  let source = t.source in
  let n = String.length source in
  if i >= n then error t "unterminated string literal"
  else
    match source.[i] with
    | '"' -> emit t (i + 1) (STRING (Buffer.contents buf))
    | '\\' when i + 1 < n ->
        let c = source.[i + 1] in
        if c = '\n' then t.line <- t.line + 1;
        Buffer.add_char buf (match c with 'n' -> '\n' | 't' -> '\t' | c -> c);
        lex_string t (i + 2) buf
    | '\n' -> error t "newline in string literal"
    | c ->
        Buffer.add_char buf c;
        lex_string t (i + 1) buf

and lex_int t i =
  let source = t.source in
  let n = String.length source in
  let j = ref i in
  if source.[!j] = '-' then incr j;
  while !j < n && is_digit source.[!j] do
    incr j
  done;
  match int_of_string_opt (String.sub source i (!j - i)) with
  | Some v -> emit t !j (INT v)
  | None -> error t "integer literal out of range"

and lex_ident t i =
  let source = t.source in
  let n = String.length source in
  let j = ref i in
  while !j < n && is_ident_char source.[!j] do
    incr j
  done;
  let word = String.sub source i (!j - i) in
  emit t !j (match keyword word with Some kw -> kw | None -> IDENT word)
