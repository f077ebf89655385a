(* Hand-written lexer for the constraint DSL: a cursor over the source that
   hands out one token per [next] call.  [line] is the line of the token
   returned last, for error reporting; comments run from '#' or '--' to end
   of line.  Every token is a constant constructor: an identifier's or a
   string's text and an integer's value stay in the cursor, so a token
   allocates nothing beyond its text and compares by [==]. *)

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
  | SUBSETEQ (* <= *)
  | ARROW (* -> *)
  | BARBAR (* || *)
  | EOF

type t = {
  source : string;
  mutable pos : int;
  mutable line : int;
  mutable text : string; (* of the last IDENT or STRING *)
  mutable int : int; (* of the last INT *)
}

exception Error of string

let make source = { source; pos = 0; line = 1; text = ""; int = 0 }
let line t = t.line
let text t = t.text
let int t = t.int

let token_name t = function
  | IDENT -> Printf.sprintf "identifier %S" t.text
  | STRING -> Printf.sprintf "string %S" t.text
  | INT -> Printf.sprintf "integer %d" t.int
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

(* [w] is spelled by [source] from [i] on, from its [k]th character. *)
let rec spells w source i k =
  k = String.length w || (w.[k] = source.[i + k] && spells w source i (k + 1))

(* The keyword spelled by [source.[i .. i + len - 1]], or [IDENT]; the
   word is not copied. *)
let keyword source i len =
  match len with
  | 3 ->
      if spells "cfd" source i 0 then KW_CFD else if spells "int" source i 0 then KW_INT else IDENT
  | 4 ->
      if spells "cind" source i 0 then KW_CIND
      else if spells "with" source i 0 then KW_WITH
      else if spells "bool" source i 0 then KW_BOOL
      else if spells "true" source i 0 then KW_TRUE
      else IDENT
  | 5 -> if spells "false" source i 0 then KW_FALSE else IDENT
  | 6 ->
      if spells "schema" source i 0 then KW_SCHEMA
      else if spells "string" source i 0 then KW_STRING
      else IDENT
  | 8 -> if spells "instance" source i 0 then KW_INSTANCE else IDENT
  | _ -> IDENT

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

(* '1' at the code of every character an identifier continues with: one
   lookup per character of the most frequent token. *)
let ident_chars =
  String.init 256 (fun i ->
      let c = Char.chr i in
      if is_ident_start c || (c >= '0' && c <= '9') || c = '_' || c = '.' || c = '%' then '1' else '0')

let is_ident_char c = String.unsafe_get ident_chars (Char.code c) = '1'

let is_digit c = c >= '0' && c <= '9'

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
    | '"' -> lex_string t (i + 1) (i + 1)
    | c when is_digit c || (c = '-' && i + 1 < n && is_digit source.[i + 1]) -> lex_int t i
    | c when is_ident_start c || c = '_' -> lex_ident t i
    | c -> error t "unexpected character %C" c

and skip_line t i =
  if i >= String.length t.source || t.source.[i] = '\n' then scan t i else skip_line t (i + 1)

(* A literal without a backslash is one [String.sub] of the source; the
   first backslash hands the rest to [lex_escaped]. *)
and lex_string t start i =
  let source = t.source in
  if i >= String.length source then error t "unterminated string literal"
  else
    match source.[i] with
    | '"' ->
        t.text <- String.sub source start (i - start);
        emit t (i + 1) STRING
    | '\\' ->
        let buf = Buffer.create (i - start + 16) in
        Buffer.add_substring buf source start (i - start);
        lex_escaped t i buf
    | '\n' -> error t "newline in string literal"
    | _ -> lex_string t start (i + 1)

and lex_escaped t i buf =
  let source = t.source in
  let n = String.length source in
  if i >= n then error t "unterminated string literal"
  else
    match source.[i] with
    | '"' ->
        t.text <- Buffer.contents buf;
        emit t (i + 1) STRING
    | '\\' when i + 1 < n ->
        let c = source.[i + 1] in
        if c = '\n' then t.line <- t.line + 1;
        Buffer.add_char buf (match c with 'n' -> '\n' | 't' -> '\t' | c -> c);
        lex_escaped t (i + 2) buf
    | '\n' -> error t "newline in string literal"
    | c ->
        Buffer.add_char buf c;
        lex_escaped t (i + 1) buf

and lex_int t i =
  let source = t.source in
  let n = String.length source in
  let j = ref i in
  if source.[!j] = '-' then incr j;
  while !j < n && is_digit source.[!j] do
    incr j
  done;
  match int_of_string_opt (String.sub source i (!j - i)) with
  | Some v ->
      t.int <- v;
      emit t !j INT
  | None -> error t "integer literal out of range"

and lex_ident t i =
  let source = t.source in
  let n = String.length source in
  let j = ref i in
  while !j < n && is_ident_char source.[!j] do
    incr j
  done;
  match keyword source i (!j - i) with
  | IDENT ->
      t.text <- String.sub source i (!j - i);
      emit t !j IDENT
  | kw -> emit t !j kw
