(* Hand-written lexer for the constraint DSL.  Tokens carry line numbers
   for error reporting; comments run from '#' or '--' to end of line. *)

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

type located = { token : token; line : int }

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

let tokenize source =
  let n = String.length source in
  let line = ref 1 in
  let tokens = ref [] in
  let error fmt = Printf.ksprintf (fun s -> Error (Printf.sprintf "line %d: %s" !line s)) fmt in
  let emit token = tokens := { token; line = !line } :: !tokens in
  let rec go i =
    if i >= n then begin
      emit EOF;
      Ok (List.rev !tokens)
    end
    else
      match source.[i] with
      | '\n' ->
          incr line;
          go (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '#' -> skip_line (i + 1)
      | '-' when i + 1 < n && source.[i + 1] = '-' -> skip_line (i + 2)
      | '(' -> emit LPAREN; go (i + 1)
      | ')' -> emit RPAREN; go (i + 1)
      | '{' -> emit LBRACE; go (i + 1)
      | '}' -> emit RBRACE; go (i + 1)
      | '[' -> emit LBRACKET; go (i + 1)
      | ']' -> emit RBRACKET; go (i + 1)
      | ',' -> emit COMMA; go (i + 1)
      | ';' -> emit SEMI; go (i + 1)
      | ':' -> emit COLON; go (i + 1)
      | '<' when i + 1 < n && source.[i + 1] = '=' ->
          emit SUBSETEQ;
          go (i + 2)
      | '-' when i + 1 < n && source.[i + 1] = '>' ->
          emit ARROW;
          go (i + 2)
      | '|' when i + 1 < n && source.[i + 1] = '|' ->
          emit BARBAR;
          go (i + 2)
      | '_' when i + 1 >= n || not (is_ident_char source.[i + 1]) ->
          emit UNDERSCORE;
          go (i + 1)
      | '"' -> lex_string (i + 1) (Buffer.create 16)
      | c when is_digit c || (c = '-' && i + 1 < n && is_digit source.[i + 1]) ->
          lex_int i
      | c when is_ident_start c || c = '_' -> lex_ident i
      | c -> error "unexpected character %C" c
  and skip_line i =
    if i >= n then go i
    else if source.[i] = '\n' then go i
    else skip_line (i + 1)
  and lex_string i buf =
    if i >= n then error "unterminated string literal"
    else
      match source.[i] with
      | '"' ->
          emit (STRING (Buffer.contents buf));
          go (i + 1)
      | '\\' when i + 1 < n ->
          let c = source.[i + 1] in
          Buffer.add_char buf (match c with 'n' -> '\n' | 't' -> '\t' | c -> c);
          lex_string (i + 2) buf
      | '\n' -> error "newline in string literal"
      | c ->
          Buffer.add_char buf c;
          lex_string (i + 1) buf
  and lex_int i =
    let j = ref i in
    if source.[!j] = '-' then incr j;
    while !j < n && is_digit source.[!j] do
      incr j
    done;
    match int_of_string_opt (String.sub source i (!j - i)) with
    | Some v ->
        emit (INT v);
        go !j
    | None -> error "integer literal out of range"
  and lex_ident i =
    let j = ref i in
    while !j < n && is_ident_char source.[!j] do
      incr j
    done;
    let word = String.sub source i (!j - i) in
    (match keyword word with Some kw -> emit kw | None -> emit (IDENT word));
    go !j
  in
  go 0
