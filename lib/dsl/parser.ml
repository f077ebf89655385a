open Conddep_relational
open Conddep_core

(* Recursive-descent parser for the constraint DSL.

   A document is a sequence of declarations:

     schema interest (ab : string, ct : string,
                      at : {"saving", "checking"}, rt : string);

     cind psi5 : saving[ ; ab] <= interest[ ; ab, at, ct, rt]
       with ( ; "EDI" ||  ; "EDI", "saving", "UK", "4.5%");

     cfd phi3 : interest(ct, at -> rt)
       with (_, _ || _), ("UK", "saving" || "4.5%");

     instance interest {
       ("EDI", "UK", "saving", "4.5%");
     }

   Empty attribute lists (the paper's `nil`) are written as nothing between
   the delimiters. *)

type document = {
  schema : Db_schema.t;
  sigma : Sigma.t;
  instances : (string * Tuple.t list) list;
}

type state = { tokens : Lexer.located array; mutable pos : int }

exception Parse_error of string

let fail state fmt =
  let line =
    if state.pos < Array.length state.tokens then state.tokens.(state.pos).Lexer.line
    else 0
  in
  Fmt.kstr (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" line s))) fmt

let peek state = state.tokens.(state.pos).Lexer.token

let advance state = state.pos <- state.pos + 1

let expect state token =
  if peek state = token then advance state
  else
    fail state "expected %s but found %s" (Lexer.token_name token)
      (Lexer.token_name (peek state))

let accept state token =
  if peek state = token then begin
    advance state;
    true
  end
  else false

let ident state =
  match peek state with
  | Lexer.IDENT name ->
      advance state;
      name
  | t -> fail state "expected an identifier, found %s" (Lexer.token_name t)

let literal state =
  match peek state with
  | Lexer.STRING s ->
      advance state;
      Value.Str s
  | Lexer.INT i ->
      advance state;
      Value.Int i
  | Lexer.KW_TRUE ->
      advance state;
      Value.Bool true
  | Lexer.KW_FALSE ->
      advance state;
      Value.Bool false
  | t -> fail state "expected a literal, found %s" (Lexer.token_name t)

(* Possibly-empty comma-separated list, ended by a delimiter the caller
   checks; [stop] tells whether the next token ends the list. *)
let sep_list state ~stop parse_item =
  if stop (peek state) then []
  else
    let rec go acc =
      let item = parse_item state in
      if accept state Lexer.COMMA then go (item :: acc) else List.rev (item :: acc)
    in
    go []

let domain state =
  match peek state with
  | Lexer.KW_STRING ->
      advance state;
      Domain.string_inf
  | Lexer.KW_INT ->
      advance state;
      Domain.int_inf
  | Lexer.KW_BOOL ->
      advance state;
      Domain.bool_dom
  | Lexer.LBRACE ->
      advance state;
      let values = sep_list state ~stop:(fun t -> t = Lexer.RBRACE) literal in
      expect state Lexer.RBRACE;
      if values = [] then fail state "finite domain must be nonempty"
      else Domain.finite values
  | t -> fail state "expected a domain, found %s" (Lexer.token_name t)

let schema_decl state =
  expect state Lexer.KW_SCHEMA;
  let name = ident state in
  expect state Lexer.LPAREN;
  let attrs =
    sep_list state
      ~stop:(fun t -> t = Lexer.RPAREN)
      (fun state ->
        let attr_name = ident state in
        expect state Lexer.COLON;
        let dom = domain state in
        Attribute.make attr_name dom)
  in
  expect state Lexer.RPAREN;
  expect state Lexer.SEMI;
  try Schema.make name attrs with Invalid_argument msg -> raise (Parse_error msg)

let name_list state ~stop = sep_list state ~stop ident

let cell state =
  match peek state with
  | Lexer.UNDERSCORE ->
      advance state;
      Pattern.Wildcard
  | _ -> Pattern.Const (literal state)

let cell_list state ~stop = sep_list state ~stop cell

let cind_decl state =
  expect state Lexer.KW_CIND;
  let name = ident state in
  expect state Lexer.COLON;
  let lhs = ident state in
  expect state Lexer.LBRACKET;
  let x = name_list state ~stop:(fun t -> t = Lexer.SEMI) in
  expect state Lexer.SEMI;
  let xp = name_list state ~stop:(fun t -> t = Lexer.RBRACKET) in
  expect state Lexer.RBRACKET;
  expect state Lexer.SUBSETEQ;
  let rhs = ident state in
  expect state Lexer.LBRACKET;
  let y = name_list state ~stop:(fun t -> t = Lexer.SEMI) in
  expect state Lexer.SEMI;
  let yp = name_list state ~stop:(fun t -> t = Lexer.RBRACKET) in
  expect state Lexer.RBRACKET;
  expect state Lexer.KW_WITH;
  let row state =
    expect state Lexer.LPAREN;
    let cx = cell_list state ~stop:(fun t -> t = Lexer.SEMI) in
    expect state Lexer.SEMI;
    let cxp = cell_list state ~stop:(fun t -> t = Lexer.BARBAR) in
    expect state Lexer.BARBAR;
    let cy = cell_list state ~stop:(fun t -> t = Lexer.SEMI) in
    expect state Lexer.SEMI;
    let cyp = cell_list state ~stop:(fun t -> t = Lexer.RPAREN) in
    expect state Lexer.RPAREN;
    { Cind.cx; cxp; cy; cyp }
  in
  let rows =
    let rec go acc =
      let r = row state in
      if accept state Lexer.COMMA then go (r :: acc) else List.rev (r :: acc)
    in
    go []
  in
  expect state Lexer.SEMI;
  Cind.make ~name ~lhs ~rhs ~x ~xp ~y ~yp rows

let cfd_decl state =
  expect state Lexer.KW_CFD;
  let name = ident state in
  expect state Lexer.COLON;
  let rel = ident state in
  expect state Lexer.LPAREN;
  let x = name_list state ~stop:(fun t -> t = Lexer.ARROW) in
  expect state Lexer.ARROW;
  let y = name_list state ~stop:(fun t -> t = Lexer.RPAREN) in
  expect state Lexer.RPAREN;
  expect state Lexer.KW_WITH;
  let row state =
    expect state Lexer.LPAREN;
    let rx = cell_list state ~stop:(fun t -> t = Lexer.BARBAR) in
    expect state Lexer.BARBAR;
    let ry = cell_list state ~stop:(fun t -> t = Lexer.RPAREN) in
    expect state Lexer.RPAREN;
    { Cfd.rx; ry }
  in
  let rows =
    let rec go acc =
      let r = row state in
      if accept state Lexer.COMMA then go (r :: acc) else List.rev (r :: acc)
    in
    go []
  in
  expect state Lexer.SEMI;
  Cfd.make ~name ~rel ~x ~y rows

let instance_decl state =
  expect state Lexer.KW_INSTANCE;
  let rel = ident state in
  expect state Lexer.LBRACE;
  let rec tuples acc =
    if accept state Lexer.RBRACE then List.rev acc
    else begin
      expect state Lexer.LPAREN;
      let values = sep_list state ~stop:(fun t -> t = Lexer.RPAREN) literal in
      expect state Lexer.RPAREN;
      expect state Lexer.SEMI;
      tuples (Tuple.make values :: acc)
    end
  in
  (rel, tuples [])

let document state =
  let schemas = ref [] and cfds = ref [] and cinds = ref [] and instances = ref [] in
  let rec go () =
    match peek state with
    | Lexer.EOF -> ()
    | Lexer.KW_SCHEMA ->
        schemas := schema_decl state :: !schemas;
        go ()
    | Lexer.KW_CIND ->
        cinds := cind_decl state :: !cinds;
        go ()
    | Lexer.KW_CFD ->
        cfds := cfd_decl state :: !cfds;
        go ()
    | Lexer.KW_INSTANCE ->
        instances := instance_decl state :: !instances;
        go ()
    | t -> fail state "expected a declaration, found %s" (Lexer.token_name t)
  in
  go ();
  let schema =
    try Db_schema.make (List.rev !schemas)
    with Invalid_argument msg -> raise (Parse_error msg)
  in
  let sigma = Sigma.make ~cfds:(List.rev !cfds) ~cinds:(List.rev !cinds) () in
  (match Sigma.validate schema sigma with
  | Ok () -> ()
  | Error msg -> raise (Parse_error msg));
  List.iter
    (fun (rel, _) ->
      if not (Db_schema.mem schema rel) then
        raise (Parse_error (Printf.sprintf "instance of unknown relation %S" rel)))
    !instances;
  { schema; sigma; instances = List.rev !instances }

let parse source =
  match Lexer.tokenize source with
  | Error msg -> Error msg
  | Ok tokens -> (
      let state = { tokens = Array.of_list tokens; pos = 0 } in
      try Ok (document state) with
      | Parse_error msg -> Error msg
      | Invalid_argument msg -> Error msg)

let parse_file path = Result.bind (Csv.read_file path) parse

(* Materialize the declared instances into a database. *)
let database doc =
  try Ok (Database.of_alist doc.schema doc.instances)
  with Invalid_argument msg -> Error msg
