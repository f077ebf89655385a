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

(* The parser pulls one token of lookahead from the lexer; the lexer's
   line is that token's line, and its text or value that token's.  Equal
   finite-domain declarations share one [Domain.t] ([domains], keyed by
   the values as written), so CIND validation finds dom(A) ⊆ dom(B) by
   [==] when both attributes were declared alike. *)
type state = {
  lexer : Lexer.t;
  mutable token : Lexer.token;
  domains : (Value.t list, Domain.t) Hashtbl.t;
}

exception Parse_error of string

let fail state fmt =
  Fmt.kstr
    (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" (Lexer.line state.lexer) s)))
    fmt

let peek state = state.token

let advance state = state.token <- Lexer.next state.lexer

let found state = Lexer.token_name state.lexer (peek state)

let expect state token =
  if peek state == token then advance state
  else fail state "expected %s but found %s" (Lexer.token_name state.lexer token) (found state)

let accept state token =
  if peek state == token then begin
    advance state;
    true
  end
  else false

let ident state =
  if peek state == Lexer.IDENT then begin
    let name = Lexer.text state.lexer in
    advance state;
    name
  end
  else fail state "expected an identifier, found %s" (found state)

let literal state =
  match peek state with
  | Lexer.STRING ->
      let s = Lexer.text state.lexer in
      advance state;
      Value.Str s
  | Lexer.INT ->
      let i = Lexer.int state.lexer in
      advance state;
      Value.Int i
  | Lexer.KW_TRUE ->
      advance state;
      Value.Bool true
  | Lexer.KW_FALSE ->
      advance state;
      Value.Bool false
  | _ -> fail state "expected a literal, found %s" (found state)

(* [parse_item]s separated by [sep] (at least one), in order. *)
let rec sep_by1 state sep parse_item =
  let item = parse_item state in
  if accept state sep then item :: sep_by1 state sep parse_item else [ item ]

(* Possibly-empty comma-separated list, ended by the delimiter [stop],
   which the caller checks. *)
let sep_list state ~stop parse_item =
  if peek state == stop then [] else sep_by1 state Lexer.COMMA parse_item

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
  | Lexer.LBRACE -> (
      advance state;
      let values = sep_list state ~stop:Lexer.RBRACE literal in
      expect state Lexer.RBRACE;
      if values = [] then fail state "finite domain must be nonempty"
      else
        match Hashtbl.find_opt state.domains values with
        | Some d -> d
        | None ->
            let d = Domain.finite values in
            Hashtbl.add state.domains values d;
            d)
  | _ -> fail state "expected a domain, found %s" (found state)

let schema_decl state =
  expect state Lexer.KW_SCHEMA;
  let name = ident state in
  expect state Lexer.LPAREN;
  let attrs =
    sep_list state ~stop:Lexer.RPAREN (fun state ->
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
  let x = name_list state ~stop:Lexer.SEMI in
  expect state Lexer.SEMI;
  let xp = name_list state ~stop:Lexer.RBRACKET in
  expect state Lexer.RBRACKET;
  expect state Lexer.SUBSETEQ;
  let rhs = ident state in
  expect state Lexer.LBRACKET;
  let y = name_list state ~stop:Lexer.SEMI in
  expect state Lexer.SEMI;
  let yp = name_list state ~stop:Lexer.RBRACKET in
  expect state Lexer.RBRACKET;
  expect state Lexer.KW_WITH;
  let row state =
    expect state Lexer.LPAREN;
    let cx = cell_list state ~stop:Lexer.SEMI in
    expect state Lexer.SEMI;
    let cxp = cell_list state ~stop:Lexer.BARBAR in
    expect state Lexer.BARBAR;
    let cy = cell_list state ~stop:Lexer.SEMI in
    expect state Lexer.SEMI;
    let cyp = cell_list state ~stop:Lexer.RPAREN in
    expect state Lexer.RPAREN;
    { Cind.cx; cxp; cy; cyp }
  in
  let rows = sep_by1 state Lexer.COMMA row in
  expect state Lexer.SEMI;
  Cind.make ~name ~lhs ~rhs ~x ~xp ~y ~yp rows

let cfd_decl state =
  expect state Lexer.KW_CFD;
  let name = ident state in
  expect state Lexer.COLON;
  let rel = ident state in
  expect state Lexer.LPAREN;
  let x = name_list state ~stop:Lexer.ARROW in
  expect state Lexer.ARROW;
  let y = name_list state ~stop:Lexer.RPAREN in
  expect state Lexer.RPAREN;
  expect state Lexer.KW_WITH;
  let row state =
    expect state Lexer.LPAREN;
    let rx = cell_list state ~stop:Lexer.BARBAR in
    expect state Lexer.BARBAR;
    let ry = cell_list state ~stop:Lexer.RPAREN in
    expect state Lexer.RPAREN;
    { Cfd.rx; ry }
  in
  let rows = sep_by1 state Lexer.COMMA row in
  expect state Lexer.SEMI;
  Cfd.make ~name ~rel ~x ~y rows

let instance_decl state =
  expect state Lexer.KW_INSTANCE;
  let rel = ident state in
  expect state Lexer.LBRACE;
  let rec tuples () =
    if accept state Lexer.RBRACE then []
    else begin
      expect state Lexer.LPAREN;
      let values = sep_list state ~stop:Lexer.RPAREN literal in
      expect state Lexer.RPAREN;
      expect state Lexer.SEMI;
      let t = Tuple.make values in
      t :: tuples ()
    end
  in
  (rel, tuples ())

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
    | _ -> fail state "expected a declaration, found %s" (found state)
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

(* Lexing stops where parsing stops, so the rest of the input is lexed
   before a parse or validation error is reported: a lexical error
   anywhere in the input wins over it. *)
let rec lex_rest lexer msg =
  match Lexer.next lexer with
  | Lexer.EOF -> msg
  | _ -> lex_rest lexer msg
  | exception Lexer.Error lexical -> lexical

let parse source =
  let lexer = Lexer.make source in
  match document { lexer; token = Lexer.next lexer; domains = Hashtbl.create 16 } with
  | doc -> Ok doc
  | exception Lexer.Error msg -> Error msg
  | exception (Parse_error msg | Invalid_argument msg) -> Error (lex_rest lexer msg)

let parse_file path = Result.bind (Csv.read_file path) parse

(* Materialize the declared instances into a database. *)
let database doc =
  try Ok (Database.of_alist doc.schema doc.instances)
  with Invalid_argument msg -> Error msg
