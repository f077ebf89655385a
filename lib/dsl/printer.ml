open Conddep_relational
open Conddep_core

(* Pretty-printer for the constraint DSL; [Parser.parse] round-trips its
   output (property-tested). *)

(* A string constant in the DSL's own syntax ({!Lexer}): the double quote,
   the backslash, newline and tab are escaped, every other byte is written
   as is.  OCaml's [%S] would write [\ddd] escapes, which the DSL reads as
   digits. *)
let pp_string ppf s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Fmt.string ppf (Buffer.contents b)

let pp_value ppf = function
  | Value.Str s -> pp_string ppf s
  | Value.Int i -> Fmt.int ppf i
  | Value.Bool b -> Fmt.bool ppf b

let pp_domain ppf dom =
  match dom with
  | Domain.Infinite Domain.Dstring -> Fmt.string ppf "string"
  | Domain.Infinite Domain.Dint -> Fmt.string ppf "int"
  | Domain.Finite { values; _ } -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma pp_value) values

let pp_cell ppf = function
  | Pattern.Wildcard -> Fmt.string ppf "_"
  | Pattern.Const v -> pp_value ppf v

let pp_cells = Fmt.(list ~sep:comma pp_cell)
let pp_names = Fmt.(list ~sep:comma string)

let pp_schema ppf rel =
  let attr ppf a = Fmt.pf ppf "%s : %a" (Attribute.name a) pp_domain (Attribute.domain a) in
  Fmt.pf ppf "@[<h>schema %s (%a);@]" (Schema.name rel)
    Fmt.(list ~sep:comma attr)
    (Schema.attrs rel)

let pp_cind ppf (c : Cind.t) =
  let row ppf (r : Cind.row) =
    Fmt.pf ppf "(%a ; %a || %a ; %a)" pp_cells r.Cind.cx pp_cells r.cxp pp_cells r.cy
      pp_cells r.cyp
  in
  Fmt.pf ppf "@[<hv2>cind %s : %s[%a ; %a] <= %s[%a ; %a]@ with %a;@]" c.Cind.name
    c.lhs pp_names c.x pp_names c.xp c.rhs pp_names c.y pp_names c.yp
    Fmt.(list ~sep:comma row)
    c.rows

let pp_cfd ppf (c : Cfd.t) =
  let row ppf (r : Cfd.row) = Fmt.pf ppf "(%a || %a)" pp_cells r.Cfd.rx pp_cells r.ry in
  Fmt.pf ppf "@[<hv2>cfd %s : %s(%a -> %a)@ with %a;@]" c.Cfd.name c.rel pp_names c.x
    pp_names c.y
    Fmt.(list ~sep:comma row)
    c.rows

let pp_instance ppf (rel, tuples) =
  let tuple ppf t = Fmt.pf ppf "(%a);" Fmt.(list ~sep:comma pp_value) (Tuple.to_list t) in
  Fmt.pf ppf "@[<v2>instance %s {@ %a@]@ }" rel Fmt.(list ~sep:cut tuple) tuples

let pp_document ppf (doc : Parser.document) =
  let sep ppf () = Fmt.pf ppf "@,@," in
  Fmt.pf ppf "@[<v>%a" Fmt.(list ~sep:cut pp_schema) (Db_schema.relations doc.Parser.schema);
  if doc.sigma.Sigma.cfds <> [] then
    Fmt.pf ppf "%a%a" sep () Fmt.(list ~sep:cut pp_cfd) doc.sigma.cfds;
  if doc.sigma.Sigma.cinds <> [] then
    Fmt.pf ppf "%a%a" sep () Fmt.(list ~sep:cut pp_cind) doc.sigma.cinds;
  if doc.instances <> [] then
    Fmt.pf ppf "%a%a" sep () Fmt.(list ~sep:cut pp_instance) doc.instances;
  Fmt.pf ppf "@]"

let document_to_string doc = Fmt.str "%a@." pp_document doc
