(* A relation schema: a relation name plus an ordered list of attributes.
   Attribute positions are the canonical way the rest of the library
   addresses fields of a tuple. *)

type t = { name : string; attrs : Attribute.t array }

let make name attrs =
  if name = "" then invalid_arg "Schema.make: empty relation name";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let n = Attribute.name a in
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Schema.make: duplicate attribute %S in %s" n name);
      Hashtbl.add seen n ())
    attrs;
  { name; attrs = Array.of_list attrs }

let name t = t.name
let arity t = Array.length t.attrs
let attrs t = Array.to_list t.attrs

let attr t i =
  if i < 0 || i >= Array.length t.attrs then
    invalid_arg (Printf.sprintf "Schema.attr: index %d out of range for %s" i t.name);
  t.attrs.(i)

(* The position of [attr_name] at or after [i], or -1. *)
let rec index_from t attr_name i =
  if i >= Array.length t.attrs then -1
  else if String.equal (Attribute.name t.attrs.(i)) attr_name then i
  else index_from t attr_name (i + 1)

let position_opt t attr_name =
  match index_from t attr_name 0 with -1 -> None | i -> Some i

let position t attr_name =
  match index_from t attr_name 0 with
  | -1 -> invalid_arg (Printf.sprintf "Schema.position: no attribute %S in %s" attr_name t.name)
  | i -> i

let mem_attr t attr_name = index_from t attr_name 0 >= 0

let rec first_unknown t = function
  | [] -> None
  | a :: rest -> if mem_attr t a then first_unknown t rest else Some a
let domain_of t attr_name = Attribute.domain (attr t (position t attr_name))
let attr_names t = Array.to_list (Array.map Attribute.name t.attrs)

let finite_attrs t =
  List.filter Attribute.is_finite (attrs t)

let equal a b =
  String.equal a.name b.name
  && Array.length a.attrs = Array.length b.attrs
  && Array.for_all2 Attribute.equal a.attrs b.attrs

let pp ppf t =
  Fmt.pf ppf "@[<h>%s(%a)@]" t.name Fmt.(list ~sep:comma Attribute.pp) (attrs t)
