(* Database instances: one relation instance per relation schema. *)

module String_map = Map.Make (String)

type t = { schema : Db_schema.t; rels : Relation.t String_map.t }

let empty schema =
  let rels =
    List.fold_left
      (fun acc r -> String_map.add (Schema.name r) (Relation.empty r) acc)
      String_map.empty (Db_schema.relations schema)
  in
  { schema; rels }

let schema t = t.schema

let relation t name =
  match String_map.find name t.rels with
  | r -> r
  | exception Not_found -> invalid_arg (Printf.sprintf "Database.relation: no relation %S" name)

let set_relation t rel =
  let name = Schema.name (Relation.schema rel) in
  if not (Db_schema.mem t.schema name) then
    invalid_arg (Printf.sprintf "Database.set_relation: %S not in schema" name);
  { t with rels = String_map.add name rel t.rels }

let add_tuple t name tuple = set_relation t (Relation.add (relation t name) tuple)

let of_alist schema alist =
  List.fold_left
    (fun db (name, tuples) ->
      List.fold_left (fun db tuple -> add_tuple db name tuple) db tuples)
    (empty schema) alist

let fold f t acc = String_map.fold (fun _ rel acc -> f rel acc) t.rels acc
let iter f t = String_map.iter (fun _ rel -> f rel) t.rels
let total_tuples t = fold (fun rel acc -> acc + Relation.cardinal rel) t 0
let is_empty t = total_tuples t = 0

let pp ppf t =
  let non_empty = fold (fun rel acc -> if Relation.is_empty rel then acc else rel :: acc) t [] in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list Relation.pp) (List.rev non_empty)
