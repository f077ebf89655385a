(* A database schema R = (R1, ..., Rn): the relations in declaration
   order, and an index by name so that a lookup does not scan them. *)

module Names = Map.Make (String)

type t = { relations : Schema.t list; by_name : Schema.t Names.t }

let make relations =
  let by_name =
    List.fold_left
      (fun index r ->
        let n = Schema.name r in
        if Names.mem n index then
          invalid_arg (Printf.sprintf "Db_schema.make: duplicate relation %S" n);
        Names.add n r index)
      Names.empty relations
  in
  { relations; by_name }

let relations t = t.relations
let rel_names t = List.map Schema.name t.relations
let find_opt t name = Names.find_opt name t.by_name

let find t name =
  match find_opt t name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Db_schema.find: no relation %S" name)

let mem t name = Names.mem name t.by_name

let has_finite_attrs t =
  List.exists (fun r -> Schema.finite_attrs r <> []) t.relations

let pp ppf t = Fmt.pf ppf "@[<v>%a@]" Fmt.(list Schema.pp) t.relations
