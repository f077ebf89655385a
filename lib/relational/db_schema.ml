(* A database schema R = (R1, ..., Rn): the relations in declaration
   order, and an index by name so that a lookup does not scan them.  The
   index also holds each relation's position in name order, so that
   per-relation tables (chase templates) can be arrays whose iteration
   order is the order of a map keyed by name. *)

module Names = Map.Make (String)

type t = {
  relations : Schema.t list;
  by_name : (Schema.t * int) Names.t;
  names : string array; (* in name order: names.(i) has position i *)
}

let make relations =
  let index =
    List.fold_left
      (fun index r ->
        let n = Schema.name r in
        if Names.mem n index then
          invalid_arg (Printf.sprintf "Db_schema.make: duplicate relation %S" n);
        Names.add n r index)
      Names.empty relations
  in
  let _, by_name =
    Names.fold (fun n r (i, acc) -> (i + 1, Names.add n (r, i) acc)) index (0, Names.empty)
  in
  { relations; by_name; names = Array.of_list (List.map fst (Names.bindings index)) }

let relations t = t.relations
let rel_names t = List.map Schema.name t.relations
let find_opt t name =
  match Names.find name t.by_name with r, _ -> Some r | exception Not_found -> None

let find_indexed t name =
  match Names.find name t.by_name with
  | found -> found
  | exception Not_found -> invalid_arg (Printf.sprintf "Db_schema.find: no relation %S" name)

let find t name = fst (find_indexed t name)
let mem t name = Names.mem name t.by_name
let cardinal t = Array.length t.names
let name_at t i = t.names.(i)

let has_finite_attrs t =
  List.exists (fun r -> Schema.finite_attrs r <> []) t.relations

let pp ppf t = Fmt.pf ppf "@[<v>%a@]" Fmt.(list Schema.pp) t.relations
