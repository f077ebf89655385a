(* Relation instances: finite sets of well-typed tuples over a schema. *)

module Tuple_set = Set.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

type t = { schema : Schema.t; tuples : Tuple_set.t }

let empty schema = { schema; tuples = Tuple_set.empty }
let schema t = t.schema

let add t tuple =
  if not (Tuple.well_typed t.schema tuple) then
    invalid_arg
      (Fmt.str "Relation.add: tuple %a ill-typed for %s" Tuple.pp tuple
         (Schema.name t.schema));
  { t with tuples = Tuple_set.add tuple t.tuples }

let of_list schema tuples = List.fold_left add (empty schema) tuples
let tuples t = Tuple_set.elements t.tuples
let cardinal t = Tuple_set.cardinal t.tuples
let is_empty t = Tuple_set.is_empty t.tuples
let mem t tuple = Tuple_set.mem tuple t.tuples
let fold f t acc = Tuple_set.fold f t.tuples acc
let iter f t = Tuple_set.iter f t.tuples
let exists p t = Tuple_set.exists p t.tuples
let for_all p t = Tuple_set.for_all p t.tuples
let filter p t = { t with tuples = Tuple_set.filter p t.tuples }

let pp ppf t =
  Fmt.pf ppf "@[<v2>%s = {@ %a@]@ }" (Schema.name t.schema)
    Fmt.(list ~sep:(any ";@ ") Tuple.pp)
    (tuples t)
