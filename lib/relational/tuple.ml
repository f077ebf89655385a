(* Tuples are value sequences aligned with the attribute positions of a
   relation schema.  Equality and order compare the values field by field
   with [Value.compare]. *)

type t = Value.t array

let make = Array.of_list
let to_list = Array.to_list
let get t i = t.(i)

let proj t positions = List.map (fun i -> t.(i)) positions

(* Semantic (Value.compare) order: Relation's tuple sets and every printed
   instance depend on it. *)
let compare a b =
  if a == b then 0
  else
    let n = Array.length a and m = Array.length b in
    if n <> m then Int.compare n m
    else
      let rec go i =
        if i >= n then 0
        else
          let c = Value.compare a.(i) b.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

let equal a b =
  a == b || (Array.length a = Array.length b && Array.for_all2 Value.equal a b)

let well_typed schema t =
  Array.length t = Schema.arity schema
  && Array.for_all
       (fun ok -> ok)
       (Array.mapi
          (fun i v -> Domain.mem (Attribute.domain (Schema.attr schema i)) v)
          t)

let set t i v =
  let values = Array.copy t in
  values.(i) <- v;
  values

let pp ppf t = Fmt.pf ppf "(%a)" Fmt.(list ~sep:comma Value.pp) (to_list t)
