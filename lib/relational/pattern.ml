(* Pattern cells and the match order ≍ of Section 2: a data value matches
   itself and the unnamed variable '_'. *)

type cell =
  | Const of Value.t
  | Wildcard

let cell_equal a b =
  match a, b with
  | Const x, Const y -> Value.equal x y
  | Wildcard, Wildcard -> true
  | Const _, Wildcard | Wildcard, Const _ -> false

let match_cell v = function Const c -> Value.equal v c | Wildcard -> true

let matches values cells =
  List.length values = List.length cells && List.for_all2 match_cell values cells

let rec outside_domain rel names cells =
  match names, cells with
  | a :: names, Const v :: cells ->
      if Domain.mem (Schema.domain_of rel a) v then outside_domain rel names cells else Some a
  | _ :: names, Wildcard :: cells -> outside_domain rel names cells
  | _ -> None

let const_value = function Const v -> Some v | Wildcard -> None

let pp_cell ppf = function
  | Const v -> Value.pp ppf v
  | Wildcard -> Fmt.string ppf "_"

let pp_cells ppf cells = Fmt.pf ppf "%a" Fmt.(list ~sep:comma pp_cell) cells
