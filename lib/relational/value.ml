(* Atomic data values stored in relations and appearing as constants in
   pattern tableaux.  The paper's examples mix strings ("EDI", "4.5%"),
   integers and booleans, so we support exactly those three bases. *)

type t =
  | Int of int
  | Str of string
  | Bool of bool

let compare (a : t) (b : t) =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Int _, (Str _ | Bool _) -> -1
  | Str _, Int _ -> 1
  | Str x, Str y -> String.compare x y
  | Str _, Bool _ -> -1
  | Bool _, (Int _ | Str _) -> 1
  | Bool x, Bool y -> Bool.compare x y

let equal a b = compare a b = 0

let hash = Hashtbl.hash

let pp ppf = function
  | Int i -> Fmt.int ppf i
  | Str s -> Fmt.pf ppf "%S" s
  | Bool b -> Fmt.bool ppf b

let to_string v = Fmt.str "%a" pp v

(* Parse a literal the way the DSL prints it: quoted strings, integers,
   [true]/[false].  Unquoted text falls back to [Str]. *)
let of_string s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then Str (String.sub s 1 (n - 2))
  else if s = "true" then Bool true
  else if s = "false" then Bool false
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> Str s

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

(* Hash tables keyed by tuple projections t[X]. *)
module List_tbl = Hashtbl.Make (struct
  type nonrec t = t list

  let equal = List.equal equal
  let hash = Hashtbl.hash
end)
