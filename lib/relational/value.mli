(** Atomic data values.

    Values populate tuples and appear as the constants of pattern tableaux
    in conditional dependencies.  Three base types suffice for everything in
    the paper: integers, strings and booleans. *)

type t =
  | Int of int
  | Str of string
  | Bool of bool

val compare : t -> t -> int
(** Total order: all [Int] < all [Str] < all [Bool], each ordered natively. *)

val equal : t -> t -> bool

val hash : t -> int

val pp : t Fmt.t
(** Prints strings quoted, e.g. ["EDI"], integers and booleans bare. *)

val to_string : t -> string

val of_string : string -> t
(** Inverse of {!to_string} on its image; unquoted non-numeric text parses
    as a bare [Str]. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

module List_tbl : Hashtbl.S with type key = t list
(** Hash tables keyed by value lists: tuple projections [t\[X\]]. *)
