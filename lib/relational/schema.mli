(** Relation schemas: a relation name with an ordered attribute list. *)

type t

val make : string -> Attribute.t list -> t
(** @raise Invalid_argument on an empty name or duplicate attribute names. *)

val name : t -> string
val arity : t -> int
val attrs : t -> Attribute.t list
val attr_names : t -> string list

val attr : t -> int -> Attribute.t
(** Attribute at a position. @raise Invalid_argument when out of range. *)

val position : t -> string -> int
(** Position of a named attribute. @raise Invalid_argument when absent. *)

val position_opt : t -> string -> int option
val mem_attr : t -> string -> bool

val first_unknown : t -> string list -> string option
(** The first name in the list that is not an attribute. *)

val domain_of : t -> string -> Domain.t
(** @raise Invalid_argument when the attribute is absent. *)

val finite_attrs : t -> Attribute.t list
(** The attributes of [finattr(R)], in schema order. *)

val equal : t -> t -> bool
val pp : t Fmt.t
