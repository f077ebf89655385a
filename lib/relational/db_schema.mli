(** Database schemas: a collection of relation schemas with distinct names. *)

type t

val make : Schema.t list -> t
(** @raise Invalid_argument on duplicate relation names. *)

val relations : t -> Schema.t list
val rel_names : t -> string list

val find : t -> string -> Schema.t
(** @raise Invalid_argument when the relation is absent. *)

val find_opt : t -> string -> Schema.t option
val mem : t -> string -> bool

(** {1 Positions in name order}

    Relation [name_at t i] is the [i]-th in the order of
    [String.compare] on names, [0 <= i < cardinal t]: arrays indexed by
    position iterate like a map keyed by name. *)

val find_indexed : t -> string -> Schema.t * int
(** {!find} and the relation's position, in one lookup.
    @raise Invalid_argument when the relation is absent. *)

val cardinal : t -> int
val name_at : t -> int -> string

val has_finite_attrs : t -> bool
(** Whether any relation has a finite-domain attribute — the setting that
    separates Tables 1 and 2 of the paper. *)

val pp : t Fmt.t
