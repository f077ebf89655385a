(** Relation instances: duplicate-free sets of well-typed tuples. *)

type t

val empty : Schema.t -> t
val schema : t -> Schema.t

val add : t -> Tuple.t -> t
(** @raise Invalid_argument when the tuple is ill-typed for the schema. *)

val of_list : Schema.t -> Tuple.t list -> t
val tuples : t -> Tuple.t list
val cardinal : t -> int
val is_empty : t -> bool
val mem : t -> Tuple.t -> bool
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Tuple.t -> unit) -> t -> unit
val exists : (Tuple.t -> bool) -> t -> bool
val for_all : (Tuple.t -> bool) -> t -> bool
val filter : (Tuple.t -> bool) -> t -> t

val pp : t Fmt.t
