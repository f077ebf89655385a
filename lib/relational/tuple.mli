(** Tuples: value sequences aligned with a schema's attribute positions.

    Abstract so that no caller mutates a tuple in place: {!set} copies.
    {!equal} and {!compare} compare fields with [Value.compare], whose
    order relation sets and printed instances depend on. *)

type t

val make : Value.t list -> t
val to_list : t -> Value.t list
val get : t -> int -> Value.t

val set : t -> int -> Value.t -> t
(** Functional update: returns a fresh tuple. *)

val proj : t -> int list -> Value.t list
(** Projection onto a position list, in the order given (t[X] in the paper,
    possibly with repeats). *)

val compare : t -> t -> int
val equal : t -> t -> bool

val well_typed : Schema.t -> t -> bool
(** Arity matches and every field belongs to its attribute's domain. *)

val pp : t Fmt.t
