(** Deterministic splitmix64 PRNG for reproducible experiments. *)

type t

val make : int -> t
val copy : t -> t

val int : t -> int -> int
(** Uniform in [\[0, n)].  @raise Invalid_argument when [n <= 0]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** Bernoulli trial with the given success probability. *)

val pick : t -> 'a list -> 'a
(** Uniform element.  @raise Invalid_argument on an empty list. *)

val shuffle : t -> 'a list -> 'a list

val split : t -> t
(** An independent generator derived from this one. *)
