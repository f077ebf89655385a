(** Attribute domains, finite or infinite.

    Whether an attribute has a finite domain ([finattr] in the paper) drives
    both the complexity of CIND implication (PSPACE vs EXPTIME) and the
    behaviour of the heuristic chase, so the distinction is carried in the
    type. *)

type base =
  | Dint
  | Dstring

type t = private
  | Infinite of base
  | Finite of { values : Value.t list; sorted : Value.t array }
      (** [values] sorted by {!Value.compare}, duplicate-free and nonempty,
          and [sorted] the same values as an array: only {!finite} builds
          one *)

val int_inf : t
(** The infinite domain of integers. *)

val string_inf : t
(** The infinite domain of strings. *)

val bool_dom : t
(** The two-element boolean domain, finite. *)

val finite : Value.t list -> t
(** [finite vs] builds a finite domain from [vs] (sorted, deduplicated).
    @raise Invalid_argument on an empty list. *)

val is_finite : t -> bool

val values : t -> Value.t list option
(** [Some vs] for a finite domain, [None] otherwise. *)

val cardinal : t -> int option

val mem : t -> Value.t -> bool
(** Domain membership; for infinite domains this is a base-type check,
    for finite ones a bisection of the sorted values. *)

val subset : t -> t -> bool
(** [subset d1 d2] holds when every value of [d1] belongs to [d2].  CIND
    validation uses it to enforce the paper's assumption dom(Ai) ⊆ dom(Bi).
    A domain is a subset of itself by [==]; two distinct finite domains
    take one merge of their sorted lists. *)

val fresh : t -> avoid:Value.t list -> Value.t option
(** A domain value distinct from everything in [avoid]; [None] only when a
    finite domain is exhausted. *)

val equal : t -> t -> bool
val pp : t Fmt.t
val pp_base : base Fmt.t
