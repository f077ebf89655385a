(** Pattern cells and the match order [≍] of the paper (Section 2).

    A cell of a pattern tableau is either a constant or the unnamed
    variable '_'; a data value [v] matches a cell [c] ([v ≍ c]) when [c] is
    '_' or the same constant. *)

type cell =
  | Const of Value.t
  | Wildcard

val cell_equal : cell -> cell -> bool

val match_cell : Value.t -> cell -> bool
(** [match_cell v c] is [v ≍ c]. *)

val matches : Value.t list -> cell list -> bool
(** Pointwise [≍]; false on length mismatch. *)

val outside_domain : Schema.t -> string list -> cell list -> string option
(** The first of the attributes whose cell, at the same position, is a
    constant outside the attribute's domain in the relation. *)

val const_value : cell -> Value.t option

val pp_cell : cell Fmt.t
val pp_cells : cell list Fmt.t
