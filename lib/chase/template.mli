open Conddep_relational

(** Database templates for the extended chase (Section 5.1): databases whose
    fields may be variables from the bounded pools [var\[A\]].  A template
    is its schema plus one tuple list per relation, newest tuple first,
    addressed by the relation's position in [Db_schema.find_indexed];
    templates stay small, so {!add_at} and {!subst} scan those lists.

    Templates are immutable and so are their tuples once added: an
    operation that leaves a relation alone hands back its list itself
    (physically equal), which the chase's FD memo relies on. *)

type column = {
  rel : string;
  attr : string;
  rel_pos : int;  (** the relation's position in [Db_schema.find_indexed] *)
  pos : int;  (** the attribute's position in the relation *)
  domain : Domain.t;
}
(** One attribute of one relation, resolved once: the chase builds a
    column per open field of a compiled CIND and per attribute of a seed
    tuple, and reads positions and the domain off it instead of looking
    the names up again. *)

val column : Schema.t -> rel_pos:int -> int -> column
(** The column at an attribute position of a relation that sits at
    [rel_pos] of [Db_schema.find_indexed]. *)

type var = { col : column; vidx : int }
(** The variable [vidx] of the pool [var\[A\]] of its column. *)

type cell =
  | V of var
  | C of Value.t

val var_compare : var -> var -> int
(** The paper's total order on variables: by relation name, attribute
    name, then index.  Attribute positions follow declaration order,
    which differs from name order (["a10"] < ["a2"]), so attributes are
    compared by name; relation positions follow name order. *)

val cell_compare : cell -> cell -> int
(** Variables below constants, as the chase's merge rule requires. *)

val cell_equal : cell -> cell -> bool

val cell_matches_pattern : cell -> Pattern.cell -> bool
(** [≍] on template cells: variables match only '_' (v ≠ a, v 6≍ a). *)

type tuple = cell array

val tuple_compare : tuple -> tuple -> int

type t

val empty : Db_schema.t -> t
val schema : t -> Db_schema.t

val tuples_at : t -> int -> tuple list
(** The tuples of the relation at this position of
    [Db_schema.find_indexed], newest first. *)

val total : t -> int

val add_at : t -> int -> tuple -> t
(** Add a tuple to the relation at this position of
    [Db_schema.find_indexed].  Set semantics: adding an existing tuple is
    a no-op. *)

val subst : t -> var -> cell -> t
(** Global substitution of a variable (a variable denotes one value).
    Tuples keep their order.  A rewritten tuple equal to an untouched
    tuple, or to an earlier rewritten tuple, is dropped.  The list of a
    relation without the variable is returned unchanged ([==]). *)

val column_constants : t -> column -> Value.t list
(** Constants currently occurring in a column, ascending. *)

val variables : t -> var list
val finite_variables : t -> var list
(** Variables over finite-domain attributes — the domain of the paper's
    valuation set [Vfinattr(R)]. *)

val to_database : ?avoid:Value.t list -> t -> Database.t
(** Concretize the template: infinite-domain variables become pairwise
    distinct fresh values avoiding [avoid] (so they trigger no pattern);
    finite-domain variables take non-avoided domain values when possible. *)

val pp_var : var Fmt.t
val pp_cell : cell Fmt.t
val pp_tuple : tuple Fmt.t
val pp : t Fmt.t
