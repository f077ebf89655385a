open Conddep_relational

(** Database templates for the extended chase (Section 5.1): databases whose
    fields may be variables from the bounded pools [var\[A\]].  A template
    is its schema plus one tuple list per relation, newest tuple first;
    templates stay small, so {!add} and {!subst} scan those lists.

    Templates are immutable and so are their tuples once added: an
    operation that leaves a relation alone hands back its list itself
    (physically equal), which the chase's FD memo relies on. *)

type var = { vrel : string; vattr : string; vidx : int }

type cell =
  | V of var
  | C of Value.t

val var_compare : var -> var -> int
(** The paper's total order on variables. *)

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

val tuples : t -> string -> tuple list
(** Newest tuple first.  @raise Invalid_argument on an unknown relation. *)

val tuples_at : t -> int -> tuple list
(** {!tuples} of the relation at this position of [Db_schema.find_indexed]. *)

val cardinal : t -> string -> int
val total : t -> int

val add : t -> string -> tuple -> t
(** Set semantics: adding an existing tuple is a no-op. *)

val add_at : t -> int -> tuple -> t
(** {!add} to the relation at this position of [Db_schema.find_indexed]. *)

val subst : t -> var -> cell -> t
(** Global substitution of a variable (a variable denotes one value).
    Tuples keep their order.  A rewritten tuple equal to an untouched
    tuple, or to an earlier rewritten tuple, is dropped.  The list of a
    relation without the variable is returned unchanged ([==]). *)

val column_constants : t -> rel:string -> attr:string -> Value.t list
(** Constants currently occurring in one attribute column of a relation. *)

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
