(** CNF formulas with DIMACS-style integer literals.

    Variable [v >= 1] has positive literal [v] and negative literal [-v]. *)

type literal = int
type clause = literal list
type t

val make : num_vars:int -> clause list -> t
(** @raise Invalid_argument on zero literals or out-of-range variables. *)

val num_vars : t -> int
val clauses : t -> clause list
val num_clauses : t -> int

val lit_var : literal -> int
val lit_sign : literal -> bool

val eval_clause : bool array -> clause -> bool
(** Clause truth under a total assignment indexed by variable (index 0 unused). *)

val eval : bool array -> t -> bool

val pp : t Fmt.t
(** DIMACS rendering. *)
