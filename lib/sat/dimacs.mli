(** DIMACS CNF format support. *)

val parse : string -> (Cnf.t, string) result
(** Parse DIMACS text (comments and blank lines allowed).  An error names
    its 1-based line, e.g. ["line 3: bad literal \"x\""]; a literal
    outside the declared variable range is reported at its own line. *)

val print : Cnf.t -> string
