open Conddep_relational
open Conddep_core

(** Repair suggestions for detected violations, in the spirit of the
    value-modification repairs of Bohannon et al. [8]: pattern constants
    are restored on CFD violations, missing CIND partners are inserted. *)

type action =
  | Update of { rel : string; tuple : Tuple.t; attr : string; value : Value.t }
  | Insert of { rel : string; tuple : Tuple.t }

val pp_action : action Fmt.t

type filler
(** The values one repair run fills into the fields a CIND repair cannot
    derive. *)

val filler : unit -> filler
(** A filler for a new run.  A finite attribute is filled with its
    domain's first value; an infinite one with the first of ["?0"],
    ["?1"], ... ([0], [1], ... on an int attribute) that the relation
    does not hold on that attribute, counted over the run, so no two
    filled fields of a run share a value. *)

val suggest : Db_schema.t -> filler -> Database.t -> Violation.t -> action list
(** Candidate fixes for one violation of the database. *)

val apply : Database.t -> action -> Database.t

val repair : ?max_rounds:int -> Db_schema.t -> Sigma.nf -> Database.t -> Database.t
(** Rounds of suggest-and-apply, one fix per violation in detection
    order, until clean or [max_rounds] (default 5) — fixes may surface
    new violations.  Each round runs the detector once, and skips a
    violation once an earlier fix of the round has rewritten one of its
    tuples (t1 or t2 of a CFD violation, the LHS tuple of a CIND
    violation): the next round detects it again if it still holds.  One
    {!filler} serves the whole run.  The answer is the database with the
    fewest violations among the input and each round's result, the
    earliest on a tie, so it never holds more than the input. *)
