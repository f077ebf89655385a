open Conddep_relational
open Conddep_core

(** Repair suggestions for detected violations, in the spirit of the
    value-modification repairs of Bohannon et al. [8]: pattern constants
    are restored on CFD violations, missing CIND partners are inserted. *)

type action =
  | Update of { rel : string; tuple : Tuple.t; attr : string; value : Value.t }
  | Insert of { rel : string; tuple : Tuple.t }

val pp_action : action Fmt.t

val suggest : Db_schema.t -> Violation.t -> action list
(** Candidate fixes for one violation. *)

val apply : Database.t -> action -> Database.t

val repair : ?max_rounds:int -> Db_schema.t -> Sigma.nf -> Database.t -> Database.t
(** Rounds of suggest-and-apply, one fix per violation in detection
    order, until clean or [max_rounds] (default 5) — fixes may surface
    new violations.  Each round runs the detector once, and skips a
    violation once an earlier fix of the round has rewritten one of its
    tuples (t1 or t2 of a CFD violation, the LHS tuple of a CIND
    violation): the next round detects it again if it still holds. *)
