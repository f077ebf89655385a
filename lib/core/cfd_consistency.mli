open Conddep_relational
open Conddep_sat

(** Exact consistency analysis for sets of CFDs.

    Consistency of CFDs reduces to single-tuple satisfiability (CFD
    satisfaction is preserved under sub-instances), encoded as CNF
    (Section 5.2) and decided by the CDCL core.  NP-complete with
    finite-domain attributes; the ground truth for the accuracy
    experiments of Fig 10. *)

val witness_tuple :
  ?avoid:Value.t list -> Db_schema.t -> rel:string -> Cfd.nf list -> Tuple.t option
(** A single tuple over [rel] satisfying all CFDs of Σ on [rel], if any
    ([Some t] iff {b CFD(rel)} is consistent).  Each attribute's
    candidates are the constants CFD(rel) names on it plus one unnamed
    value, which dodges the [avoid] constants where its domain allows.
    @raise Guard.Exhausted if the solver answers [Unknown]: [None] is a
    definitive verdict and is never used for undetermined answers. *)

val consistent_rel : Db_schema.t -> rel:string -> Cfd.nf list -> bool
(** Whether the CFDs of Σ on [rel] admit a nonempty instance of [rel]. *)

(** {1 The encoding}

    One tuple's variables and clauses, which {!Cfd_implication} copies for
    a pair of tuples. *)

type vars = private {
  rel_schema : Schema.t;
  cands : Value.t array array;  (** per attribute position, its candidates *)
  offsets : int array;
  width : int;  (** the number of candidates, i.e. variables per tuple *)
}

val vars : unnamed:int -> avoid:Value.t list -> Cfd.nf list -> Schema.t -> vars
(** Each attribute's candidates: the constants the CFDs name on it, then
    up to [unnamed] values they do not name (the first outside [avoid]
    where the domain allows; fewer where a finite domain has fewer). *)

val var : vars -> tuple:int -> int -> int -> Cnf.literal
(** [var v ~tuple pos i]: tuple [tuple] (0, 1, ...) takes candidate [i]
    of attribute position [pos].  Tuple [k]'s variables are
    [k * width + 1] to [(k + 1) * width]. *)

val value_var : vars -> tuple:int -> string -> Value.t -> Cnf.literal
(** The variable of a candidate given by attribute name and value. *)

val tuple_clauses : vars -> tuple:int -> Cfd.nf list -> Cnf.clause list -> Cnf.clause list
(** Prepends tuple [tuple]'s clauses: exactly one candidate per
    attribute, and one clause per CFD with a constant right-hand side
    (the CFD on the pair of the tuple with itself). *)
