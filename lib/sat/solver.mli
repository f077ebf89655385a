(** A CDCL SAT solver — conflict-driven clause learning.

    Substitute for SAT4j [19] in the SAT-based consistency checking of
    Section 5.2: the reduction only needs a complete propositional oracle.

    The engine is a modern CDCL core:

    - two-watched-literal unit propagation recording, for every assigned
      variable, its decision level and the clause that propagated it (the
      implication reason);
    - first-UIP conflict analysis: the conflicting clause is resolved
      backwards along the trail until exactly one literal of the current
      decision level remains (the first unique implication point), yielding
      an asserting learned clause;
    - non-chronological backjumping to the second-highest decision level in
      the learned clause, immediately asserting the UIP literal there;
    - EVSIDS branching: per-variable activities bumped during analysis and
      exponentially decayed per conflict (factor 1/0.95, rescaled at 1e100),
      served from a deterministic max-heap; polarity comes from phase saving
      with a positive-occurrence-majority fallback;
    - a learned-clause database scored by LBD ("glue": the number of
      distinct decision levels in the clause at learn time).  When the live
      learned count passes a cap (initially [reduce_base], growing 50% per
      reduction) the worse half by LBD is deleted; binary clauses, glue
      clauses (LBD <= 2) and clauses locked as implication reasons are kept
      forever;
    - conflict-limited restarts on the Luby schedule ([restart_base *
      luby(i)] conflicts per window).  Learned clauses, activities and
      saved phases all survive a restart, so the search never re-explores a
      refuted subtree; with the growing windows this preserves
      completeness.

    The solver is resource-governed: an optional {!Guard.t} budget plus
    conflict/decision limits bound the search (conflicts and decisions tick
    fuel), and the result is three-valued — under limits the solver
    degrades to [Unknown] with a structured reason, never to a wrong
    [Sat]/[Unsat].  Branching is fully deterministic (activity with
    variable-index tie-break); the solver consumes no randomness.

    Observability: beyond the pre-existing counters ([sat.solve_calls],
    [sat.decisions], [sat.propagations], [sat.conflicts], [sat.restarts],
    [sat.results_*]) the CDCL machinery records [sat.learned] (clauses
    learned), [sat.learned_deleted] (clauses dropped by database
    reduction), [sat.backjump_levels] (decision levels skipped beyond the
    one chronological level) and a [sat.analyze] span.

    The test suite checks it against the exhaustive {!solve_brute}. *)

type result =
  | Sat of bool array  (** model indexed by variable; index 0 is unused *)
  | Unsat
  | Unknown of Guard.reason
      (** search stopped by the budget or a conflict/decision limit
          ([Guard.Fuel]) *)

val solve :
  ?budget:Guard.t ->
  ?max_conflicts:int ->
  ?max_decisions:int ->
  ?restart_base:int ->
  ?reduce_base:int ->
  Cnf.t ->
  result
(** [budget] defaults to the ambient budget; with no limits at all the
    solver is complete and never answers [Unknown].  [restart_base]
    (default 64) scales the Luby restart windows; [restart_base <= 0]
    disables restarts entirely.  [reduce_base] (default 2000) is the live
    learned-clause count that triggers the first database reduction;
    [reduce_base <= 0] disables deletion (every learned clause is kept).
    Verdicts ([Sat] vs [Unsat]) are identical across [restart_base] values
    and [reduce_base] cadences; models may differ. *)

val is_sat : ?budget:Guard.t -> Cnf.t -> bool
(** The boolean view.  @raise Guard.Exhausted when the budget runs dry
    ([Unknown] has no faithful boolean reading). *)

val solve_brute : Cnf.t -> result
(** Exhaustive reference implementation for differential testing.  Returns
    [Unknown Guard.Fuel] beyond its 24-variable capacity (a typed answer,
    not an exception). *)
