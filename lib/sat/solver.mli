(** A CDCL SAT solver — conflict-driven clause learning.

    Substitute for SAT4j [19] in the SAT-based consistency checking of
    Section 5.2: the reduction only needs a complete propositional oracle.

    The engine is the CDCL core and nothing more:

    - two-watched-literal unit propagation recording, for every assigned
      variable, its decision level and the clause that propagated it (the
      implication reason);
    - first-UIP conflict analysis: the conflicting clause is resolved
      backwards along the trail until exactly one literal of the current
      decision level remains (the first unique implication point), yielding
      an asserting learned clause, kept until the solve returns;
    - non-chronological backjumping to the second-highest decision level in
      the learned clause, immediately asserting the UIP literal there;
    - activity branching: per-variable activities, seeded by occurrence
      counts, bumped during analysis and exponentially decayed per conflict
      (factor 1/0.95, rescaled at 1e100).  A linear scan picks the
      unassigned variable of highest activity, lowest index on ties; its
      polarity is the one occurring more often in the problem clauses.

    There are no restarts, no learned-clause deletion or shrinking and no
    phase saving: on the single-tuple CFD encodings this solver serves,
    every conflict measured so far occurred at decision level 0, where it
    ends the search without learning a clause.

    The solver is resource-governed: the ambient {!Guard} budget bounds
    the search (every decision and every conflict ticks it), and the result
    is three-valued — when the budget runs dry the solver answers [Unknown]
    with a structured reason, never a wrong [Sat]/[Unsat].  Branching is
    fully deterministic; the solver consumes no randomness.

    Observability: the counters [sat.solve_calls], [sat.decisions],
    [sat.propagations], [sat.conflicts], [sat.learned] (clauses learned),
    [sat.backjump_levels] (decision levels skipped beyond the one
    chronological level) and [sat.results_*], and the [sat.solve] and
    [sat.analyze] spans.

    The test suite checks it against an exhaustive reference solver. *)

type result =
  | Sat of bool array  (** model indexed by variable; index 0 is unused *)
  | Unsat
  | Unknown of Guard.reason  (** search stopped by the budget *)

val solve : Cnf.t -> result
(** Under an unlimited ambient budget the solver is complete and never
    answers [Unknown]. *)
