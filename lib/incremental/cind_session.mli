open Conddep_relational
open Conddep_core

(** Incremental re-checking sessions: a mutable (Σ, D) under edit
    operations, with a verdict cache keyed by the query and invalidated
    by read sets.

    A session holds a schema, a dependency set Σ and a database D, and
    answers the {!Cind_api} queries ([check] / [consistent] / [implies],
    plus [holds] over D).  The cache key is the query itself: [check],
    [consistent rel], [implies] of the canonical ({!Cind.canon_nf}),
    unnamed goal, and one [holds] key per dependency (the unnamed CFD, or
    the canonical, unnamed CIND).  An entry keeps the answer and, for
    [implies], the {!Read_set} its search recorded: which CINDs it found
    applicable and which relations' shapes it explored.  Every other
    key's read set follows from the key: [check] reads all of Σ,
    [consistent rel] reads CFD([rel]), and a [holds] key reads its
    dependency's relations in D.  An edit drops only the entries whose
    read set it touches: removing a CIND no implication search found
    applicable, or inserting tuples into a relation no cached [holds]
    read, keeps them.

    {b Coherence invariant}: every answer, hit or miss, is exactly what
    the one-shot {!Cind_api} call answers on the session's current state,
    printed witnesses included.  Each randomized query ([check],
    [consistent]) draws its randomness from [Rng.make seed], as
    [Cind_api.check ~rng:(Rng.make seed)] and [cindtool check --seed]
    do, so answers never depend on the session's history or on what the
    process answered before.  Answers are cached only when deterministic
    under replay: [Unknown Guard.Fuel] from the paper's K / K_CFD /
    max_states caps is cached; an [Unknown] from the caller's budget
    (deadline, or fuel with the ambient budget spent after the query)
    never is, so a later query without that budget recomputes.

    Σ's CINDs are kept compiled ({!Implication.compile}) in Σ order, so
    a re-asked [implies] skips compilation.

    Like the rest of [lib/], sessions run on one domain: every session
    of a process must be driven from one domain. *)

type t

val create : ?backend:Cind_api.backend -> seed:int -> Db_schema.t -> t
(** A fresh session with empty Σ and empty database.  [backend] (default
    [Chase_backend]) and [seed] are fixed for the session's lifetime;
    every other {!Cind_api} option keeps its default. *)

val schema : t -> Db_schema.t
val sigma : t -> Sigma.nf
val database : t -> Database.t

(** {1 Edits}

    Edits are idempotent set operations on Σ: adding a dependency
    already present (up to {!Cind.canon_nf} / name-insensitive equality)
    or removing an absent one is a no-op that invalidates nothing.  An
    added dependency goes to the end of Σ. *)

val add_cind : t -> Cind.nf -> unit
val remove_cind : t -> Cind.nf -> unit
val add_cfd : t -> Cfd.nf -> unit
val remove_cfd : t -> Cfd.nf -> unit

val insert_tuples : t -> rel:string -> Tuple.t list -> unit
(** Appends tuples to [rel].  Only cached [holds] answers that read
    [rel] are dropped ([check], [consistent] and [implies] never read the
    database).
    @raise Invalid_argument on an unknown relation. *)

(** {1 Queries} *)

val check : t -> Cind_api.verdict
(** Is Σ consistent?  {!Cind_api.check} on the session state. *)

val consistent : t -> rel:string -> Cind_api.verdict
(** Is CFD([rel]) consistent?  {!Cind_api.consistent} on the session
    state.
    @raise Invalid_argument on an unknown relation. *)

val implies : t -> Cind.nf -> Cind_api.verdict
(** Does Σ's CIND set imply the goal?  {!Cind_api.implies} on the
    session state. *)

val holds : t -> bool
(** Does the session database satisfy Σ ({!Sigma.nf_holds})?  The one
    query that reads D.  Cached {e per dependency} — [holds] is a pure
    conjunction — so a Σ edit costs at most one new dependency check and
    an insert re-checks only the dependencies over that relation. *)

(** {1 Introspection} *)

type stats = {
  hits : int;
  misses : int;
  invalidations : int;  (** cache entries dropped by edits *)
  entries : int;  (** live cache entries *)
}

val stats : t -> stats
(** This session's counters (the process-wide totals feed the
    [incremental.*] telemetry counters and gauge). *)
