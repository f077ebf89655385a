open Conddep_relational
open Conddep_core

(** Incremental re-checking sessions: a mutable (Σ, D) under edit
    operations, with a fingerprint-keyed verdict cache invalidated by
    read sets.

    A session holds a schema, a dependency set Σ and a database D, and
    answers the {!Cind_api} queries ([check] / [consistent] / [implies],
    plus [holds] over D).  Every query verdict is cached under
    [(kind, target fingerprint)] together with its {e read set} — which
    dependencies it consulted and which relations it touched.  An
    [implies] entry's read set is what the search reported through
    {!Read_set}; [consistent] and [holds] read a syntactic set; [check]
    reads all of Σ, so every Σ edit drops it.  An edit dirties only the
    entries whose read set intersects the delta: removing a CIND no
    implication search ever found applicable, or inserting tuples into a
    relation no cached [holds] read, is a cache hit.

    {b Coherence invariant}: a cache hit is verdict-bit-identical to
    recomputing the query from scratch against the session's current
    state (same seed discipline, see below) — enforced by the
    incremental-vs-fresh property tests.  Guaranteeing this shapes three
    rules:

    - every entry also stores a {e context} fingerprint (the part of the
      session state the query kind reads wholesale: Σ for [check], the
      CFDs on the target relation for [consistent], the CIND set for
      [implies], the read relations' generations for the per-dependency
      [holds] entries); a hit requires the stored context to match the
      current one, and edits refresh the context of entries their
      read-set test keeps;
    - each query draws its randomness from a generator seeded by
      [(session seed, kind, target fingerprint, context fingerprint)] —
      stable exactly as long as the entry survives, so a cached verdict
      and its from-scratch recomputation consume identical rng streams;
    - verdicts are cached only when deterministic under replay:
      [Unknown Guard.Fuel] (the paper's K / K_CFD / max_states caps) is
      cached, [Unknown] for deadline/memory/fault never is.

    Sessions also keep warm-start state across dirtied re-runs: the
    compiled Σ of the implication procedure, keyed by the CIND-set
    fingerprint.

    Edits probe the [incremental.invalidate] fault-injection site; an
    injected fault there flushes the whole cache (always sound) instead
    of escaping the edit.  Sessions are single-domain objects: a session
    must be driven from one domain. *)

type t

val create :
  ?backend:Cind_api.backend ->
  ?k:int ->
  ?k_cfd:int ->
  ?max_states:int ->
  ?cache:bool ->
  seed:int ->
  Db_schema.t ->
  t
(** A fresh session with empty Σ and empty database.  The options are
    the {!Cind_api} knobs, fixed for the session's lifetime so replayed
    queries are comparable.  [cache:false] disables the verdict cache
    {e and} the warm-start state — every query recomputes from scratch
    with the same seed discipline, which is exactly the oracle the
    property tests and the bench compare against. *)

val schema : t -> Db_schema.t
val sigma : t -> Sigma.nf
val database : t -> Database.t

(** {1 Edits}

    Edits are idempotent set operations on Σ: adding a dependency
    already present (up to {!Cind.canon_nf} / name-insensitive equality)
    or removing an absent one is a no-op that invalidates nothing. *)

val add_cind : t -> Cind.nf -> unit
val remove_cind : t -> Cind.nf -> unit
val add_cfd : t -> Cfd.nf -> unit
val remove_cfd : t -> Cfd.nf -> unit

val insert_tuples : t -> rel:string -> Tuple.t list -> unit
(** Appends tuples to [rel] and bumps its generation.  Only cached
    [holds] verdicts that read [rel] are dirtied ([check], [consistent]
    and [implies] never read the database).
    @raise Invalid_argument on an unknown relation. *)

(** {1 Queries} *)

val check : t -> Cind_api.verdict
(** Is Σ consistent?  Mirrors {!Cind_api.check} on the session state. *)

val consistent : t -> rel:string -> Cind_api.verdict
(** Is CFD([rel]) consistent?  Mirrors {!Cind_api.consistent}. *)

val implies : t -> Cind.nf -> Cind_api.verdict
(** Does Σ's CIND set imply the goal?  Mirrors {!Cind_api.implies}. *)

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
