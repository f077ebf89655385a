(** Read-set recording for incremental re-checking.

    A recorder collects, as a side effect of one decision-procedure run,
    which dependencies and which relations the derivation actually
    consulted — the entry's {e read set}.  The incremental session layer
    ([lib/incremental]) keys its verdict cache on dependency-set
    fingerprints and uses the recorded read set to invalidate only cache
    entries whose read set intersects an edit: removing a CIND that no
    derivation step ever found applicable, or inserting tuples into a
    relation no derivation read, must be a cache hit.

    Recorders follow the [?budget]-style optional-argument pattern: every
    recording function takes a [t option], so call sites pass their
    [?recorder] parameter straight through and pay nothing when it is
    [None].  A recorder is an over-approximation contract, not an exact
    trace: recording {e more} than was read is always sound (it only
    costs cache hits); recording less is a cache-coherence bug.

    Not domain-safe: record into one recorder from one domain only.  The
    batch entry points ([check_many], [consistent_many], [implies_many])
    do not take recorders — sessions record on the singleton paths. *)

type t

val create : unit -> t

val record_cind : t option -> Cind.nf -> unit
(** Note that the derivation consulted (found applicable, resolved with,
    or otherwise depended on) this CIND.  No-op on [None]. *)

val record_cfd : t option -> Cfd.nf -> unit
val record_rel : t option -> string -> unit

val cinds : t -> Cind.nf list
(** The distinct CINDs recorded, in unspecified order (a set). *)

val cfds : t -> Cfd.nf list
val rels : t -> string list
