(** Read-set recording for incremental re-checking.

    A recorder collects, as a side effect of one implication search
    ({!Implication.decide_compiled}), which CINDs and which relations the
    derivation actually consulted — the entry's {e read set}.  The
    incremental session layer ([lib/incremental]) keeps the recorder next
    to each cached [implies] answer and drops only the entries whose read
    set an edit touches: adding a CIND drops the searches that explored
    its LHS relation, and removing a CIND that no derivation step ever
    found applicable must keep the entry.

    Recorders are an optional argument: every recording function takes a
    [t option], so call sites pass their
    [?recorder] parameter straight through and pay nothing when it is
    [None].  A recorder is an over-approximation contract, not an exact
    trace: recording {e more} than was read is always sound (it only
    costs cache hits); recording less is a cache-coherence bug.

    CINDs are recorded and looked up exactly as given (structural
    equality, names included): the session compiles Σ's members in
    canonical ({!Cind.canon_nf}), unnamed form and asks with that form.

    Not domain-safe: record into one recorder from one domain only.  The
    batch entry point [implies_many] does not take a recorder — sessions
    record on the singleton path. *)

type t

val create : unit -> t

val record_cind : t option -> Cind.nf -> unit
(** Note that the derivation consulted (found applicable, resolved with,
    or otherwise depended on) this CIND.  No-op on [None]. *)

val record_rel : t option -> string -> unit
(** Note that the derivation explored shapes of this relation. *)

val mem_cind : t -> Cind.nf -> bool
val mem_rel : t -> string -> bool
