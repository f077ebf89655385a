(** Plain fork-join over OCaml 5 domains, stdlib only (Domain / Mutex /
    Atomic).

    It exists so the paper's embarrassingly parallel work —
    [RandomChecking]'s K independent chase runs (Fig 5) and the batch
    entry points' independent items — can use the hardware without giving
    up reproducibility.  A fan-out spawns at most [jobs - 1] domains, and
    never more than items - 1; the caller and the spawned domains pull item
    indices until none are left, and every domain is joined before the
    fan-out returns.  With [jobs <= 1] or fewer than two items it is a
    plain loop on the caller with no domain.

    - {b Determinism.} Combinators return (or select) results by item
      index, never by completion order, so the verdict for a fixed seed is
      bit-identical at any [jobs] count.  (Telemetry counts are {e not}
      deterministic — runs above the winner do a hardware-dependent amount
      of work before observing cancellation; see DESIGN.md §9.)
    - {b Cancellation.} {!first_success} is cooperative via {!Guard}
      tokens: each item gets a token, and once a stopping outcome is known
      the tokens of the items above it are cancelled, so items that poll a
      {!Guard.child} budget unwind with [Exhausted Cancelled] promptly.
    - {b Budgets.} Items run under the caller's ambient budget (ambient is
      domain-local, so spawned domains install the caller's); pass
      explicit {!Guard.child} budgets for deadline/fuel sharing across the
      fan-out.
    - {b Failures.} An exception raised by an item — [Out_of_memory] and
      [Stack_overflow] included — is captured with its index and re-raised
      on the caller after the join; the least index wins.

    Items of a fan-out that spawns domains, on whichever runner they run,
    pass the [parallel.task] probe first and count in [parallel.tasks];
    each such fan-out counts in [parallel.pools].  A plain loop does
    neither. *)

val default_jobs : unit -> int
(** The process default for [?jobs] parameters: the [JOBS] environment
    variable when set to a positive integer, else 1.  CI sets [JOBS=4] to
    exercise the parallel paths across the whole test suite; [cindtool
    --jobs N] overrides it for the process. *)

val set_default_jobs : int -> unit
(** Override {!default_jobs} for this process (clamped to [>= 1]). *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Fork-join map, results in list order.  Every item runs; if any raise,
    [map] re-raises the least-indexed exception after the join. *)

val first_success :
  jobs:int ->
  int ->
  (unit -> 'a) ->
  ('a -> Guard.token -> 'b option) ->
  (int * 'b) option
(** [first_success ~jobs n next f] runs [f x_i tok_i] for i = 0 .. n-1,
    where [x_i] is the value of the i-th call of [next], and returns
    [Some (i, v)] for the {e least} index i whose run stopped with
    [Some v] — exactly what a sequential loop stopping at the first
    [Some] returns, independent of completion order.

    [next] is called lazily, in index order, under a lock, so nothing
    n-sized is allocated up front; it is never called for an index above
    a stopping outcome already known.  When a run stops, the tokens of
    the runs in flight above it are cancelled.  A run raising
    [Guard.Exhausted Cancelled] counts as [None]; any other exception is
    a stopping outcome like [Some], re-raised if it is the least-indexed
    one.  At [jobs <= 1] this is the sequential loop itself: [next] is
    called once per run, up to and including the stopping one. *)
