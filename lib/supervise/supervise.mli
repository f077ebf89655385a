(** Resilience layer between {!Guard} and the engines: retry with
    deterministic backoff and a process-wide supervision policy.

    The layer never invents answers.  A retry re-runs the {e same}
    deterministic operation (callers snapshot their RNG with {!Rng.copy}
    per attempt), so a successful re-run after a transient fault yields
    the bit-identical verdict the fault-free run would have produced.
    Definitive verdicts are never retried — only outcomes the caller
    classifies as {!Transient} are.

    Backoff is measured in fuel slices ticked against the shared budget,
    not wall-clock sleeps: tests stay fast, and a budget too spent to
    afford the backoff correctly turns the retry into a give-up.
    Telemetry: [supervise.retries], [supervise.gave_up]; each re-attempt
    runs under a ["supervise.retry"] span. *)

(** {1 Policy} *)

module Policy : sig
  type t = { retries : int  (** re-runs allowed per supervised operation *) }

  val default : t
  (** [{ retries = 0 }] — supervision off.  The library default. *)

  val supervised : t
  (** [{ retries = 1 }] — the [cindtool] default. *)

  val ambient : unit -> t
  (** The process-wide policy, {!default} until set. *)

  val set_ambient : t -> unit

  val resolve : t option -> t
  (** [resolve (Some p)] is [p]; [resolve None] is [ambient ()]. *)
end

(** {1 Retry with backoff} *)

type 'a attempt =
  | Done of 'a  (** a verdict — definitive or a give-up; never retried *)
  | Transient of Guard.reason  (** worth re-running, budget permitting *)

val transient : shared:Guard.t -> Guard.reason -> bool
(** Classification helper for {!with_retry} callers: [true] iff the
    reason is an injected {!Guard.Fault} or a local {!Guard.Memory}
    ceiling {e and} the [shared] budget is not spent.  Deterministic
    heuristic give-ups ([Fuel] from the paper's K / K_CFD caps) and
    shared-limit exhaustion re-run identically, so retrying them is
    wasted fuel. *)

val with_retry :
  ?policy:Policy.t ->
  ?rng:Rng.t ->
  budget:Guard.t ->
  (attempt:int -> 'a attempt) ->
  ('a, Guard.reason) result
(** [with_retry ~budget f] runs [f ~attempt:0]; while it returns
    [Transient r] (or raises {!Guard.Exhausted} — caught and treated as
    transient), at most [policy.retries] re-attempts follow, each after
    burning a fuel slice against [budget]: 64 before the first retry,
    doubling per further attempt up to 4096, plus up to 16 of jitter
    drawn from [rng].  Stops with [Error] when attempts run out, when the
    shared [budget] goes spent (the backoff tick itself may spend it —
    then the budget's own reason is reported), or when the budget was
    already spent going in.  [Done v] returns [Ok v] immediately.
    Re-attempts run under a ["supervise.retry"] span and bump
    [supervise.retries]; a final failure bumps [supervise.gave_up]. *)
