(** Unified resource governance for the long-running decision procedures.

    The paper's core problems are intrinsically expensive — CIND implication
    is EXPTIME-complete (Thm 3.4) and the heuristic [Checking] pipeline is
    bounded only in its iterations (K / K_CFD, Fig 9) — so every engine
    spends one budget ({!t}) combining a wall-clock deadline and step
    fuel.
    Exhaustion is reported as a structured {!reason} rather than a hang or a
    crash; engines surface it as a typed [Unknown]/[Undetermined] result
    (or let {!Exhausted} propagate from boolean APIs, where the caller maps
    it to an exit code).

    Budgets are scoped, not passed: the engines {!tick} and {!check} the
    {e ambient} budget, and a caller that wants a limit installs one for a
    dynamic extent with {!with_ambient}:
    {[
      Guard.with_ambient (Guard.make ~timeout_s:5. ()) (fun () ->
          Cind_api.check ~rng schema sigma)
    ]}

    Budgets are mutable and *sticky*: once exhausted, every subsequent
    {!tick}/{!check} raises again with the same reason, so a deep search
    unwinds promptly no matter where it is.  [lib/] runs on one domain
    and must be driven from one domain: every engine runs on its
    caller's domain, and the ambient budget is one process-wide
    setting.

    A run stops early only for an engine's own caps (the paper's K /
    K_CFD, [max_states], [max_nodes], step limits — plain counts) or
    because the budget ran out.  A fuel budget can cut a run at any
    {!tick} site, so sweeping small fuel values is how the tests check
    that a cut-short run answers the unbudgeted verdict or a typed
    [Unknown], never a different one.

    Every budget event is counted through the telemetry layer
    ([guard.budgets_created], [guard.deadline_hits],
    [guard.fuel_exhausted]). *)

(** {1 Exhaustion reasons} *)

type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Fuel  (** the step/fuel budget ran dry (also: a capacity limit) *)

exception Exhausted of reason
(** Raised by {!tick}/{!check} when a budget limit is hit. *)

val reason_to_string : reason -> string
(** ["deadline"], ["fuel"]. *)

val pp_reason : Format.formatter -> reason -> unit

(** {1 Budgets} *)

type t

val unlimited : t
(** The no-op budget: {!tick} and {!check} under it never raise and cost
    one physical-equality test. *)

val make : ?timeout_s:float -> ?fuel:int -> unit -> t
(** [make ()] with no limits is {!unlimited}.  [timeout_s] is a relative
    wall-clock deadline in seconds; [fuel] a number of {!tick}s (cost-
    weighted). *)

val is_unlimited : t -> bool

val state : t -> reason option
(** Non-raising poll: [Some r] once the budget has been exhausted. *)

(** {1 The ambient budget}

    One for the process, {!unlimited} by default; the CLI sets it from
    [--timeout]/[--fuel], the bench harness scopes one per series. *)

val ambient : unit -> t
val set_ambient : t -> unit

val with_ambient : t -> (unit -> 'a) -> 'a
(** [with_ambient b f] runs [f ()] with [b] as the ambient budget and
    restores the previous one on exit, normal or exceptional. *)

(** {1 Spending the ambient budget} *)

val tick : ?cost:int -> unit -> unit
(** Consume [cost] (default 1) fuel; the clock is polled every few dozen
    ticks.  @raise Exhausted when either limit is hit (and on every call
    thereafter — sticky). *)

val check : unit -> unit
(** Like {!tick} but consumes no fuel and always polls the clock: use at
    the head of coarse loops where steps are heavy. *)

val reraise_if_spent : unit -> unit
(** @raise Exhausted if the ambient budget's {!state} is [Some _].  A
    safety net before returning a "gave up" answer that would otherwise be
    mistaken for a definitive negative. *)
