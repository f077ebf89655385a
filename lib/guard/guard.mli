(** Unified resource governance for the long-running decision procedures.

    The paper's core problems are intrinsically expensive — CIND implication
    is EXPTIME-complete (Thm 3.4) and the heuristic [Checking] pipeline is
    budgeted by design (K / K_CFD, Fig 9) — so every engine in this repo
    accepts a {!t} ("budget") combining a wall-clock deadline, step fuel and
    an optional allocation ceiling.
    Exhaustion is reported as a structured {!reason} rather than a hang or a
    crash; engines surface it as a typed [Unknown]/[Exhausted] result (or
    let {!Exhausted} propagate from boolean APIs, where the caller maps it
    to an exit code).

    Budgets are mutable and *sticky*: once exhausted, every subsequent
    {!tick}/{!check} raises again with the same reason, so a deep search
    unwinds promptly no matter where it is.  A budget is owned by one
    domain: every engine runs on its caller's domain, and the allocation
    ceiling reads that domain's [Gc.minor_words].

    A run stops early only for an engine's own caps (the paper's K /
    K_CFD, [max_states], step limits) or because its budget ran out.  A
    fuel budget can cut a run at any {!tick} site, so sweeping small fuel
    values is how the tests check that a cut-short run answers the
    unbudgeted verdict or a typed [Unknown], never a different one.

    Every budget event is counted through the telemetry layer
    ([guard.budgets_created], [guard.deadline_hits],
    [guard.fuel_exhausted], [guard.memory_hits]). *)

(** {1 Exhaustion reasons} *)

type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Fuel  (** the step/fuel budget ran dry (also: a capacity limit) *)
  | Memory  (** the allocation ceiling was crossed *)

exception Exhausted of reason
(** Raised by {!tick}/{!check} when a budget limit is hit. *)

val reason_to_string : reason -> string
(** ["deadline"], ["fuel"], ["memory"]. *)

val pp_reason : Format.formatter -> reason -> unit

(** {1 Budgets} *)

type t

val unlimited : t
(** The no-op budget: {!tick} and {!check} on it never raise and cost one
    physical-equality test. *)

val make : ?timeout_s:float -> ?fuel:int -> ?max_words:float -> unit -> t
(** [make ()] with no limits is {!unlimited}.  [timeout_s] is a relative
    wall-clock deadline in seconds; [fuel] a number of {!tick}s (cost-
    weighted); [max_words] a ceiling on minor-heap words allocated after
    creation (polled via [Gc.minor_words]). *)

val is_unlimited : t -> bool

val tick : ?cost:int -> t -> unit
(** Consume [cost] (default 1) fuel and poll the cheap limits; the clock
    and the allocator are polled every few dozen ticks.  @raise Exhausted
    when any limit is hit (and on every call thereafter — sticky). *)

val check : t -> unit
(** Like {!tick} but consumes no fuel and always polls the clock and the
    allocator: use at the head of coarse loops where steps are heavy. *)

val state : t -> reason option
(** Non-raising poll: [Some r] once the budget has been exhausted. *)

val reraise_if_spent : t -> unit
(** @raise Exhausted if {!state} is [Some _].  A safety net before
    returning a "gave up" answer that would otherwise be mistaken for a
    definitive negative. *)

val recoverable : shared:t -> reason -> bool
(** Should a heuristic sub-search swallow this exhaustion and merely count
    the attempt as failed?  [true] iff the [shared] budget itself is not
    spent — i.e. the exhaustion came from a purely local limit (a chase
    step budget, a solver conflict cap).  Shared exhaustion must
    propagate. *)

val run : t -> (unit -> 'a) -> ('a, reason) result
(** [run b f] evaluates [f ()], catching {!Exhausted}. *)

(** {1 Ambient budget}

    Entry points default their [?budget] argument to the process-wide
    ambient budget (itself {!unlimited} by default) via {!resolve}; the CLI
    sets it from [--timeout]/[--fuel], the bench harness scopes one per
    series. *)

val ambient : unit -> t
val set_ambient : t -> unit

val with_ambient : t -> (unit -> 'a) -> 'a
(** Scoped {!set_ambient}; restores the previous ambient on exit. *)

val resolve : t option -> t
(** [resolve (Some b)] is [b]; [resolve None] is [ambient ()]. *)
