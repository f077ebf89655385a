(** Chaos harness: randomized fault schedules over the {!Guard} probe
    registry, verdict-identity assertions against the fault-free run, and
    dump / shrink / replay of failing schedules.

    A {e schedule} is a reproducible experiment: a generated workload
    (seeded), a check seed, and a set of armed probe sites, each with an
    arm-after-N-hits countdown and a fire count ([times = 0] meaning
    unlimited — a permanent fault; a small count models a transient one a
    supervised retry can get past).  Running a schedule arms exactly
    those sites, runs [Checking.check] under a supervision policy, and
    disarms them again.

    The safety property swept by {!sweep}: the faulty verdict is either
    {e bit-identical} to the fault-free baseline (witness included) or a
    typed [Unknown] — never a crash, never a {e different} definitive
    answer.  Failing schedules serialize to [.chaos.json] files
    ({!save} / {!load}) so they replay exactly, and {!shrink_with}
    minimises them by dropping probes and halving hit counts — the
    dump-and-shrink idiom applied to fault injection. *)

type arm = {
  site : string;
  after : int;  (** probe hits let through before firing *)
  times : int;  (** fires before going dormant; 0 = unlimited *)
}

type schedule = {
  s_seed : int;  (** master sweep seed this schedule was drawn from *)
  s_round : int;
  s_workload_seed : int;
  s_check_seed : int;
  s_relations : int;
  s_constraints : int;
  s_arms : arm list;
}

type round_report = {
  r_schedule : schedule;
  r_baseline : string;  (** canonical fault-free verdict (witness included) *)
  r_faulty : string;  (** verdict under the armed schedule *)
  r_ok : bool;  (** baseline-identical, or a typed Unknown *)
  r_retries : int;  (** supervise.retries delta (needs telemetry enabled) *)
}

type report = {
  rounds : round_report list;
  survived : int;  (** rounds whose faulty verdict equalled the baseline *)
  unknowns : int;  (** rounds degraded to a typed Unknown *)
  failures : round_report list;  (** rounds violating verdict-identity *)
}

val run_verdict : ?policy:Supervise.Policy.t -> schedule -> string
(** Run the schedule's workload with its arms armed (programmatically, so
    they fire regardless of budget governance) and return the canonical
    verdict string.  The schedule's sites are disarmed on exit, arms of
    other sites are left alone. *)

val round : ?policy:Supervise.Policy.t -> schedule -> round_report
(** Baseline, then faulty run, then the identity-or-Unknown verdict. *)

val sweep :
  ?policy:Supervise.Policy.t ->
  ?relations:int ->
  ?constraints:int ->
  seed:int ->
  rounds:int ->
  unit ->
  report
(** [rounds] randomized schedules drawn from [seed]: per round a fresh
    workload, a random probe subset of {!Guard.all_probes}, random
    countdowns and fire counts.  Deterministic: the same seed yields the
    same schedules and the same verdicts. *)

val shrink_with : fails:(schedule -> bool) -> schedule -> schedule
(** Minimise a failing schedule while [fails] still holds: drop arms one
    at a time (restarting on success), then repeatedly halve [after]
    counts.  [fails] is re-evaluated at most ~200 times. *)

val shrink : ?policy:Supervise.Policy.t -> schedule -> schedule
(** {!shrink_with} under the real failure predicate ([not (round ...).r_ok]). *)

(** {1 Replayable [.chaos.json] files} *)

val to_json : schedule -> string
val of_json : string -> (schedule, string) result
(** A tiny scanner for our own dump format, not a general JSON parser. *)

val save : file:string -> schedule -> unit
val load : file:string -> (schedule, string) result

val pp_round : Format.formatter -> round_report -> unit
