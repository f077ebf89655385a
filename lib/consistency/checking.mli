open Conddep_relational
open Conddep_core
open Conddep_chase

(** Algorithm Checking (Fig 9): preProcessing + per-component
    RandomChecking.  Sound: [Consistent] carries a verified witness;
    [Inconsistent] is definitive (Fig 7's reduction emptied the graph);
    [Unknown r] means no witness was found within the budgets, with [r]
    saying which budget gave out ([Guard.Fuel] for the paper's own K /
    K_CFD limits; deadline, memory or fault otherwise).
    [Guard.Exhausted] never escapes [check]. *)

type result =
  | Consistent of Database.t
  | Inconsistent
  | Unknown of Guard.reason

val check :
  ?backend:Cfd_checking.backend ->
  ?budget:Guard.t ->
  ?config:Chase.config ->
  ?k:int ->
  ?k_cfd:int ->
  ?policy:Supervise.Policy.t ->
  ?recorder:Read_set.t ->
  rng:Rng.t ->
  Db_schema.t ->
  Sigma.nf ->
  result
(** [budget] defaults to the ambient budget ([Guard.resolve]).

    [recorder] collects the read set: Checking consults all of Σ, so the
    whole of [sigma] and every relation it mentions are recorded up
    front (see {!Read_set} for the over-approximation contract).

    Without a forced [backend], preProcessing uses the chase backend.

    [policy] (default: the ambient {!Supervise.Policy}, itself off unless
    the caller — e.g. [cindtool] — enables it) supervises the run: one
    pipeline run under {!Supervise.with_retry}.  Transient failures
    (injected faults, a local allocation ceiling) are retried, each
    attempt on a copy of the entry [rng], so a fault-free re-run yields
    the bit-identical fault-free verdict; when retries run out the answer
    is [Unknown] with the fault's reason.  Deterministic give-ups —
    [Unknown Fuel] from the paper's K / K_CFD caps, shared deadline or
    fuel exhaustion — are never retried: re-running them is wasted work
    that cannot change the answer.  [rng] itself is only drawn from for
    retry backoff jitter. *)

val check_many :
  ?backend:Cfd_checking.backend ->
  ?budget:Guard.t ->
  ?config:Chase.config ->
  ?k:int ->
  ?k_cfd:int ->
  ?policy:Supervise.Policy.t ->
  rng:Rng.t ->
  Db_schema.t ->
  Sigma.nf list ->
  result list
(** [check_many ~rng schema sigmas] checks N dependency sets against one
    schema.  Result i is bit-identical (verdict {e and} witness) to
    [check ~rng:(List.nth (Rng.split_n rng N) i) schema (List.nth sigmas
    i)] — the batch form changes wall-clock, never answers.  The batch
    shares one policy/budget resolution and one interner warm-up over the
    schema; the items run one after another.

    A shared [budget] is drained by all items jointly (exhaustion is
    sticky, so items after the cut answer [Unknown] quickly); pass
    per-item budgets via N singleton calls when strict sequential
    budget-equivalence matters. *)

val to_bool : result -> bool
(** The paper's boolean answer: [true] only for [Consistent]. *)
