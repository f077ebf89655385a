open Conddep_relational
open Conddep_core
open Conddep_chase
open Conddep_consistency

(** The single stable entry point for drivers ([bin/], [bench/],
    external users).  Every decision procedure in the library is exposed
    here as a three-valued {!verdict}.  Every call spends the ambient
    {!Guard} budget; a caller that wants a limit scopes one with
    {!Guard.with_ambient}.  Options a layer would ignore are not offered.

    The facade never changes answers: every function is a thin,
    documented mapping onto the corresponding [lib/core] /
    [lib/consistency] entry point, and {!implies_many} is bit-identical
    to the corresponding sequence of singleton calls.  [lib/] runs on one
    domain and must be driven from one domain: every call runs on the
    caller's domain.  Drivers should depend on this module only;
    the underlying modules remain public for library users who need
    engine-level control (templates, compiled forms). *)

(** {1 Verdicts} *)

type verdict =
  | Yes of Database.t option
      (** The property holds ([consistent] / [implied]); the payload is a
          verifying witness database when the procedure produces one
          ([None] for implication, whose certificate is the absence of a
          counterexample model). *)
  | No  (** Definitively inconsistent / not implied. *)
  | Unknown of Guard.reason
      (** Undetermined: [Guard.Fuel] for a procedure's own heuristic cap
          (the paper's K / K_CFD bounds, [max_states]) or for the ambient
          budget's spent fuel; [Guard.Deadline] when the ambient budget's
          deadline cut the run short.  A run cut short by the budget
          answers the unbudgeted verdict or [Unknown], never a different
          one. *)

val to_bool : verdict -> bool
(** The papers' boolean reading: [true] only for [Yes _]. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** ["yes"], ["no"] or ["unknown (<reason>)"] — witness elided. *)

type backend = Cfd_checking.backend =
  | Chase_backend  (** heuristic, K_CFD-bounded (Fig 10a, "chase") *)
  | Sat_backend  (** complete, CDCL-based (Fig 10a, "SAT4j") *)

(** {1 Consistency of Σ (CINDs + CFDs, Algorithm Checking)} *)

val check :
  ?backend:backend ->
  ?config:Chase.config ->
  ?k:int ->
  ?k_cfd:int ->
  rng:Rng.t ->
  Db_schema.t ->
  Sigma.nf ->
  verdict
(** Full pipeline (Fig 9): preProcessing + per-component RandomChecking.
    [Yes (Some db)] carries the verified witness; [No] is definitive
    (the Fig 7 reduction emptied the dependency graph); [Unknown r]
    found no witness within the caps or the budget.  Maps
    {!Checking.check}. *)

val random_check :
  ?config:Chase.config ->
  ?k:int ->
  ?k_cfd:int ->
  rng:Rng.t ->
  Db_schema.t ->
  Sigma.nf ->
  verdict
(** Procedure RandomChecking alone (Fig 8), without the preProcessing
    reduction: up to K chase-and-instantiate runs, one after another.
    Sound but not complete — never answers [No].  Maps
    {!Random_checking.check}. *)

(** {1 Single-relation CFD consistency (Sections 5.2–5.3)} *)

val consistent :
  ?backend:backend ->
  ?k_cfd:int ->
  rng:Rng.t ->
  Db_schema.t ->
  Cfd.nf list ->
  rel:string ->
  verdict
(** Is CFD([rel]) consistent?  [Yes (Some db)] carries a single-tuple
    witness database.  [No] is definitive from either backend: an Unsat
    from [Sat_backend] (complete), or a forced-propagation contradiction
    from [Chase_backend].
    [Unknown Guard.Fuel] is reserved for [Chase_backend]'s genuine
    heuristic give-up (its K_CFD-bounded search proves nothing by
    failing).  Maps {!Cfd_checking.consistent_rel}. *)

(** {1 Implication (Sections 3–4, Table 1)} *)

val implies :
  ?max_states:int ->
  Db_schema.t ->
  sigma:Cind.nf list ->
  Cind.nf ->
  verdict
(** Exact CIND implication [Σ |= ψ] (Theorems 3.4/3.5).  [Yes None] /
    [No] are exact; [Unknown Guard.Fuel] past [max_states] explored
    shapes.  Maps {!Implication.decide}. *)

val implies_many :
  ?max_states:int ->
  Db_schema.t ->
  sigma:Cind.nf list ->
  Cind.nf list ->
  verdict list
(** Batch {!implies} of many goals against one Σ, compiling Σ once and
    running the (rng-free) per-goal searches one after another.  Maps
    {!Implication.implies_many}. *)

(** {1 preProcessing alone (Fig 7)} *)

val preprocess :
  ?backend:backend ->
  ?k_cfd:int ->
  rng:Rng.t ->
  Db_schema.t ->
  Sigma.nf ->
  verdict
(** The reduction of Fig 7 by itself: [Yes (Some db)] when the emptied
    graph already yields a witness, [No] when inconsistency is detected
    syntactically, [Unknown Guard.Fuel] when undecided components remain
    for RandomChecking.  Maps {!Preprocessing.run}. *)
