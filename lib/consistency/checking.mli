open Conddep_relational
open Conddep_core
open Conddep_chase

(** Algorithm Checking (Fig 9): preProcessing + per-component
    RandomChecking.  Sound: [Consistent] carries a verified witness;
    [Inconsistent] is definitive (Fig 7's reduction emptied the graph);
    [Unknown r] means no witness was found, with [r] saying what gave
    out ([Guard.Fuel] for the paper's own K / K_CFD caps or the ambient
    budget's fuel; [Guard.Deadline] when its deadline passed).  A run cut
    short by the ambient budget answers the unbudgeted verdict or
    [Unknown], never a different one.  [Guard.Exhausted] never escapes
    [check]. *)

type result =
  | Consistent of Database.t
  | Inconsistent
  | Unknown of Guard.reason

val check :
  ?backend:Cfd_checking.backend ->
  ?config:Chase.config ->
  ?k:int ->
  ?k_cfd:int ->
  rng:Rng.t ->
  Db_schema.t ->
  Sigma.nf ->
  result
(** Without a forced [backend], preProcessing uses the chase backend.

    The pipeline runs on a copy of [rng]: the caller's generator is never
    advanced, so equal seeds give equal verdicts. *)

val to_bool : result -> bool
(** The paper's boolean answer: [true] only for [Consistent]. *)
