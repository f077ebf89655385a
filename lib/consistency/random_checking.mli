open Conddep_relational
open Conddep_core
open Conddep_chase

(** Algorithm RandomChecking (Fig 5), with the improvement of Section 5.2:
    the instantiated chase interleaved with CFD_Checking, attempted over up
    to K random runs.  Sound but incomplete (Theorem 5.1): [Consistent]
    answers carry a verified witness database. *)

type result =
  | Consistent of Database.t
  | Unknown of Guard.reason
      (** No witness found: [Guard.Fuel] when the K runs were exhausted
          normally, another reason when the shared budget cut the search
          short or an armed fault fired.  [Guard.Exhausted] never escapes
          this entry point. *)

val check :
  ?budget:Guard.t ->
  ?config:Chase.config ->
  ?k:int ->
  ?k_cfd:int ->
  ?seed_rels:string list ->
  ?jobs:int ->
  rng:Rng.t ->
  Db_schema.t ->
  Sigma.nf ->
  result
(** [k] is the number of random runs K (default 20, the paper's setting);
    [k_cfd] bounds the random valuations inside CFD_Checking; [seed_rels]
    restricts the starting relation (used per component by Checking);
    [budget] (default: ambient) bounds the whole search.

    [jobs] (default {!Parallel.default_jobs}) fans the K runs out with
    {!Parallel.first_success}; a stopping run cancels the runs above it.
    Run i draws the i-th {!Rng.split} of [rng] and the winner is selected
    by least run index, so the verdict — and the witness — for a fixed
    seed is identical at any [jobs] count, and [rng] is left where the
    sequential loop leaves it: one split per run, through the stopping
    run, or K splits.  (Telemetry counts are not jobs-invariant: runs
    above the winner do a hardware-dependent amount of work before
    observing cancellation.) *)

val to_bool : result -> bool
