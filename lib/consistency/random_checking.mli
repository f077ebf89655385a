open Conddep_relational
open Conddep_core
open Conddep_chase

(** Algorithm RandomChecking (Fig 5), with the improvement of Section 5.2:
    the chase bounded by T interleaved with CFD_Checking, attempted over up
    to K random runs.  Sound but incomplete (Theorem 5.1): [Consistent]
    answers carry a verified witness database. *)

type result =
  | Consistent of Database.t
  | Unknown of Guard.reason
      (** No witness found: [Guard.Fuel] when the K runs were spent or
          the ambient budget's fuel ran out, [Guard.Deadline] when its
          deadline cut the search short.
          [Guard.Exhausted] never escapes this entry point. *)

val check :
  ?config:Chase.config ->
  ?k:int ->
  ?k_cfd:int ->
  ?component:Depgraph.component ->
  rng:Rng.t ->
  Db_schema.t ->
  Sigma.nf ->
  result
(** [k] is the number of random runs K (default 20, the paper's setting);
    [k_cfd] bounds the random valuations inside CFD_Checking; the ambient
    budget bounds the whole search.

    [component] (Checking passes each weakly connected component,
    compiled by preProcessing) gives the relations a run may start from,
    the constraints the runs chase and the constants the fresh values
    avoid; by default every relation and the whole Σ, compiled here.
    Every candidate is verified against the whole Σ, so a [Consistent]
    witness satisfies Σ.

    The K runs are the sequential loop of Fig 5: run i draws the i-th
    {!Rng.split} of [rng], taken when the run starts, and spends the
    ambient budget, its deadline and fuel included.  The loop stops at
    the first verified witness or when the budget runs dry, so [rng]
    advances by one split per run through the stopping run, or by K
    splits. *)
