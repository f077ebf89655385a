open Conddep_relational
open Conddep_core

(** The extended chase of Section 5.1, with the relation bound T of
    chase_I (Section 5.2).

    The chase transforms database templates with the operations IND(ψ)
    (add a required witness tuple, populating unknown fields from the
    bounded variable pools) and FD(φ) (identify values, undefined on a
    constant clash).  Variable pools are bounded by N and every relation
    by the threshold T.  Finite-domain unknowns stay variables until
    CFD_Checking's valuations ({!instantiate_finite_vars}) give them
    values. *)

type config = {
  pool_size : int;  (** N — maximum size of each pool [var\[A\]] *)
  threshold : int;  (** T — relation size bound of chase_I *)
  max_steps : int;  (** cap on the IND steps of one chase *)
}

val default_config : config
(** N = 2 (the paper's experimental setting), T = 2000. *)

(** {1 The canonical schedule}

    Every chase here executes one canonical operation schedule: the first
    CFD in compiled order with a violating pair, least pair; a round-robin
    CIND cursor, least firing tuple (see DESIGN.md §10).  The loops
    ({!fd_fixpoint}, {!Ind_cursor}) find each next operation by
    rescanning the template with the single operations {!fd_step} and
    {!ind_step}, so equal inputs and random seeds give equal outcomes and
    final templates. *)

(** {1 Compiled constraints} *)

type compiled_cind
type compiled_cfd
type compiled = { cinds : compiled_cind list; cfds : compiled_cfd list }

val compile : Db_schema.t -> Sigma.nf -> compiled
val compile_cind : Db_schema.t -> Cind.nf -> compiled_cind
val compile_cfd : Db_schema.t -> Cfd.nf -> compiled_cfd
(** Attribute names and relations are resolved to positions: use a
    compiled constraint only on templates over the schema it was compiled
    against. *)

(** {1 Single operations} *)

type fd_result =
  | Fd_changed of Template.t
  | Fd_unchanged
  | Fd_undefined of string

val fd_step : compiled_cfd -> Template.t -> fd_result
(** One FD(φ) application to the canonical least violating pair, if any,
    found by scanning every pair. *)

val fd_fixpoint : compiled_cfd list -> Template.t -> (Template.t, string) result
(** Chase with CFDs only, to fixpoint — the core of CFD_Checking; [Error]
    carries the reason the chase is undefined.  Every applied step
    substitutes a variable away, so the pass ends within as many steps as
    the template has variables; each step ticks the ambient budget.

    Each compiled CFD remembers the tuple list of its relation on which
    {!fd_step} last answered [Fd_unchanged], across calls, and is skipped
    while the template still holds that very list ([==]); the answer,
    the steps applied and the ticks are those of rescanning every CFD.
    @raise Guard.Exhausted when the ambient budget runs dry. *)

type ind_result =
  | Ind_changed of Template.t
  | Ind_unchanged
  | Ind_overflow of string  (** the RHS relation is at the threshold T *)

val ind_step :
  threshold:int ->
  Pool.t ->
  Rng.t ->
  compiled_cind ->
  Template.t ->
  ind_result
(** One IND(ψ) application to the least triggering tuple lacking a
    witness, found by scanning every LHS tuple against the RHS relation. *)

(** {1 Round-robin IND cursor}

    The scan for the next IND operation resumes after the last applied
    CIND (wrapping), so every CIND is visited between two applications of
    any single one — fairness.  RandomChecking's interleaved chase drives
    it. *)

module Ind_cursor : sig
  type t

  val create : threshold:int -> Pool.t -> compiled_cind list -> t

  val step : t -> rng:Rng.t -> Template.t -> ind_result
  (** Offer each CIND in turn to {!ind_step}, starting after the last one
      applied, and return the first result that is not [Ind_unchanged]
      ([Ind_unchanged] when no CIND fires).  Polls the ambient budget's
      deadline per CIND visited. *)
end

val conclusion_constants :
  Db_schema.t -> compiled_cfd list -> ((string * string) * Value.t) list
(** Constants forced by CFD conclusions, keyed by (relation, attribute). *)

val instantiate_finite_vars :
  ?prefer:(string -> string -> Value.t list) ->
  ?avoid:Value.t list ->
  Rng.t ->
  Template.t ->
  Template.t
(** Apply a random valuation ρ ∈ Vfinattr(R) to all remaining finite-domain
    variables.  Values outside [avoid] (typically the constants of Σ) are
    preferred — they match no pattern, like fresh values of an infinite
    domain; fully covered domains fall back to uniform choice. *)

val seed_tuple : Db_schema.t -> rel:string -> Template.t
(** The single-tuple start template of RandomChecking (Fig 5, line 1). *)
