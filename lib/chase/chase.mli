open Conddep_relational
open Conddep_core

(** The extended chase of Section 5.1 and its instantiated variant chase_I
    of Section 5.2.

    The chase transforms database templates with the operations IND(ψ)
    (add a required witness tuple, populating unknown fields from the
    bounded variable pools) and FD(φ) (identify values, undefined on a
    constant clash).  Variable pools are bounded by N; the instantiated
    chase replaces finite-domain unknowns by random constants and bounds
    every relation by the threshold T. *)

type config = {
  pool_size : int;  (** N — maximum size of each pool [var\[A\]] *)
  threshold : int;  (** T — relation size bound of chase_I *)
  max_steps : int;  (** safety budget on chase operations *)
}

val default_config : config
(** N = 2 (the paper's experimental setting), T = 2000. *)

type outcome =
  | Terminal of Template.t  (** the chase result chase(D, Σ) *)
  | Undefined of string  (** chase undefined; carries the reason *)
  | Exhausted of Guard.reason
      (** the step fuel or the shared budget stopped the chase before a
          fixpoint; the result is unknown, not undefined *)

(** {1 The canonical schedule}

    Every chase here executes one canonical operation schedule: the first
    CFD in compiled order with a violating pair, least pair; a round-robin
    CIND cursor, least firing tuple (see DESIGN.md §10).  The fixpoints
    ({!fd_fixpoint}, {!run}, {!Ind_cursor}) find each next operation by
    draining dirty-tuple worklists, re-examining only tuples added or
    rewritten since they were last checked, and maintain the witness index
    incrementally through FD value-merges.  The single operations
    ({!fd_step}, {!ind_step}) find it by full rescans, so a loop over them
    is a reference chase with bit-identical outcomes and final templates
    for equal inputs and random seeds. *)

(** {1 Compiled constraints} *)

type compiled_cind
type compiled_cfd
type compiled = { cinds : compiled_cind list; cfds : compiled_cfd list }

val compile : Db_schema.t -> Sigma.nf -> compiled
val compile_cind : Db_schema.t -> Cind.nf -> compiled_cind
val compile_cfd : Db_schema.t -> Cfd.nf -> compiled_cfd

(** {1 Single operations} *)

type fd_result =
  | Fd_changed of Template.t
  | Fd_unchanged
  | Fd_undefined of string

val fd_step : compiled_cfd -> Template.t -> fd_result
(** One FD(φ) application to the canonical least violating pair, if any,
    found by scanning every pair. *)

val fd_fixpoint :
  ?budget:Guard.t ->
  ?max_steps:int ->
  compiled_cfd list ->
  Template.t ->
  outcome
(** Chase with CFDs only, to fixpoint — the core of CFD_Checking.
    [max_steps] is a local fuel bound (exhaustion yields
    [Exhausted Guard.Fuel]); [budget] (default: ambient) is the shared
    deadline/fuel/memory budget. *)

type ind_result =
  | Ind_changed of Template.t
  | Ind_unchanged
  | Ind_overflow of string  (** threshold T exceeded (instantiated mode) *)

val ind_step :
  instantiated:bool ->
  threshold:int ->
  Pool.t ->
  Rng.t ->
  Db_schema.t ->
  compiled_cind ->
  Template.t ->
  ind_result
(** One IND(ψ) application to the least triggering tuple lacking a
    witness, found by scanning every LHS tuple against the RHS relation. *)

(** {1 Round-robin IND cursor}

    The scan for the next IND operation resumes after the last applied
    CIND (wrapping), so every CIND is visited between two applications of
    any single one — fairness.  The cursor keeps a dirty worklist per CIND
    and re-examines only tuples that could newly fire; callers that mutate
    the template themselves either notify it ({!Ind_cursor.note_subst}) or
    let the physical-identity check trigger a reseed (one full scan).
    Witness checks are hash lookups in the cursor's own memoized
    projection index over the RHS relations (keyed on interned cell ids,
    not domain-safe, so one cursor per run).  Used by {!run} and by
    RandomChecking's interleaved chase. *)

module Ind_cursor : sig
  type t

  type step_result =
    | Step_applied of { db : Template.t; rel : string; tuple : Template.tuple }
        (** one witness tuple was inserted into [rel] *)
    | Step_none  (** no CIND has a triggering unwitnessed tuple *)
    | Step_overflow of string  (** threshold T refusal *)

  val create :
    instantiated:bool ->
    threshold:int ->
    Pool.t ->
    Db_schema.t ->
    compiled_cind list ->
    t

  val step : ?budget:Guard.t -> t -> rng:Rng.t -> Template.t -> step_result
  (** Find and apply the next IND operation under the canonical schedule.
      Polls [budget]'s deadline per CIND visited. *)

  val note_subst :
    t -> before:Template.t -> after:Template.t -> Template.delta -> unit
  (** Tell the cursor the template was rewritten by a substitution, with
      the exact change set: rewritten tuples are re-enqueued and the
      witness index is maintained. *)
end

(** {1 Full chase} *)

val run :
  ?instantiated:bool ->
  ?budget:Guard.t ->
  config:config ->
  rng:Rng.t ->
  Db_schema.t ->
  compiled ->
  Template.t ->
  outcome
(** Run the chase to termination.  [instantiated:true] gives chase_I.
    [config.max_steps] is enforced as local step fuel; [budget] carries
    the caller's shared deadline/fuel. *)

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
