open Conddep_relational
open Conddep_core

(** Random constraint workloads (Section 6).

    Two families, as in the paper: {e consistent} sets — satisfied by a
    hidden witness tuple per relation, one shared value per attribute name —
    and {e random} sets whose constants may conflict.  Plus the harder
    {e needle} CFD family used by the Fig 10(b) accuracy sweep, and a
    dirty-database generator for the cleaning examples. *)

type config = {
  num_constraints : int;
  cfd_fraction : float;  (** CFD share of Σ (the paper uses 0.75) *)
  consts_per_attr : int;  (** constant-pool size per infinite attribute *)
  max_lhs : int;  (** maximum |X| *)
  max_pattern : int;  (** maximum |Xp| / |Yp| *)
}

val default : config

val witness_value : Attribute.t -> Value.t
(** The hidden witness value of an attribute (shared across relations). *)

val const_pool : config -> Attribute.t -> Value.t list
(** Pattern constants available on an attribute; includes the witness. *)

val consistent : Rng.t -> config -> Db_schema.t -> Sigma.nf
(** A consistent constraint set: {!witness_db} satisfies it by
    construction (property-tested). *)

val random : Rng.t -> config -> Db_schema.t -> Sigma.nf
(** An unconstrained random set; may be inconsistent. *)

val witness_db : Db_schema.t -> Database.t
(** The one-tuple-per-relation database the consistent generator
    guarantees. *)

val cfds_only : Rng.t -> config -> Db_schema.t -> consistent:bool -> Sigma.nf
(** CFD-only workloads for the Fig 10 experiments. *)

val needle_cfds : Rng.t -> Db_schema.t -> Sigma.nf
(** Hard CFD sets for Fig 10(b): per relation, (almost) a single satisfying
    assignment of the finite-domain attributes exists, so bounded-K random
    valuation search fails with probability ≈ (1 - p)^K. *)

val planted_3sat : Rng.t -> n:int -> Db_schema.t * Sigma.nf
(** Planted 3-SAT as CFDs: one relation [r] of [n] boolean attributes
    and round(4.3 n) CFDs [r(ax, ay -> az) with (¬lx, ¬ly || lz)], one per
    random 3-clause [lx ∨ ly ∨ lz] over literals "attribute = value",
    each redrawn until a hidden assignment satisfies it.  Consistent by
    construction; near the phase transition the chase backend's K_CFD
    random valuations rarely find the model. *)

val dirty_database :
  Rng.t -> Db_schema.t -> tuples_per_rel:int -> error_rate:float -> Database.t
(** Clean-ish rows with a fraction of corrupted fields, for the cleaning
    examples. *)

val gen_cfd : Rng.t -> config -> Db_schema.t -> consistent:bool -> int -> Cfd.nf
val gen_cind : Rng.t -> config -> Db_schema.t -> consistent:bool -> int -> Cind.nf
