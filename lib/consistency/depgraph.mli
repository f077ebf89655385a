open Conddep_relational
open Conddep_core
open Conddep_chase

(** The dependency graph G\[Σ\] of Section 5.3 on relation positions
    ({!Db_schema.find_indexed}): vertices are relations, carrying their
    CFD sets; edges carry the CIND sets between relations.  Σ is resolved
    against the schema once, by {!make}; a constraint is compiled for the
    chase the first time the chase needs it, then kept.  Mutated in place
    by preProcessing.

    Vertices and components follow schema declaration order (positions
    follow name order, which differs past 10 relations), successors,
    predecessors and an edge's CINDs follow Σ. *)

type t

val make : Db_schema.t -> Sigma.nf -> t

val live : t -> int list
(** Vertices not yet deleted. *)

val is_live : t -> int -> bool
val remove : t -> int -> unit

val cfds : t -> int -> Cfd.nf list
(** The current CFD(R): the CIND(Rj, R)⊥ pushed to it first, newest push
    first, then Σ's CFDs on R in Σ order. *)

val compiled_cfds : t -> int -> Chase.compiled_cfd list
(** {!cfds}, compiled. *)

val push_cfds : t -> int -> Cfd.nf list -> unit
(** Extend CFD(R), e.g. with the non-triggering CFDs CIND(Rj, R)⊥. *)

val triggers : t -> int -> Template.tuple -> bool
(** Whether a template tuple of R, its finite-domain fields concrete,
    triggers a CIND of Σ out of R, into a live relation or not
    (variables denote fresh values and match no constant). *)

val predecessors : t -> int -> (int * Cind.nf list) list
(** The live predecessors Rj of R, each with its edge label CIND(Rj, R). *)

val sccs : t -> int list list
(** Tarjan's strongly connected components of the live graph, emitted
    targets-first (reverse topological order of the condensation). *)

type component = {
  members : string list;  (** the relations, in schema order *)
  compiled : Chase.compiled;
      (** their extended CFD sets, then the CINDs between them, in Σ
          order *)
  avoid : Value.t list;  (** the constants fresh values avoid, sorted *)
}

val components : t -> avoid:Value.t list -> component list
(** The live graph's weakly connected components, in schema order of
    their first member — the units Checking analyses separately.  A
    component's [avoid] is [avoid] (Σ's constants) with the constants of
    the CFDs pushed to its members. *)
