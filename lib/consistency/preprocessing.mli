open Conddep_relational
open Conddep_core
open Conddep_chase

(** Algorithm preProcessing (Fig 7): dependency-graph reduction for the
    consistency analysis of CFDs and CINDs. *)

type result =
  | Consistent of Database.t
      (** a one-tuple witness database was found (Fig 7 returns 1) *)
  | Inconsistent  (** the graph emptied: every relation is forced empty *)
  | Unknown of (string list * Sigma.nf) list
      (** the reduced graph's weakly connected components, each with its
          extended constraint set, for RandomChecking to examine *)

val run :
  ?backend:Cfd_checking.backend ->
  ?k_cfd:int ->
  rng:Rng.t ->
  Db_schema.t ->
  Sigma.nf ->
  result
(** @raise Guard.Exhausted when the ambient budget runs dry
    mid-reduction. *)

val non_triggering : Db_schema.t -> Cind.nf -> Cfd.nf list
(** The paper's CIND(Rj, R)⊥: a pair of CFDs denying every tuple of Rj
    that matches ψ's Xp pattern. *)

val tuple_triggers : Db_schema.t -> Cind.nf -> Template.tuple -> bool
(** Whether a template tuple whose finite-domain fields are concrete
    triggers ψ (variables denote fresh values and match no constant). *)
