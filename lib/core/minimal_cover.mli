open Conddep_relational

(** Minimal covers of constraint sets (the paper's Section 8 outlook):
    greedy removal of constraints implied by the remainder.  CIND
    implication tests are capped at 20,000 shapes, so they degrade
    gracefully (a test that hits its cap keeps the constraint); CFD
    implication always decides. *)

val cind_cover : Db_schema.t -> Cind.nf list -> Cind.nf list
(** Equivalent subset of the given CINDs with implied members removed. *)

val cfd_cover : Db_schema.t -> Cfd.nf list -> Cfd.nf list
(** Equivalent subset of the given CFDs with implied members removed. *)

val dedup_cinds : Cind.nf list -> Cind.nf list
(** Drop syntactic duplicates (canonical-form equality). *)

val dedup_cfds : Cfd.nf list -> Cfd.nf list
