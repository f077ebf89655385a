open Conddep_relational
open Conddep_core

(** Violation detection — the data-cleaning application of Example 1.2,
    analogous to the SQL detection queries of Bohannon et al. [9].

    CFDs are detected by grouping on the X-projection, CINDs by a hash
    index on the pattern-restricted RHS projection (one lookup per LHS
    tuple): each constraint costs O(|R| + output).  Results come out in
    the order of the pair-scan specification, checked list for list
    against a pairwise oracle in the test suite. *)

val cfd_violations : Database.t -> Cfd.nf -> (Tuple.t * Tuple.t) list
(** The pairs [(t1, t2)] (possibly [t1 == t2]) that violate the CFD, by
    ascending [t1], then ascending [t2] — exactly {!Cfd.nf_violations}. *)

val cind_violations : Database.t -> Cind.nf -> Tuple.t list
(** The triggering LHS tuples with no RHS partner, ascending. *)

val detect : Database.t -> Sigma.nf -> Violation.t list
(** All violations of Σ: each CFD's in Σ order, then each CIND's. *)

val is_clean : Database.t -> Sigma.nf -> bool
