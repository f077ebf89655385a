open Conddep_relational
open Conddep_core

(** Violation detection — the data-cleaning application of Example 1.2,
    analogous to the SQL detection queries of Bohannon et al. [9].

    The violations of Σ, from the core's hash-grouped satisfaction scans
    {!Cfd.nf_violations} and {!Cind.nf_violations}: each constraint costs
    O(|R| + output).  Results come out in the order of the pair-scan
    specification, checked list for list against a pairwise oracle in the
    test suite. *)

val detect : Database.t -> Sigma.nf -> Violation.t list
(** All violations of Σ: each CFD's in Σ order, then each CIND's. *)

val is_clean : Database.t -> Sigma.nf -> bool
(** [Sigma.nf_holds]: no violation is built. *)
