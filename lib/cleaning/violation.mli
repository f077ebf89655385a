open Conddep_relational
open Conddep_core

(** A CFD/CIND violation found in a database (the data-cleaning application
    of Example 1.2), with enough provenance to explain and repair it. *)

type t =
  | Cfd_violation of {
      constraint_name : string;
      rel : string;
      nf : Cfd.nf;
      t1 : Tuple.t;
      t2 : Tuple.t;  (** equal to [t1] for single-tuple violations *)
    }
  | Cind_violation of {
      constraint_name : string;
      lhs : string;
      rhs : string;
      nf : Cind.nf;
      tuple : Tuple.t;  (** LHS tuple lacking a witness *)
    }

val constraint_name : t -> string

val pp : t Fmt.t
