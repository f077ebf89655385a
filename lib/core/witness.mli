open Conddep_relational

(** Theorem 3.2: every set of CINDs is consistent.

    [database schema sigma] builds a nonempty instance satisfying [sigma]
    by the paper's cross-product construction over active domains. *)

exception Too_large of int
(** Raised when the witness would exceed [max_tuples]; carries the size. *)

val database :
  ?max_tuples:int -> Db_schema.t -> Cind.nf list -> Database.t
(** The cross-product witness.  Always satisfies [sigma] and is nonempty.
    @raise Too_large when its size exceeds [max_tuples] (default 100,000). *)
