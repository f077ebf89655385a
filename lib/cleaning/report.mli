open Conddep_relational
open Conddep_core

(** Human-readable cleaning reports. *)

type t = {
  total_tuples : int;
  violations : Violation.t list;
}

val build : Database.t -> Sigma.nf -> t
val count : t -> int

val by_constraint : t -> (string * Violation.t list) list
(** Violations grouped per constraint name, sorted. *)

val pp : t Fmt.t
