open Conddep_relational

(** First-order readings of conditional dependencies.

    As the paper remarks, CINDs are tuple-generating dependencies with
    constants and CFDs are equality-generating dependencies with constants.
    This module renders both as explicit FO sentences, for documentation
    and interoperability.  The test suite evaluates them over databases
    and checks that they agree with the native {!Cind.holds}/{!Cfd.holds}. *)

type term =
  | Var of string
  | Const of Value.t

type atom =
  | Rel of string * term list
  | Eq of term * term

type formula =
  | Forall of string list * formula
  | Exists of string list * formula
  | Implies of formula * formula
  | And of formula list
  | Atom of atom

val cind_to_formula : Db_schema.t -> Cind.nf -> formula
(** The TGD-with-constants of a normal-form CIND. *)

val cfd_to_formula : Db_schema.t -> Cfd.nf -> formula
(** The EGD-with-constants of a normal-form CFD. *)

val pp : formula Fmt.t
val pp_atom : atom Fmt.t
val pp_term : term Fmt.t
