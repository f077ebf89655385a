open Conddep_relational

(** Conditional functional dependencies (CFDs), after Bohannon et al. [9]
    and Section 4 of the paper.

    A CFD [(R : X -> Y, Tp)] refines the standard FD [X -> Y] with a pattern
    tableau [Tp] over [X ∪ Y]: for any pair of tuples agreeing on [X] and
    matching a row's [X]-pattern, the tuples must agree on [Y] and match the
    row's [Y]-pattern.  A single tuple can violate a CFD (when the row binds
    a constant on [Y]). *)

type row = { rx : Pattern.cell list; ry : Pattern.cell list }

type t = {
  name : string;
  rel : string;
  x : string list;
  y : string list;
  rows : row list;
}

(** Normal form: single pattern row, single right-hand-side attribute
    [(R : X -> A, tp)]. *)
type nf = {
  nf_name : string;
  nf_rel : string;
  nf_x : string list;
  nf_a : string;
  nf_tx : Pattern.cell list;
  nf_ta : Pattern.cell;
}

val make :
  name:string -> rel:string -> x:string list -> y:string list -> row list -> t

val validate : Db_schema.t -> t -> (unit, string) result
(** Well-formedness: relation and attributes exist, X/Y duplicate-free,
    row arities match, constants lie in their attribute domains. *)

val normalize : t -> nf list
(** The equivalent set of normal-form CFDs (one per row and Y-attribute). *)

val nf_to_cfd : nf -> t

(** {1 Satisfaction}

    One check, {!nf_violations}, from which the others derive. *)

val nf_violations : Database.t -> nf -> (Tuple.t * Tuple.t) list
(** The ordered pairs [(t1, t2)] (possibly [t1 == t2]) that violate the
    CFD, by ascending [t1], then ascending [t2]: a hash grouping by the
    X-projection, in O(|R| + output).  Counts
    [detect.fast.tuples_scanned] and [detect.fast.violations]. *)

val nf_holds : Database.t -> nf -> bool

val violations : Database.t -> t -> (nf * (Tuple.t * Tuple.t)) list
(** All violating tuple pairs, tagged with the violated normal-form CFD;
    single-tuple violations appear as pairs [(t, t)]. *)

val holds : Database.t -> t -> bool
(** [D |= φ]. *)

val nf_equal : nf -> nf -> bool
(** Syntactic equality up to the name. *)

val nf_constants : nf -> (string * Value.t) list
(** Pattern constants paired with their attribute. *)

val pp : t Fmt.t
val pp_nf : nf Fmt.t
val pp_row : row Fmt.t
