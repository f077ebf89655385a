open Conddep_relational

(** Conditional inclusion dependencies (CINDs) — the paper's contribution
    (Section 2).

    A CIND [ψ = (R1\[X; Xp\] ⊆ R2\[Y; Yp\], Tp)] extends the standard IND
    [R1\[X\] ⊆ R2\[Y\]] with a pattern tableau [Tp] over [X ∪ Xp ∪ Y ∪ Yp].
    For every tuple [t1] of [R1] and pattern row [tp], if
    [t1\[X, Xp\] ≍ tp\[X, Xp\]] then some [t2] of [R2] must satisfy
    [t1\[X\] = t2\[Y\]] and [t2\[Yp\] ≍ tp\[Yp\]].  Standard INDs are the
    special case with empty [Xp]/[Yp] and an all-wildcard row. *)

type row = {
  cx : Pattern.cell list;  (** over X; well-formedness requires [cx = cy] *)
  cxp : Pattern.cell list;  (** over Xp *)
  cy : Pattern.cell list;  (** over Y *)
  cyp : Pattern.cell list;  (** over Yp *)
}

type t = {
  name : string;
  lhs : string;
  rhs : string;
  x : string list;
  xp : string list;
  y : string list;
  yp : string list;
  rows : row list;
}

(** Normal form (Section 3): a single pattern tuple with constants exactly
    on the pattern attributes, represented as attribute/constant bindings. *)
type nf = {
  nf_name : string;
  nf_lhs : string;
  nf_rhs : string;
  nf_x : string list;
  nf_y : string list;
  nf_xp : (string * Value.t) list;
  nf_yp : (string * Value.t) list;
}

val make :
  name:string ->
  lhs:string ->
  rhs:string ->
  x:string list ->
  xp:string list ->
  y:string list ->
  yp:string list ->
  row list ->
  t

val validate : Db_schema.t -> t -> (unit, string) result
(** Well-formedness per Section 2: relations and attributes exist, [X]/[Xp]
    (resp. [Y]/[Yp]) duplicate-free and disjoint, [|X| = |Y|],
    [dom(Ai) ⊆ dom(Bi)], row arities correct, [tp\[X\] = tp\[Y\]], and all
    constants lie within their attribute domains. *)

val validate_nf : Db_schema.t -> nf -> (unit, string) result

val normalize : t -> nf list
(** Proposition 3.1: an equivalent set of normal-form CINDs, linear in the
    size of the input. *)

val nf_to_cind : nf -> t

(** {1 Satisfaction}

    One check, {!nf_violations}, from which the others derive. *)

val nf_violations : Database.t -> nf -> Tuple.t list
(** The LHS tuples that carry [tp\[Xp\]] but have no RHS partner,
    ascending: a hash index on the RHS tuples carrying [tp\[Yp\]], one
    probe per triggering LHS tuple, O(|R1| + |R2|); when R2 holds at most
    {!Cfd.direct_max} tuples a probe compares with them directly.  Counts
    [detect.fast.tuples_scanned], [detect.fast.index_probes] and
    [detect.fast.violations]. *)

val nf_holds : Database.t -> nf -> bool

val violations : Database.t -> t -> (row * Tuple.t) list
(** LHS tuples that trigger a pattern row but have no RHS witness: each
    row's {!nf_violations} through {!normalize}, in row order. *)

val holds : Database.t -> t -> bool
(** [(I1, I2) |= ψ]. *)

val canon_nf : nf -> nf
(** Canonical form: [nf_xp]/[nf_yp] bindings sorted by attribute name.
    Pattern portions are order-insensitive (rule CIND2 permutes them), so
    comparing canonical forms quotients out those permutations. *)

val nf_equal : nf -> nf -> bool
(** Syntactic equality up to the name (binding order significant; compare
    {!canon_nf} images for order-insensitive equality). *)

val nf_constants : nf -> (string * string * Value.t) list
(** Pattern constants as [(relation, attribute, value)] triples. *)

val pp : t Fmt.t
val pp_nf : nf Fmt.t
val pp_row : row Fmt.t
