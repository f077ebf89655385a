open Conddep_relational

(** Exact consistency analysis for sets of CFDs.

    Consistency of CFDs reduces to single-tuple satisfiability (CFD
    satisfaction is preserved under sub-instances), decided here by
    backtracking search with unit propagation over per-attribute candidate
    values.  NP-complete with finite-domain attributes; the ground truth
    for the accuracy experiments of Fig 10. *)

exception Budget_exceeded

val candidates : fresh:int -> Cfd.nf list -> Schema.t -> Value.t list array
(** Per attribute of the relation, the values the search tries: the whole
    domain when finite, otherwise the constants the CFDs name on the
    attribute plus [fresh] fresh values.  It and {!compile} serve
    {!Cfd_implication}'s search too. *)

type compiled = { k_tx : (int * Pattern.cell) list; k_a : int; k_ta : Pattern.cell }
(** A normal-form CFD with positions for attribute names. *)

val compile : Schema.t -> Cfd.nf -> compiled

val witness_tuple :
  ?max_nodes:int -> Db_schema.t -> rel:string -> Cfd.nf list -> Tuple.t option
(** A single tuple over [rel] satisfying all CFDs of Σ on [rel], if any
    ([Some t] iff {b CFD(rel)} is consistent).
    @raise Budget_exceeded past [max_nodes] search nodes (default 2e6).
    @raise Guard.Exhausted when the ambient budget runs dry mid-search. *)

val consistent_rel :
  ?max_nodes:int -> Db_schema.t -> rel:string -> Cfd.nf list -> bool
(** Whether the CFDs of Σ on [rel] admit a nonempty instance of [rel]. *)

val consistent : ?max_nodes:int -> Db_schema.t -> Cfd.nf list -> bool
(** Whether a CFD-only Σ admits a nonempty database: some relation's CFD
    set must be consistent (empty relations satisfy CFDs vacuously). *)
