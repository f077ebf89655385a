open Conddep_relational

(** Exact CFD implication (coNP-complete, Table 1).

    [Σ ⊭ φ] iff a two-tuple instance of φ's relation satisfies Σ and
    violates φ (CFD satisfaction is closed under sub-instances); the
    procedure asks the CDCL core for such a pair, encoded as two copies
    of {!Cfd_consistency}'s single-tuple CNF. *)

val decide : Db_schema.t -> sigma:Cfd.nf list -> Cfd.nf -> Implication.outcome
(** [decide schema ~sigma phi] decides [sigma |= phi], three-valued.
    Never raises on resource exhaustion: a dry ambient budget yields
    [Undetermined r]; without one the answer is always decided. *)
