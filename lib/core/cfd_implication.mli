open Conddep_relational

(** Exact CFD implication (coNP-complete, Table 1).

    [Σ ⊭ φ] iff a two-tuple instance of φ's relation satisfies Σ and
    violates φ (CFD satisfaction is closed under sub-instances); the
    procedure searches for such a pair. *)

val decide :
  ?max_nodes:int ->
  Db_schema.t ->
  sigma:Cfd.nf list ->
  Cfd.nf ->
  Implication.outcome
(** [decide schema ~sigma phi] decides [sigma |= phi], three-valued.
    Never raises on resource exhaustion: past [max_nodes] search nodes
    (default 4e6) the answer is [Undetermined Guard.Fuel], and a dry
    ambient budget yields [Undetermined r]. *)
