open Conddep_relational

(** Constructive completeness of CIND1–CIND6 (Theorem 3.5): for CINDs over
    infinite-domain attributes, turn a positive implication decision into
    an explicit, machine-checkable proof in the inference system {!Inference}.

    The path {!Implication.witness_path} finds — Σ applications from the
    generic trigger shape to a witness shape — is replayed rule by rule:
    reflexivity and CIND4 set up the trigger, each path step is massaged
    with CIND2/CIND4/CIND5 and composed with CIND3, and the goal is
    recovered with CIND2/CIND6. *)

exception Finite_domain of { rel : string; attr : string }
(** Relation [rel] has the finite-domain attribute [attr]: CIND1–CIND6
    proofs need infinite domains (Thm 3.5), and CIND7/CIND8 are not
    searched. *)

val derive :
  ?max_states:int ->
  Db_schema.t ->
  sigma:Cind.nf list ->
  Cind.nf ->
  Inference.proof option
(** [derive schema ~sigma psi] is [Some proof] with
    [Inference.proves schema ~sigma proof psi = Ok _] iff [sigma |= psi],
    and [None] otherwise.

    The path search ({!Implication.witness_path}) ticks the ambient budget
    once per new shape and polls it, without spending fuel, per revisited
    one.

    @raise Finite_domain when [psi] or a member of [sigma] names a relation
    with a finite-domain attribute (the first such relation, in that order).
    @raise Implication.Budget_exceeded past [max_states] explored shapes
    (default 50,000).
    @raise Guard.Exhausted when the ambient budget runs out. *)
