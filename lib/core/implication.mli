open Conddep_relational

(** Exact decision procedure for CIND implication [Σ |= ψ]
    (Theorems 3.4 and 3.5).

    The decision is semantic: a counterexample model is sought as a
    witness-free set of abstract tuple shapes closed under Σ's inclusion
    requirements, computed as a greatest fixpoint over the reachable shape
    space.  Free finite-domain fields of created tuples are chosen
    adversarially (AND–OR alternation — the source of EXPTIME-hardness);
    without finite-domain attributes the analysis degenerates into plain
    reachability, matching the PSPACE bound of Theorem 3.5.

    The reachable shapes are explored breadth-first; the greatest
    fixpoint is then computed by counting (Liu & Smolka, ICALP 1998):
    each shape dies at most once and each requirement bucket empties at
    most once, so the fixpoint costs O(shapes × |Σ|), linear in the shape
    graph.  The procedure is exact but worst-case exponential, because
    the shape space is; the [max_states] cap bounds the search. *)

exception Budget_exceeded
(** The shape space exceeded [max_states]; the answer is unknown. *)

type outcome = Implied | Not_implied | Undetermined of Guard.reason
(** The three-valued answer: the exact procedure either decides, or gives
    up for a stated reason ([Guard.Fuel] for its own [max_states] cap;
    the budget's reason when the ambient budget ran out). *)

val pp_outcome : Format.formatter -> outcome -> unit

val decide :
  ?max_states:int ->
  Db_schema.t ->
  sigma:Cind.nf list ->
  Cind.nf ->
  outcome
(** [decide schema ~sigma psi] decides [sigma |= psi] (Theorems 3.4/3.5).
    Inputs are assumed validated against [schema].  Never raises on
    resource exhaustion: past [max_states] explored shapes (default
    50,000) the answer is [Undetermined Guard.Fuel], and a dry ambient
    budget yields [Undetermined r].  Drivers should prefer the [Cind_api]
    facade. *)

type compiled
(** A member of Σ pre-compiled against a schema: the per-call work of
    {!decide} that does not depend on the goal.  Valid for the schema it
    was compiled against. *)

val compile : Db_schema.t -> Cind.nf -> compiled
(** Compile one already-canonicalised ({!Cind.canon_nf}) member of Σ.
    Callers that re-ask implication against a stable Σ (the incremental
    session) compile once and reuse via {!decide_compiled}. *)

val decide_compiled :
  ?max_states:int ->
  ?recorder:Read_set.t ->
  Db_schema.t ->
  compiled list ->
  Cind.nf ->
  outcome
(** {!decide} against a pre-compiled Σ.  Outcome is identical to
    [decide schema ~sigma psi] for the Σ the list was compiled from,
    regardless of list order.  A [recorder] collects the CINDs found
    applicable and the relations whose shapes were explored (see
    {!Read_set}). *)

val decide_infinite :
  ?max_states:int ->
  Db_schema.t ->
  sigma:Cind.nf list ->
  Cind.nf ->
  outcome
(** {!decide}, restricted to the finite-domain-free setting of Theorem
    3.5 (where rules CIND1–CIND6 are complete).
    @raise Invalid_argument if any involved relation has a finite-domain
    attribute. *)

val implies_many :
  ?max_states:int ->
  Db_schema.t ->
  sigma:Cind.nf list ->
  Cind.nf list ->
  outcome list
(** Batch {!decide} over many goals against one Σ.  The batch
    canonicalises and compiles Σ exactly once (the genuinely shared half
    of each call), then runs the per-goal searches one after another.
    The procedure is rng-free, so outcome i is identical to
    [decide schema ~sigma (List.nth goals i)]. *)
