open Conddep_relational

(** The inference system [I] for CINDs (Fig 3), sound and complete for
    implication (Theorem 3.3); rules CIND1–CIND6 alone are sound and
    complete in the absence of finite-domain attributes (Theorem 3.5).

    Proofs are explicit objects checked line by line, so soundness can be
    validated mechanically (and is, by the property tests).  CINDs are kept
    in canonical normal form, quotienting out the Xp/Yp permutations of
    rule CIND2; the CIND7/CIND8 families identify their distinguished
    attribute by name for the same reason. *)

type premise = int
(** 0-based index of an earlier proof line. *)

type rule =
  | Reflexivity of { rel : string; x : string list }
      (** CIND1: [(R\[X; nil\] ⊆ R\[X; nil\])] with an all-wildcard pattern. *)
  | Proj_perm of { prem : premise; indices : int list }
      (** CIND2: project/permute the X/Y portion onto the given distinct
          positions of the premise's X. *)
  | Transitivity of { first : premise; second : premise }
      (** CIND3: compose when the first's [(Y; Yp)] equals the second's
          [(X; Xp)], patterns included. *)
  | Instantiate of { prem : premise; attr : string; value : Value.t }
      (** CIND4: move [Aj ∈ X] (and its counterpart [Bj]) into the pattern
          portions, bound to [value]. *)
  | Augment of { prem : premise; attr : string; value : Value.t }
      (** CIND5: extend [Xp] with a fresh attribute bound to any constant. *)
  | Reduce of { prem : premise; keep_yp : string list }
      (** CIND6: restrict [Yp] to a subset. *)
  | Finite_drop of { prems : premise list; attr : string }
      (** CIND7: merge a family differing only in the [Xp]-constant of a
          finite-domain attribute whose bindings cover its domain. *)
  | Finite_restore of { prems : premise list; attr_a : string; attr_b : string }
      (** CIND8: the inverse of CIND4 over a domain-covering family with
          [ti\[A\] = ti\[B\]]; restores [A]/[B] into [X]/[Y]. *)

type line =
  | Axiom of Cind.nf  (** must occur in Σ (up to canonical form) *)
  | Infer of rule

type proof = line list

val rule_name : rule -> string

val apply : Db_schema.t -> (premise -> Cind.nf option) -> rule -> (Cind.nf, string) result
(** Apply one rule; [prior i] is the conclusion of line [i], [None] unless
    [i] is an earlier line.  The result is canonicalized and re-validated. *)

val check : Db_schema.t -> sigma:Cind.nf list -> proof -> (Cind.nf array, string) result
(** Check a whole proof; returns the conclusions of every line. *)

val proves :
  Db_schema.t -> sigma:Cind.nf list -> proof -> Cind.nf -> (Cind.nf array, string) result
(** [check], plus the requirement that the last line concludes the goal. *)

val pp_rule : rule Fmt.t
val pp_line : line Fmt.t
val pp_proof : proof Fmt.t
