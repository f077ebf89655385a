open Conddep_relational
open Conddep_core
open Conddep_chase

(** Procedure CFD_Checking (Sections 5.2–5.3), in its two implementations
    compared in Fig 10(a): chase-based (heuristic, bounded by K_CFD random
    valuations of finite-domain variables) and SAT-based (complete, via the
    CDCL solver standing in for SAT4j).  There is no fallback between
    them: a SAT run cut short by the ambient budget surfaces as that
    exhaustion. *)

type backend =
  | Chase_backend
  | Sat_backend

val check_template :
  ?k_cfd:int ->
  ?avoid:Value.t list ->
  rng:Rng.t ->
  Chase.compiled_cfd list ->
  Template.t ->
  Template.t option
(** Chase a template with CFDs only, then try up to [k_cfd] random
    valuations of the remaining finite-domain variables; returns a template
    whose finite-domain variables are all constants, if one is found.
    @raise Guard.Exhausted when the ambient budget runs dry. *)

val consistent_rel_sat :
  ?avoid:Value.t list -> Db_schema.t -> Cfd.nf list -> rel:string -> Tuple.t option
(** Complete single-tuple consistency via CNF encoding; a satisfying tuple
    or [None].  Each attribute's candidates are the constants CFD(rel)
    names on it plus one unnamed value, which dodges the [avoid]
    constants where its domain allows.
    @raise Guard.Exhausted if the solver answers [Unknown]: [None] is a
    definitive verdict here and is never used for undetermined answers. *)

type witness =
  | Tuple of Template.tuple  (** A satisfying single tuple. *)
  | No_tuple
      (** Definitely no satisfying tuple: Unsat from the SAT backend, or
          a forced-propagation contradiction from the chase backend. *)
  | Gave_up
      (** The chase backend's K_CFD heuristic ran out; undetermined. *)

val consistent_rel :
  ?backend:backend ->
  ?avoid:Value.t list ->
  ?k_cfd:int ->
  rng:Rng.t ->
  Db_schema.t ->
  Cfd.nf list ->
  rel:string ->
  witness
(** Uniform front-end: the tuple template τ(rel), its finite-domain
    fields concrete, satisfying CFD(rel), a definitive [No_tuple], or
    [Gave_up] (chase backend only — the SAT backend is complete).
    @raise Guard.Exhausted when the ambient budget runs dry — inside the
    SAT backend too, which never falls back to the chase backend. *)
