open Conddep_relational
open Conddep_core
open Conddep_chase
open Conddep_consistency

(* Facade only: every function below is a mapping from an underlying
   result type onto the uniform three-valued [verdict], plus plumbing of
   the uniform option set.  No decision logic lives here. *)

type verdict = Yes of Database.t option | No | Unknown of Guard.reason

let to_bool = function Yes _ -> true | No | Unknown _ -> false

let pp_verdict ppf = function
  | Yes _ -> Fmt.string ppf "yes"
  | No -> Fmt.string ppf "no"
  | Unknown r -> Fmt.pf ppf "unknown (%s)" (Guard.reason_to_string r)

type backend = Cfd_checking.backend = Chase_backend | Sat_backend

let check ?backend ?config ?k ?k_cfd ~rng schema sigma =
  match Checking.check ?backend ?config ?k ?k_cfd ~rng schema sigma with
  | Checking.Consistent db -> Yes (Some db)
  | Checking.Inconsistent -> No
  | Checking.Unknown r -> Unknown r

let random_check ?config ?k ?k_cfd ~rng schema sigma =
  match Random_checking.check ?config ?k ?k_cfd ~rng schema sigma with
  | Random_checking.Consistent db -> Yes (Some db)
  | Random_checking.Unknown r -> Unknown r

(* A [consistent_rel] tuple is a single-relation witness; realise it as a
   database so [Yes] carries the same payload everywhere (remaining
   infinite-domain variables instantiate to fresh values). *)
let tuple_witness schema ~rel tup =
  Template.to_database
    (Template.add_at (Template.empty schema) (snd (Db_schema.find_indexed schema rel)) tup)

let consistent ?(backend = Chase_backend) ?k_cfd ~rng schema cfds ~rel =
  match Cfd_checking.consistent_rel ~backend ?k_cfd ~rng schema cfds ~rel with
  | Cfd_checking.Tuple tup -> Yes (Some (tuple_witness schema ~rel tup))
  | Cfd_checking.No_tuple -> No
  | Cfd_checking.Gave_up ->
      (* The chase backend's failure to find a witness within K_CFD
         valuations proves nothing (Fig 10a's accuracy gap).  Definitive
         chase refutations arrive as [No_tuple], exactly like the
         complete SAT backend's Unsat — only genuine heuristic
         exhaustion lands here. *)
      Unknown Guard.Fuel
  | exception Guard.Exhausted r -> Unknown r

let of_outcome = function
  | Implication.Implied -> Yes None
  | Implication.Not_implied -> No
  | Implication.Undetermined r -> Unknown r

let implies ?max_states schema ~sigma psi =
  of_outcome (Implication.decide ?max_states schema ~sigma psi)

let implies_many ?max_states schema ~sigma goals =
  List.map of_outcome (Implication.implies_many ?max_states schema ~sigma goals)

let preprocess ?backend ?k_cfd ~rng schema sigma =
  match Preprocessing.run ?backend ?k_cfd ~rng schema sigma with
  | Preprocessing.Consistent db -> Yes (Some db)
  | Preprocessing.Inconsistent -> No
  | Preprocessing.Unknown _components -> Unknown Guard.Fuel
  | exception Guard.Exhausted r -> Unknown r
