open Conddep_relational
open Conddep_core
open Conddep_consistency
open Conddep_generator
open Helpers

(* Property-based tests over randomly generated schemas and workloads:
   the generator's guarantees, Theorem 3.2, Theorem 5.1 soundness,
   differential tests between the exact and heuristic procedures, and
   budget cuts that never change a verdict. *)

(* A generated (schema, Σ) pair driven by a single seed, so shrinking works
   on the seed.  Small configurations keep the exact procedures fast. *)
let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let small_schema_config =
  {
    Schema_gen.num_relations = 4;
    min_arity = 2;
    max_arity = 4;
    finite_ratio = 0.3;
    finite_dom_min = 2;
    finite_dom_max = 4;
  }

let small_workload_config = { Workload.default with num_constraints = 12 }

let make_workload ~consistent seed =
  let rng = Rng.make seed in
  let schema = Schema_gen.generate rng small_schema_config in
  let sigma =
    if consistent then Workload.consistent rng small_workload_config schema
    else Workload.random rng small_workload_config schema
  in
  (schema, sigma)

(* --- generator guarantees -------------------------------------------------- *)

let prop_consistent_sets_have_witness seed =
  let schema, sigma = make_workload ~consistent:true seed in
  let db = Workload.witness_db schema in
  Sigma.nf_holds db sigma

let prop_generated_constraints_validate seed =
  let schema, sigma = make_workload ~consistent:false seed in
  match Sigma.validate schema (Sigma.of_nf sigma) with Ok () -> true | Error _ -> false

(* --- Theorem 3.2: CIND-only sets are always consistent --------------------- *)

let prop_cind_witness_construction seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let cinds = sigma.Sigma.ncinds in
  match Witness.database ~max_tuples:20_000 schema cinds with
  | db ->
      (not (Database.is_empty db)) && List.for_all (Cind.nf_holds db) cinds
  | exception Witness.Too_large _ -> QCheck.assume_fail ()

(* --- Theorem 5.1: heuristic soundness -------------------------------------- *)

let prop_random_checking_sound seed =
  let schema, sigma = make_workload ~consistent:false seed in
  match Random_checking.check ~k:5 ~rng:(Rng.make (seed + 1)) schema sigma with
  | Random_checking.Consistent db ->
      (not (Database.is_empty db)) && Sigma.nf_holds db sigma
  | Random_checking.Unknown _ -> true

let prop_checking_sound seed =
  let schema, sigma = make_workload ~consistent:false seed in
  match Checking.check ~k:5 ~rng:(Rng.make (seed + 1)) schema sigma with
  | Checking.Consistent db -> (not (Database.is_empty db)) && Sigma.nf_holds db sigma
  | Checking.Inconsistent | Checking.Unknown _ -> true

(* Checking should accept (almost) all generator-consistent sets; we assert
   full soundness and record acceptance as a hard property only for the
   witness-backed generator, mirroring the near-100% accuracy of Fig 11(a). *)
let prop_checking_accepts_consistent seed =
  let schema, sigma = make_workload ~consistent:true seed in
  match Checking.check ~k:20 ~rng:(Rng.make (seed + 1)) schema sigma with
  | Checking.Consistent db -> Sigma.nf_holds db sigma
  | Checking.Inconsistent -> false (* definitive answers must never be wrong *)
  | Checking.Unknown _ -> true (* incompleteness is allowed, unsoundness is not *)

(* Planted 3-SAT CFDs are consistent by construction, and near the phase
   transition the chase backend's K_CFD valuations mostly give up.  A
   give-up refutes nothing, so Checking must answer with a verified
   witness here, never Inconsistent, with either backend. *)
let prop_checking_accepts_planted seed =
  let n = List.nth [ 12; 20; 30 ] (seed mod 3) in
  let schema, sigma = Workload.planted_3sat (Rng.make seed) ~n in
  List.for_all
    (fun backend ->
      match
        Checking.check ~backend ~k:20 ~rng:(Rng.make (seed + 1)) schema sigma
      with
      | Checking.Consistent db -> Sigma.nf_holds db sigma
      | Checking.Inconsistent | Checking.Unknown _ -> false)
    [ Cfd_checking.Chase_backend; Cfd_checking.Sat_backend ]

(* --- differential: SAT backend vs the whole-domain search ------------------- *)

let prop_sat_matches_exact seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let cfds = sigma.Sigma.ncfds in
  List.for_all
    (fun rel ->
      let rel = Conddep_relational.Schema.name rel in
      let exact = Cfd_oracle.consistent_rel schema ~rel cfds in
      let sat = Cfd_checking.consistent_rel_sat schema cfds ~rel <> None in
      exact = sat)
    (Db_schema.relations schema)

(* Chase-based CFD_Checking is sound: a tuple implies exact consistency,
   a refutation exact inconsistency. *)
let prop_chase_cfd_checking_sound seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let cfds = sigma.Sigma.ncfds in
  List.for_all
    (fun rel ->
      let rel = Conddep_relational.Schema.name rel in
      match
        Cfd_checking.consistent_rel ~backend:Cfd_checking.Chase_backend ~k_cfd:20
          ~rng:(Rng.make (seed + 2)) schema cfds ~rel
      with
      | Cfd_checking.Tuple _ -> Cfd_oracle.consistent_rel schema ~rel cfds
      | Cfd_checking.No_tuple -> not (Cfd_oracle.consistent_rel schema ~rel cfds)
      | Cfd_checking.Gave_up -> true)
    (Db_schema.relations schema)

(* One relation of two to four attributes with finite domains of 3–12
   values, up to ten CFDs whose constants come from at most three named
   values per attribute, and an [avoid] list drawn from every domain.
   Many of these CFD sets are satisfied only by tuples that take a value no
   CFD names, which the SAT encoding represents by one value per
   attribute. *)
let named_values_case seed =
  let rng = Rng.make seed in
  let attr i =
    let size = 3 + Rng.int rng 10 in
    let values = List.init size (fun j -> Value.Str (Printf.sprintf "v%d" j)) in
    let m = 1 + Rng.int rng (min 3 (size - 1)) in
    let named = List.filteri (fun j _ -> j < m) (Rng.shuffle rng values) in
    (Printf.sprintf "a%d" i, values, named)
  in
  let attrs = List.init (2 + Rng.int rng 3) attr in
  let schema =
    Db_schema.make
      [
        Conddep_relational.Schema.make "r"
          (List.map (fun (a, vs, _) -> Attribute.make a (Domain.finite vs)) attrs);
      ]
  in
  let cell named =
    if Rng.chance rng 0.3 then Pattern.Wildcard else Pattern.Const (Rng.pick rng named)
  in
  let cfd k =
    let a, _, named_a = Rng.pick rng attrs in
    let x = List.filter (fun (b, _, _) -> b <> a && Rng.bool rng) attrs in
    let nf_tx = List.map (fun (_, _, named) -> cell named) x in
    let nf_ta = cell named_a in
    {
      Cfd.nf_name = Printf.sprintf "c%d" k;
      nf_rel = "r";
      nf_x = List.map (fun (b, _, _) -> b) x;
      nf_tx;
      nf_a = a;
      nf_ta;
    }
  in
  let cfds = List.init (2 + Rng.int rng 9) cfd in
  let avoid =
    List.concat_map (fun (_, vs, _) -> List.filter (fun _ -> Rng.chance rng 0.3) vs) attrs
  in
  (schema, cfds, avoid)

(* The SAT backend encodes only the named values and one representative
   per attribute; it must still answer exactly what backtracking over
   whole domains answers, with a tuple that satisfies CFD(R). *)
let prop_sat_named_values ~consistent ~inconsistent seed =
  let schema, cfds, avoid = named_values_case seed in
  let exact = Cfd_oracle.consistent_rel schema ~rel:"r" cfds in
  incr (if exact then consistent else inconsistent);
  match Cfd_checking.consistent_rel_sat ~avoid schema cfds ~rel:"r" with
  | None -> not exact
  | Some t ->
      let db = Database.add_tuple (Database.empty schema) "r" t in
      exact && List.for_all (Cfd.nf_holds db) cfds

let test_sat_named_values =
  let consistent = ref 0 and inconsistent = ref 0 in
  let name, speed, run =
    qtest ~count:300 "SAT over named values matches whole domains" seed_gen
      (prop_sat_named_values ~consistent ~inconsistent)
  in
  ( name,
    speed,
    fun () ->
      run ();
      Fmt.pr "named values: %d consistent, %d inconsistent@." !consistent !inconsistent;
      check_bool "both verdicts occur" true (!consistent > 0 && !inconsistent > 0) )

(* One relation of two to four attributes, each infinite (naming at most
   the constants k0 and k1) or finite with one to four values, and two to
   six CFDs over them.  The goals are a fresh CFD and every member of Σ
   against the rest. *)
let implication_case seed =
  let rng = Rng.make seed in
  let attr i =
    let values =
      if Rng.chance rng 0.3 then None
      else Some (List.init (1 + Rng.int rng 4) (fun j -> Value.Str (Printf.sprintf "v%d" j)))
    in
    (Printf.sprintf "a%d" i, values)
  in
  let attrs = List.init (2 + Rng.int rng 3) attr in
  let schema =
    Db_schema.make
      [
        Conddep_relational.Schema.make "r"
          (List.map
             (fun (a, values) ->
               Attribute.make a
                 (match values with Some vs -> Domain.finite vs | None -> Domain.string_inf))
             attrs);
      ]
  in
  let cell values =
    if Rng.bool rng then Pattern.Wildcard
    else Pattern.Const (Rng.pick rng (Option.value values ~default:[ Value.Str "k0"; Value.Str "k1" ]))
  in
  let cfd k =
    let a, values_a = Rng.pick rng attrs in
    let x = List.filter (fun (b, _) -> b <> a && Rng.bool rng) attrs in
    {
      Cfd.nf_name = Printf.sprintf "c%d" k;
      nf_rel = "r";
      nf_x = List.map fst x;
      nf_tx = List.map (fun (_, values) -> cell values) x;
      nf_a = a;
      nf_ta = cell values_a;
    }
  in
  let sigma = List.init (2 + Rng.int rng 5) cfd in
  let goals = (cfd 99, sigma) :: List.map (fun phi -> (phi, List.filter (( != ) phi) sigma)) sigma in
  (schema, attrs, goals)

(* The CNF decision answers exactly what enumerating every pair of tuples
   answers, and without a budget it always decides. *)
let prop_cfd_implication_matches_pairs ~seen seed =
  let schema, attrs, goals = implication_case seed in
  List.for_all
    (fun (phi, sigma) ->
      let named a =
        List.filter_map
          (fun (b, v) -> if b = a then Some v else None)
          (List.concat_map Cfd.nf_constants (phi :: sigma))
        |> List.sort_uniq Value.compare
      in
      List.iter
        (fun (a, values) ->
          Option.iter
            (fun vs ->
              let unnamed = List.length vs - List.length (named a) in
              let count = if unnamed >= 2 then "2+" else string_of_int unnamed in
              Hashtbl.replace seen (count ^ " unnamed") ())
            values)
        attrs;
      let expected = Cfd_oracle.implies schema ~sigma phi in
      let rhs = match phi.Cfd.nf_ta with Pattern.Wildcard -> "wildcard" | Pattern.Const _ -> "constant" in
      Hashtbl.replace seen (Printf.sprintf "%s RHS %b" rhs expected) ();
      match Cfd_implication.decide schema ~sigma phi with
      | Implication.Implied -> expected
      | Implication.Not_implied -> not expected
      | Implication.Undetermined _ -> false)
    goals

let test_cfd_implication_matches_pairs =
  let seen = Hashtbl.create 8 in
  let name, speed, run =
    qtest ~count:150 "CFD implication matches pair enumeration" seed_gen
      (prop_cfd_implication_matches_pairs ~seen)
  in
  ( name,
    speed,
    fun () ->
      run ();
      List.iter
        (fun case -> check_bool (case ^ " occurs") true (Hashtbl.mem seen case))
        [
          "0 unnamed"; "1 unnamed"; "2+ unnamed"; "wildcard RHS true"; "wildcard RHS false";
          "constant RHS true"; "constant RHS false";
        ] )

(* --- normalization and satisfaction ----------------------------------------- *)

let prop_normalization_roundtrip seed =
  let _, sigma = make_workload ~consistent:false seed in
  List.for_all
    (fun nf ->
      match Cind.normalize (Cind.nf_to_cind nf) with
      | [ nf' ] -> Cind.nf_equal (Cind.canon_nf nf) (Cind.canon_nf nf')
      | _ -> false)
    sigma.Sigma.ncinds

(* A normal form turned back into a CIND or CFD, read off its tableau by
   the oracle, holds where its normal forms hold. *)
let prop_nf_satisfaction_agrees seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let db = Workload.dirty_database (Rng.make (seed + 3)) schema ~tuples_per_rel:4 ~error_rate:0.3 in
  List.for_all
    (fun nf ->
      let cind = Cind.nf_to_cind nf in
      Detect_oracle.cind_holds db cind = List.for_all (Cind.nf_holds db) (Cind.normalize cind))
    sigma.Sigma.ncinds
  && List.for_all
       (fun nf ->
         let cfd = Cfd.nf_to_cfd nf in
         Detect_oracle.cfd_holds db cfd = List.for_all (Cfd.nf_holds db) (Cfd.normalize cfd))
       sigma.Sigma.ncfds

(* The first-order readings of Logic must agree with the native semantics
   on arbitrary databases. *)
let prop_logic_agrees seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let db =
    Workload.dirty_database (Rng.make (seed + 7)) schema ~tuples_per_rel:4
      ~error_rate:0.4
  in
  List.for_all
    (fun nf ->
      Cind.nf_holds db nf = Logic_eval.holds db (Logic.cind_to_formula schema nf))
    sigma.Sigma.ncinds
  && List.for_all
       (fun nf ->
         Cfd.nf_holds db nf = Logic_eval.holds db (Logic.cfd_to_formula schema nf))
       sigma.Sigma.ncfds

(* --- implication sanity ------------------------------------------------------ *)

(* Every member of Σ is implied by Σ; a CIND with a fresh RHS pattern
   constant on an unused attribute is not implied by the empty Σ. *)
let prop_members_implied seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let cinds = List.filteri (fun i _ -> i < 3) sigma.Sigma.ncinds in
  List.for_all
    (fun psi ->
      match Implication.decide ~max_states:20_000 schema ~sigma:cinds psi with
      | Implication.Implied -> true
      | Implication.Not_implied -> false
      | Implication.Undetermined _ -> QCheck.assume_fail ())
    cinds

let prop_cfd_members_implied seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let cfds = List.filteri (fun i _ -> i < 3) sigma.Sigma.ncfds in
  List.for_all
    (fun phi ->
      Cfd_implication.decide schema ~sigma:cfds phi = Implication.Implied)
    cfds

(* Exact CIND implication agrees with proof-checked derivations: anything
   the inference rules derive must be semantically implied (soundness of I,
   Theorem 3.3, spot-checked on random projections/augmentations). *)
let prop_rule_conclusions_implied seed =
  let schema, sigma = make_workload ~consistent:false seed in
  match sigma.Sigma.ncinds with
  | [] -> true
  | psi :: _ -> (
      let rng = Rng.make (seed + 4) in
      let m = List.length psi.Cind.nf_x in
      let indices =
        if m = 0 then [] else List.filteri (fun i _ -> i <= Rng.int rng m) psi.nf_x |> List.mapi (fun i _ -> i)
      in
      match
        Inference.apply schema
          (fun i -> if i = 0 then Some psi else None)
          (Inference.Proj_perm { prem = 0; indices })
      with
      | Error _ -> true
      | Ok derived -> (
          match
            Implication.decide ~max_states:20_000 schema ~sigma:[ psi ] derived
          with
          | Implication.Implied -> true
          | Implication.Not_implied -> false
          | Implication.Undetermined _ -> QCheck.assume_fail ()))

(* Constructive Thm 3.5: over infinite domains, proof search must agree
   with the semantic decision, and every emitted proof must check. *)
let prop_proof_search_complete seed =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng { small_schema_config with Schema_gen.finite_ratio = 0.0 }
  in
  let sigma =
    (Workload.random rng { small_workload_config with Workload.cfd_fraction = 0. } schema)
      .Sigma.ncinds
  in
  let sigma = List.filteri (fun i _ -> i < 6) sigma in
  List.for_all
    (fun psi ->
      match
        ( Implication.decide ~max_states:20_000 schema ~sigma psi,
          Proof_search.derive ~max_states:20_000 schema ~sigma psi )
      with
      | Implication.Undetermined _, _ -> QCheck.assume_fail ()
      | Implication.Implied, Some proof -> (
          match Inference.proves schema ~sigma proof psi with
          | Ok _ -> true
          | Error _ -> false)
      | Implication.Not_implied, None -> true
      | Implication.Implied, None | Implication.Not_implied, Some _ -> false)
    sigma

(* The counting fixpoint of [Implication.decide] against the round-based
   oracle, on families whose shape spaces the oracle's quadratic rounds
   still finish: random Σ over finite domains of 2–3 values (goals inside
   and outside Σ), Table 1's finite chain with k ≤ 8, the permutation
   families P_4 and P_5, and the generalised bank of Example 3.4, whole
   and with one route missing. *)
let cind name lhs rhs ?(xp = []) ?(yp = []) x y =
  { Cind.nf_name = name; nf_lhs = lhs; nf_rhs = rhs; nf_x = x; nf_y = y; nf_xp = xp; nf_yp = yp }

let strings names = List.map (fun a -> Attribute.make a Domain.string_inf) names

let finite_family seed =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng
      {
        Schema_gen.num_relations = 2 + (seed mod 3);
        min_arity = 2;
        max_arity = 4;
        finite_ratio = 0.8;
        finite_dom_min = 2;
        finite_dom_max = 3;
      }
  in
  let cinds =
    (Workload.random rng
       { Workload.default with num_constraints = 20; cfd_fraction = 0. }
       schema)
      .Sigma.ncinds
  in
  (schema, List.filteri (fun i _ -> i < 6) cinds, List.nth cinds (seed mod 9))

let chain_family k =
  let bit = Domain.finite [ Value.Str "0"; Value.Str "1" ] in
  let schema =
    Db_schema.make
      [
        Schema.make "src" (strings [ "a" ]);
        Schema.make "mid"
          (strings [ "a" ] @ List.init k (fun i -> Attribute.make (Printf.sprintf "f%d" i) bit));
        Schema.make "tgt" (strings [ "a" ]);
      ]
  in
  ( schema,
    [ cind "src_mid" "src" "mid" [ "a" ] [ "a" ]; cind "mid_tgt" "mid" "tgt" [ "a" ] [ "a" ] ],
    cind "goal" "src" "tgt" [ "a" ] [ "a" ] )

(* P_n: swap and cyc reach all n! orderings of the trigger's marks;
   [goal] (into s) is not implied, [back] (cyc inverted) is. *)
let perm_family n ~back =
  let a = List.init n (fun i -> Printf.sprintf "a%d" (i + 1)) in
  let schema = Db_schema.make [ Schema.make "r" (strings a); Schema.make "s" (strings a) ] in
  let rotate = function [] -> [] | h :: t -> t @ [ h ] in
  let swap = match a with a1 :: a2 :: t -> a2 :: a1 :: t | l -> l in
  let sigma = [ cind "swap" "r" "r" a swap; cind "cyc" "r" "r" a (rotate a) ] in
  let psi =
    if back then cind "back" "r" "r" a (List.rev (rotate (List.rev a)))
    else cind "goal" "r" "s" a a
  in
  (schema, sigma, psi)

(* account[at] ⊆ interest[at] through one table per account type: each
   type's route fixes the branch, each table's rate fixes the type. *)
let bank_family m ~broken =
  let types = List.init m (fun i -> Value.Str (Printf.sprintf "type%d" i)) in
  let at = Attribute.make "at" (Domain.finite types) in
  let person = [ "an"; "cn"; "ca"; "cp" ] in
  let table t = "acct_" ^ Value.to_string t in
  let branch = Value.Str "EDI" in
  let schema =
    Db_schema.make
      ((Schema.make "account" (strings person @ [ at ])
       :: List.map (fun t -> Schema.make (table t) (strings (person @ [ "ab" ]))) types)
      @ [ Schema.make "interest" (strings [ "ab"; "ct" ] @ [ at ] @ strings [ "rt" ]) ])
  in
  let sigma =
    List.concat
      (List.mapi
         (fun i t ->
           let route =
             cind "route" "account" (table t) person person ~xp:[ ("at", t) ]
               ~yp:[ ("ab", branch) ]
           and rate =
             cind "rate" (table t) "interest" [] [] ~xp:[ ("ab", branch) ]
               ~yp:[ ("ab", branch); ("at", t); ("ct", Value.Str "UK"); ("rt", Value.Str (Printf.sprintf "%d%%" (i + 1))) ]
           in
           if broken && i = 0 then [ rate ] else [ route; rate ])
         types)
  in
  (schema, sigma, cind "goal" "account" "interest" [ "at" ] [ "at" ])

let oracle_case seed =
  match seed mod 5 with
  | 0 -> finite_family seed
  | 1 -> chain_family (seed / 5 mod 9)
  | 2 -> perm_family (4 + (seed / 5 mod 2)) ~back:(seed / 10 mod 2 = 0)
  | 3 -> bank_family (2 + (seed / 5 mod 3)) ~broken:false
  | _ -> bank_family (2 + (seed / 5 mod 3)) ~broken:true

let prop_oracle_agrees ~implied ~not_implied seed =
  let schema, sigma, psi = oracle_case seed in
  match
    ( Implication.decide ~max_states:2_000 schema ~sigma psi,
      Implication_oracle.decide ~max_states:2_000 schema ~sigma psi )
  with
  | Implication.Undetermined _, _ | _, Implication.Undetermined _ ->
      QCheck.assume_fail ()
  | v, v' ->
      incr (if v = Implication.Implied then implied else not_implied);
      v = v'

(* Both verdicts must occur, or the agreement says nothing: the run
   reports and checks its verdict counts. *)
let test_oracle_agreement =
  let implied = ref 0 and not_implied = ref 0 in
  let name, speed, run =
    qtest ~count:200 "counting fixpoint agrees with the oracle" seed_gen
      (prop_oracle_agrees ~implied ~not_implied)
  in
  ( name,
    speed,
    fun () ->
      run ();
      Fmt.pr "oracle agreement: %d implied, %d not implied@." !implied !not_implied;
      check_bool "both verdicts occur" true (!implied > 0 && !not_implied > 0) )

(* Dirty databases for the detection properties: small and very dirty, and
   larger with a tenth of the fields corrupted (bigger X-groups). *)
let dirty_databases seed schema =
  List.map
    (fun (tuples_per_rel, error_rate) ->
      Workload.dirty_database (Rng.make (seed + 8)) schema ~tuples_per_rel ~error_rate)
    [ (6, 0.3); (40, 0.1) ]

(* Fast detection must return exactly the pairwise oracle's violation list,
   order included: repair applies fixes in that order. *)
(* A database of 0–[max] tuples per relation: empty LHS and RHS
   relations, single tuples, self-pair constant clashes. *)
let tiny_database seed schema ~max =
  let rng = Rng.make (seed + 9) in
  let db = Workload.dirty_database rng schema ~tuples_per_rel:max ~error_rate:0.5 in
  Database.fold
    (fun rel acc ->
      let keep = Rng.int rng (max + 1) in
      Database.set_relation acc
        (Relation.of_list (Relation.schema rel)
           (List.filteri (fun i _ -> i < keep) (Relation.tuples rel))))
    db db

(* The tiny database has relations on both sides of [Cfd.direct_max]
   (pair by pair up to 2 tuples, hash tables from 3). *)
let prop_fast_detect_agrees seed =
  let schema, sigma = make_workload ~consistent:false seed in
  List.for_all
    (fun db ->
      Detect_oracle.same_violations (Detect_oracle.detect db sigma)
        (Conddep_cleaning.Fast_detect.detect db sigma))
    (tiny_database seed schema ~max:3 :: dirty_databases seed schema)

(* Databases of 0–2 tuples per relation, then the two dirty sizes. *)
let satisfaction_databases seed schema = tiny_database seed schema ~max:2 :: dirty_databases seed schema

(* A multi-row CIND over a normal-form one's attributes: each row keeps or
   drops each pattern constant, and may bind an X/Y pair to a value of an
   LHS tuple, which [Cind.normalize] moves into the patterns. *)
let multi_row_cind rng db (nf : Cind.nf) =
  let r1 = Db_schema.find (Database.schema db) nf.Cind.nf_lhs in
  let lhs = Relation.tuples (Database.relation db nf.nf_lhs) in
  let maybe (_, v) = if Rng.bool rng then Pattern.Const v else Pattern.Wildcard in
  let row () =
    let cx =
      List.map
        (fun a ->
          if lhs <> [] && Rng.chance rng 0.3 then
            Pattern.Const (Tuple.get (Rng.pick rng lhs) (Schema.position r1 a))
          else Pattern.Wildcard)
        nf.nf_x
    in
    { Cind.cx; cxp = List.map maybe nf.nf_xp; cy = cx; cyp = List.map maybe nf.nf_yp }
  in
  Cind.make ~name:nf.nf_name ~lhs:nf.nf_lhs ~rhs:nf.nf_rhs ~x:nf.nf_x
    ~xp:(List.map fst nf.nf_xp) ~y:nf.nf_y ~yp:(List.map fst nf.nf_yp)
    (List.init (1 + Rng.int rng 3) (fun _ -> row ()))

(* [Sigma.nf_holds] answers what the pairwise oracle answers, and a
   multi-row CIND's violations, which [Cind.violations] finds through
   [Cind.normalize], are the ones the oracle reads off its tableau, row
   by row, in order. *)
let prop_satisfaction_agrees seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let rng = Rng.make (seed + 10) in
  List.for_all
    (fun db ->
      Sigma.nf_holds db sigma = Detect_oracle.is_clean db sigma
      && List.for_all
           (fun nf ->
             let cind = multi_row_cind rng db nf in
             List.equal
               (fun (row, t) (row', t') -> row == row' && Tuple.equal t t')
               (Cind.violations db cind)
               (Detect_oracle.cind_row_violations db cind))
           sigma.Sigma.ncinds)
    (satisfaction_databases seed schema)

(* Repair driven by the grouped detector (one detection per round) must give
   the database of the same loop driven by the oracle. *)
let prop_repair_matches_oracle seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let printed db = Fmt.str "%a" Database.pp db in
  List.for_all
    (fun db ->
      printed (Conddep_cleaning.Repair.repair schema sigma db)
      = printed (Detect_oracle.repair schema sigma db))
    (dirty_databases seed schema)

(* --- budget cuts ------------------------------------------------------------------ *)

(* Run [f] under fuel 1, 4, 16, ... until a run leaves its budget unspent:
   from there on every larger fuel replays the unbudgeted run exactly. *)
let fuel_sweep f =
  let rec go fuel acc =
    let budget = Guard.make ~fuel () in
    let v = Guard.with_ambient budget f in
    if Guard.state budget = None then v :: acc else go (4 * fuel) (v :: acc)
  in
  go 1 []

let describe_checking = function
  | Checking.Consistent db -> Fmt.str "consistent:%a" Database.pp db
  | Checking.Inconsistent -> "inconsistent"
  | Checking.Unknown _ -> "unknown"

(* A fuel budget can stop a run at any tick.  Whatever tick it stops at,
   the answer is the unbudgeted one, witness included, or Unknown — never
   a different verdict.  Checked for Checking with both backends, and for
   CIND and CFD implication. *)
let prop_fuel_cut_verdicts seed =
  let schema, sigma =
    finite_workload ~seed ~relations:(2 + (seed mod 3))
      ~constraints:(30 + (seed mod 51))
  in
  let agrees ~unknown run =
    let baseline = run () in
    List.for_all (fun v -> v = baseline || v = unknown) (fuel_sweep run)
  in
  let checking backend () =
    describe_checking (Checking.check ~backend ~rng:(Rng.make seed) schema sigma)
  in
  let implication decide () =
    match decide () with
    | Implication.Undetermined _ -> "undetermined"
    | o -> Fmt.str "%a" Implication.pp_outcome o
  in
  let cinds = List.filteri (fun i _ -> i < 3) sigma.Sigma.ncinds in
  let goals = List.filteri (fun i _ -> i >= 3 && i < 6) sigma.Sigma.ncinds in
  List.for_all
    (fun backend -> agrees ~unknown:"unknown" (checking backend))
    [ Cfd_checking.Chase_backend; Cfd_checking.Sat_backend ]
  && List.for_all
       (fun psi ->
         agrees ~unknown:"undetermined"
           (implication (fun () ->
                Implication.decide ~max_states:500 schema ~sigma:cinds psi)))
       goals
  &&
  match sigma.Sigma.ncfds with
  | phi :: rest ->
      let rest = List.filteri (fun i _ -> i < 6) rest in
      agrees ~unknown:"undetermined"
        (implication (fun () ->
             Cfd_implication.decide schema ~sigma:rest phi))
  | _ -> true

let () =
  Alcotest.run "properties"
    [
      ( "generator",
        [
          qtest ~count:60 "consistent sets hold on the hidden witness" seed_gen
            prop_consistent_sets_have_witness;
          qtest ~count:60 "generated constraints validate" seed_gen
            prop_generated_constraints_validate;
        ] );
      ( "theorem-3.2",
        [
          qtest ~count:40 "cross-product witness satisfies CINDs" seed_gen
            prop_cind_witness_construction;
        ] );
      ( "theorem-5.1",
        [
          qtest ~count:30 "RandomChecking sound" seed_gen prop_random_checking_sound;
          qtest ~count:30 "Checking sound" seed_gen prop_checking_sound;
          qtest ~count:30 "Checking never rejects consistent sets wrongly" seed_gen
            prop_checking_accepts_consistent;
          qtest ~count:30 "Checking finds a witness for planted 3-SAT" seed_gen
            prop_checking_accepts_planted;
        ] );
      ( "differential",
        [
          qtest ~count:30 "SAT backend matches exact consistency" seed_gen
            prop_sat_matches_exact;
          qtest ~count:30 "chase CFD_Checking sound" seed_gen
            prop_chase_cfd_checking_sound;
          test_sat_named_values;
          test_cfd_implication_matches_pairs;
          qtest ~count:40 "fast detection agrees with reference" seed_gen
            prop_fast_detect_agrees;
          qtest ~count:40 "satisfaction agrees with the pairwise oracle" seed_gen
            prop_satisfaction_agrees;
          qtest ~count:20 "repair matches the oracle-driven loop" seed_gen
            prop_repair_matches_oracle;
        ] );
      ( "normalization",
        [
          qtest ~count:60 "nf roundtrip" seed_gen prop_normalization_roundtrip;
          qtest ~count:30 "nf satisfaction agrees" seed_gen prop_nf_satisfaction_agrees;
          qtest ~count:30 "FO readings agree with native semantics" seed_gen
            prop_logic_agrees;
        ] );
      ( "implication",
        [
          qtest ~count:15 "CIND members implied" seed_gen prop_members_implied;
          qtest ~count:15 "CFD members implied" seed_gen prop_cfd_members_implied;
          qtest ~count:15 "rule conclusions semantically implied" seed_gen
            prop_rule_conclusions_implied;
          qtest ~count:25 "proof search complete over infinite domains" seed_gen
            prop_proof_search_complete;
          test_oracle_agreement;
        ] );
      ( "budget cuts",
        [
          qtest ~count:40 "fuel cuts give the unbudgeted verdict or Unknown"
            seed_gen prop_fuel_cut_verdicts;
        ] );
    ]
