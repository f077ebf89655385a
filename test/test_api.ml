open Conddep_relational
open Conddep_core
open Conddep_generator
open Helpers

module B = Conddep_fixtures.Bank

(* Batch facade equivalence: every [_many] entry point must be
   bit-identical — verdicts AND witnesses — to the corresponding sequence
   of singleton calls.  Witnesses are compared through their full
   printed databases.  All runs use unlimited
   ambient budgets, so the GUARD_FAULTS sweep (whose armed faults fire at
   governed probes) leaves the equalities intact. *)

let show = function
  | Cind_api.Yes (Some db) -> Fmt.str "yes:%a" Database.pp db
  | Cind_api.Yes None -> "yes"
  | Cind_api.No -> "no"
  | Cind_api.Unknown r -> "unknown:" ^ Guard.reason_to_string r

let check_shows = Alcotest.(check (list string))

let batch_workload seed n =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng { Schema_gen.default with num_relations = 4 }
  in
  let sigmas =
    List.init n (fun _ ->
        Workload.random rng { Workload.default with num_constraints = 12 } schema)
  in
  (schema, sigmas)

(* --- verdict mapping --------------------------------------------------- *)

let test_verdict_mapping () =
  let bank = Sigma.normalize B.sigma in
  (match Cind_api.check ~k:60 ~rng:(Rng.make 5) B.schema bank with
  | Cind_api.Yes (Some _) -> ()
  | v -> Alcotest.failf "bank must be consistent with a witness, got %s" (show v));
  check_bool "to_bool yes" true (Cind_api.to_bool (Cind_api.Yes None));
  check_bool "to_bool unknown" false
    (Cind_api.to_bool (Cind_api.Unknown Guard.Fuel));
  match Cind_api.implies B.schema ~sigma:B.implication_sigma B.implication_goal with
  | Cind_api.Yes None -> ()
  | v -> Alcotest.failf "psi must be implied, got %s" (show v)

(* --- check_many --------------------------------------------------------- *)

let test_check_many_equivalence () =
  let n = 6 in
  let schema, sigmas = batch_workload 31 n in
  let singles =
    List.map2
      (fun rng sigma -> show (Cind_api.check ~k:6 ~rng schema sigma))
      (Rng.split_n (Rng.make 77) n)
      sigmas
  in
  check_shows "check_many" singles
    (List.map show (Cind_api.check_many ~k:6 ~rng:(Rng.make 77) schema sigmas))

(* --- implies_many ------------------------------------------------------- *)

let test_implies_many_equivalence () =
  let sigma = B.implication_sigma in
  (* members + the composed goal, doubled *)
  let goals = B.implication_goal :: sigma in
  let goals = goals @ goals in
  let singles =
    List.map (fun g -> show (Cind_api.implies B.schema ~sigma g)) goals
  in
  check_shows "implies_many" singles
    (List.map show (Cind_api.implies_many B.schema ~sigma goals))

(* --- consistent_many ---------------------------------------------------- *)

let test_consistent_many_equivalence () =
  let rng = Rng.make 13 in
  let schema =
    Schema_gen.generate rng { Schema_gen.default with num_relations = 5 }
  in
  let sigma =
    Workload.cfds_only rng
      { Workload.default with num_constraints = 20 }
      schema ~consistent:true
  in
  let cfds = sigma.Sigma.ncfds in
  let rels = Db_schema.rel_names schema in
  let rels = rels @ rels in
  let singles =
    List.map2
      (fun rng rel -> show (Cind_api.consistent ~k_cfd:8 ~rng schema cfds ~rel))
      (Rng.split_n (Rng.make 5) (List.length rels))
      rels
  in
  check_shows "consistent_many" singles
    (List.map show
       (Cind_api.consistent_many ~k_cfd:8 ~rng:(Rng.make 5) schema cfds ~rels))

let () =
  Alcotest.run "api"
    [
      ("facade", [ Alcotest.test_case "verdict mapping" `Quick test_verdict_mapping ]);
      ( "batch",
        [
          Alcotest.test_case "check_many == N singleton checks" `Quick
            test_check_many_equivalence;
          Alcotest.test_case "implies_many == N singleton decisions" `Quick
            test_implies_many_equivalence;
          Alcotest.test_case "consistent_many == N singleton decisions" `Quick
            test_consistent_many_equivalence;
        ] );
    ]
