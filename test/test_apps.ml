open Conddep_relational
open Conddep_core
open Conddep_cleaning
open Conddep_matching
open Helpers

(* The application layers: data cleaning (Example 1.2) and contextual
   schema matching (Example 1.1). *)

module B = Conddep_fixtures.Bank

let sigma_nf = Sigma.normalize B.sigma

(* --- cleaning ------------------------------------------------------------ *)

let test_detect_dirty_bank () =
  let violations = Fast_detect.detect B.dirty_db sigma_nf in
  check_bool "dirty db has violations" true (violations <> []);
  let names = List.map Violation.constraint_name violations in
  check_bool "psi6 flagged" true (List.mem "psi6" names);
  check_bool "phi3 flagged" true (List.mem "phi3" names);
  check_bool "psi5 not flagged" false (List.mem "psi5" names)

let test_clean_bank_is_clean () =
  check_bool "clean db is clean" true (Fast_detect.is_clean B.clean_db sigma_nf)

let test_detect_cind_provenance () =
  let violations = Fast_detect.detect B.dirty_db sigma_nf in
  let cind_violators =
    List.filter_map
      (function
        | Violation.Cind_violation { constraint_name = "psi6"; tuple; _ } -> Some tuple
        | _ -> None)
      violations
  in
  check_bool "t10 is the psi6 violator" true
    (List.exists (Tuple.equal B.t10) cind_violators)

let test_repair_fixes_phi3 () =
  (* Repairing ϕ3 alone rewrites t12's rate to 1.5%. *)
  let phi3_nf = { Sigma.ncfds = Cfd.normalize B.phi3; ncinds = [] } in
  let repaired = Repair.repair B.schema phi3_nf B.dirty_db in
  check_bool "phi3 clean after repair" true (Detect_oracle.is_clean repaired phi3_nf);
  let interest = Database.relation repaired "interest" in
  check_bool "t12 now carries 1.5%" true (Relation.mem interest B.t12_clean)

let test_repair_whole_sigma () =
  let repaired = Repair.repair ~max_rounds:8 B.schema sigma_nf B.dirty_db in
  check_bool "no violations left" true (Detect_oracle.is_clean repaired sigma_nf)

let test_repair_cind_insertion () =
  (* A missing interest row is repaired by inserting it. *)
  let db =
    Database.set_relation B.clean_db
      (Relation.filter
         (fun t -> not (Tuple.equal t B.t11))
         (Database.relation B.clean_db "interest"))
  in
  let psi5_nf = { Sigma.ncfds = []; ncinds = Cind.normalize B.psi5 } in
  check_bool "broken after delete" false (Detect_oracle.is_clean db psi5_nf);
  let repaired = Repair.repair B.schema psi5_nf db in
  check_bool "repaired by insertion" true (Detect_oracle.is_clean repaired psi5_nf)

let test_report () =
  let report = Report.build B.dirty_db sigma_nf in
  check_bool "some violations" true (Report.count report > 0);
  let grouped = Report.by_constraint report in
  check_bool "grouped by name" true (List.mem_assoc "psi6" grouped);
  let rendered = Fmt.str "%a" Report.pp report in
  check_bool "report mentions psi6" true (contains_substring ~needle:"psi6" rendered)

let test_cost_based_repair () =
  (* default costs: the dirty bank is fixed by updates/inserts, not deletes *)
  let repaired, spent = Repair.repair_min_cost ~max_rounds:8 B.schema sigma_nf B.dirty_db in
  check_bool "clean" true (Detect_oracle.is_clean repaired sigma_nf);
  check_bool "positive cost" true (spent > 0);
  check_bool "no tuples lost" true
    (Database.total_tuples repaired >= Database.total_tuples B.dirty_db);
  (* with deletion made free, the repair prefers removing offenders *)
  let free_delete = { Repair.update_cost = 10; insert_cost = 10; delete_cost = 0 } in
  let deleted, _ =
    Repair.repair_min_cost ~max_rounds:8 ~costs:free_delete B.schema sigma_nf
      B.dirty_db
  in
  check_bool "clean via deletion" true (Detect_oracle.is_clean deleted sigma_nf);
  check_bool "tuples removed" true
    (Database.total_tuples deleted < Database.total_tuples B.dirty_db)

let test_alternatives_resolve () =
  (* every alternative plan for the phi3 violation resolves it *)
  let phi3_sigma = { Sigma.ncfds = Cfd.normalize B.phi3; ncinds = [] } in
  let violations = Fast_detect.detect B.dirty_db phi3_sigma in
  check_int "one violation" 1 (List.length violations);
  let v = List.hd violations in
  let plans = Repair.alternatives B.schema v in
  check_bool "several plans" true (List.length plans >= 2);
  List.iter
    (fun plan ->
      let db = List.fold_left Repair.apply B.dirty_db plan in
      check_bool "plan resolves the violation" true (Detect_oracle.is_clean db phi3_sigma))
    (List.filter (fun p -> p <> []) plans)

(* --- fast detection against the pairwise oracle, order included -------------- *)

let test_fast_detect_agrees_on_bank () =
  List.iter
    (fun db ->
      List.iter
        (fun cfd ->
          List.iter
            (fun nf ->
              check_bool
                (Printf.sprintf "fast CFD detection agrees on %s" nf.Cfd.nf_name)
                true
                (List.equal
                   (fun (a1, b1) (a2, b2) -> Tuple.equal a1 a2 && Tuple.equal b1 b2)
                   (Cfd.nf_violations db nf)
                   (Fast_detect.cfd_violations db nf)))
            (Cfd.normalize cfd))
        B.all_cfds;
      List.iter
        (fun cind ->
          List.iter
            (fun nf ->
              check_bool
                (Printf.sprintf "fast CIND detection agrees on %s" nf.Cind.nf_name)
                true
                (List.equal Tuple.equal
                   (Detect_oracle.cind_violations db nf)
                   (Fast_detect.cind_violations db nf)))
            (Cind.normalize cind))
        B.all_cinds)
    [ B.clean_db; B.dirty_db ]

let test_fast_detect_whole_sigma () =
  check_bool "same violations in the same order on the dirty bank" true
    (Detect_oracle.same_violations
       (Detect_oracle.detect B.dirty_db sigma_nf)
       (Fast_detect.detect B.dirty_db sigma_nf));
  check_bool "clean db is clean (fast)" true (Fast_detect.is_clean B.clean_db sigma_nf)

(* --- weak acyclicity -------------------------------------------------------- *)

let test_bank_cinds_weakly_acyclic () =
  let sigma = List.concat_map Cind.normalize B.all_cinds in
  check_bool "bank CINDs weakly acyclic" true (Acyclicity.weakly_acyclic B.schema sigma)

let test_special_self_loop_detected () =
  (* r[a] ⊆ r[b] creates fresh values feeding their own premise: the
     unbounded chase diverges, and the analysis must say so. *)
  let schema = string_schema "r" [ "a"; "b" ] in
  let grow =
    List.hd
      (Cind.normalize
         (Cind.make ~name:"grow" ~lhs:"r" ~rhs:"r" ~x:[ "a" ] ~xp:[] ~y:[ "b" ] ~yp:[]
            [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ]))
  in
  check_bool "growing self-loop rejected" false
    (Acyclicity.weakly_acyclic schema [ grow ]);
  match Acyclicity.offending_edge schema [ grow ] with
  | Some e -> check_bool "offender is special" true e.Acyclicity.special
  | None -> Alcotest.fail "expected an offending edge"

let test_plain_cycle_is_fine () =
  (* r[a] ⊆ s[a] and s[a] ⊆ r[a]: cyclic, but no existential positions. *)
  let schema =
    Db_schema.make
      [
        Schema.make "r" [ Attribute.make "a" Domain.string_inf ];
        Schema.make "s" [ Attribute.make "a" Domain.string_inf ];
      ]
  in
  let ind lhs rhs =
    List.hd
      (Cind.normalize
         (Cind.make ~name:(lhs ^ rhs) ~lhs ~rhs ~x:[ "a" ] ~xp:[] ~y:[ "a" ] ~yp:[]
            [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ]))
  in
  check_bool "copy cycle weakly acyclic" true
    (Acyclicity.weakly_acyclic schema [ ind "r" "s"; ind "s" "r" ])

(* --- matching ------------------------------------------------------------- *)

let migration_cinds =
  List.concat_map Cind.normalize [ B.psi1_nyc; B.psi1_edi; B.psi2_nyc; B.psi2_edi ]

let test_migration_from_empty_targets () =
  (* Migrate the account relations into empty saving/checking targets. *)
  let src =
    Database.of_alist B.schema
      [ ("account_nyc", [ B.t1; B.t2; B.t3 ]); ("account_edi", [ B.t4; B.t5 ]) ]
  in
  let migrated = Mapping.execute B.schema migration_cinds src in
  check_int "two saving rows" 2 (Relation.cardinal (Database.relation migrated "saving"));
  check_int "three checking rows" 3
    (Relation.cardinal (Database.relation migrated "checking"));
  check_bool "t1 landed in saving as t6" true
    (Relation.mem (Database.relation migrated "saving") B.t6);
  check_bool "CINDs hold after migration" true (Mapping.verify migrated migration_cinds)

let test_migration_respects_context () =
  (* A saving account never lands in checking: contextual matching. *)
  let src = Database.of_alist B.schema [ ("account_nyc", [ B.t1 ]) ] in
  let migrated = Mapping.execute B.schema migration_cinds src in
  check_int "saving got the row" 1
    (Relation.cardinal (Database.relation migrated "saving"));
  check_int "checking stayed empty" 0
    (Relation.cardinal (Database.relation migrated "checking"))

let test_migrate_tuple_fields () =
  let nf = List.hd (Cind.normalize B.psi1_nyc) in
  match Mapping.migrate_tuple B.schema nf B.t1 with
  | None -> Alcotest.fail "t1 is a saving account"
  | Some target ->
      check_bool "an copied" true (Value.equal (Tuple.get target 0) (str "01"));
      check_bool "ab bound to NYC" true (Value.equal (Tuple.get target 4) (str "NYC"));
      (* non-triggering tuple *)
      check_bool "checking tuple not migrated by psi1" true
        (Mapping.migrate_tuple B.schema nf B.t2 = None)

let test_coverage () =
  let src =
    Database.of_alist B.schema
      [ ("account_nyc", [ B.t1; B.t2; B.t3 ]); ("account_edi", [ B.t4; B.t5 ]) ]
  in
  let coverage = Mapping.coverage B.schema migration_cinds src in
  check_bool "psi1_nyc covers one" true (List.assoc "psi1_nyc" coverage = 1);
  check_bool "psi2_nyc covers two" true (List.assoc "psi2_nyc" coverage = 2);
  check_bool "psi2_edi covers one" true (List.assoc "psi2_edi" coverage = 1)

let () =
  Alcotest.run "apps"
    [
      ( "cleaning",
        [
          Alcotest.test_case "detect dirty bank" `Quick test_detect_dirty_bank;
          Alcotest.test_case "clean bank is clean" `Quick test_clean_bank_is_clean;
          Alcotest.test_case "CIND provenance" `Quick test_detect_cind_provenance;
          Alcotest.test_case "repair phi3" `Quick test_repair_fixes_phi3;
          Alcotest.test_case "repair whole sigma" `Quick test_repair_whole_sigma;
          Alcotest.test_case "repair by insertion" `Quick test_repair_cind_insertion;
          Alcotest.test_case "report" `Quick test_report;
          Alcotest.test_case "cost-based repair" `Quick test_cost_based_repair;
          Alcotest.test_case "alternatives resolve" `Quick test_alternatives_resolve;
        ] );
      ( "fast-detection",
        [
          Alcotest.test_case "agrees with reference on bank" `Quick
            test_fast_detect_agrees_on_bank;
          Alcotest.test_case "whole sigma" `Quick test_fast_detect_whole_sigma;
        ] );
      ( "weak-acyclicity",
        [
          Alcotest.test_case "bank CINDs acyclic" `Quick test_bank_cinds_weakly_acyclic;
          Alcotest.test_case "special self-loop detected" `Quick
            test_special_self_loop_detected;
          Alcotest.test_case "copy cycles allowed" `Quick test_plain_cycle_is_fine;
        ] );
      ( "matching",
        [
          Alcotest.test_case "migration" `Quick test_migration_from_empty_targets;
          Alcotest.test_case "context respected" `Quick test_migration_respects_context;
          Alcotest.test_case "field mapping" `Quick test_migrate_tuple_fields;
          Alcotest.test_case "coverage ranking" `Quick test_coverage;
        ] );
    ]
