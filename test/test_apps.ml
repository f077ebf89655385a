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
        | Violation.Cind_violation { nf = { Cind.nf_name = "psi6"; _ }; tuple } -> Some tuple
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

let test_repair_skips_rewritten_tuples () =
  (* f : r(x -> a) with (_ || _) over three tuples that share x: the
     round's first fixes copy a1 into the second and third tuple, so the
     four violations naming their old versions are stale and skipped.
     Fixing them too would copy a2 and a3 back and oscillate. *)
  let schema = string_schema "r" [ "k"; "x"; "a" ] in
  let f =
    Cfd.make ~name:"f" ~rel:"r" ~x:[ "x" ] ~y:[ "a" ] [ { Cfd.rx = [ wildcard ]; ry = [ wildcard ] } ]
  in
  let sigma = { Sigma.ncfds = Cfd.normalize f; ncinds = [] } in
  let db =
    Database.of_alist schema
      [ ("r", [ stup [ "1"; "x"; "a1" ]; stup [ "2"; "x"; "a2" ]; stup [ "3"; "x"; "a3" ] ]) ]
  in
  check_int "six violating pairs" 6 (List.length (Fast_detect.detect db sigma));
  let repaired = Repair.repair ~max_rounds:8 schema sigma db in
  check_bool "clean after repair" true (Detect_oracle.is_clean repaired sigma);
  check_int "three tuples" 3 (Database.total_tuples repaired)

let test_repair_never_ends_above_start () =
  (* p1 : r[x] <= s[y], p2 : s[z] <= r[x] and p3 : s[z] <= r[a]: each s
     tuple a repair inserts needs two r tuples, and each of those an s
     tuple, so the violations go 1, 2, 2, 4, 4, 8, 8, 16, 16 over eight
     rounds.  Repair answers the database with the fewest, the earliest on
     a tie: the input itself. *)
  let str_attrs = List.map (fun a -> Attribute.make a Domain.string_inf) in
  let schema =
    Db_schema.make [ Schema.make "r" (str_attrs [ "x"; "a" ]); Schema.make "s" (str_attrs [ "y"; "z" ]) ]
  in
  let ind name lhs x rhs y =
    Cind.make ~name ~lhs ~rhs ~x:[ x ] ~xp:[] ~y:[ y ] ~yp:[]
      [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ]
  in
  let sigma =
    {
      Sigma.ncfds = [];
      ncinds =
        List.concat_map Cind.normalize
          [ ind "p1" "r" "x" "s" "y"; ind "p2" "s" "z" "r" "x"; ind "p3" "s" "z" "r" "a" ];
    }
  in
  let db = Database.of_alist schema [ ("r", [ stup [ "1"; "1" ] ]) ] in
  let violations db = List.length (Fast_detect.detect db sigma) in
  check_int "one violation" 1 (violations db);
  let one_round =
    List.fold_left Repair.apply db
      (List.concat_map (Repair.suggest schema (Repair.filler ()) db) (Fast_detect.detect db sigma))
  in
  check_int "one round doubles it" 2 (violations one_round);
  let repaired = Repair.repair ~max_rounds:8 schema sigma db in
  check_int "no more than at the start" 1 (violations repaired);
  check_int "the input, untouched" 1 (Database.total_tuples repaired)

let test_repair_fillers_stay_apart () =
  (* psi : r[x, a; ] <= s[y, w; ] and f : s(z -> w) with (_ || _): the
     two inserted s tuples copy x and a, and fill z.  A shared filler on
     z would make them agree on f's X and differ on w, adding a
     violation; distinct fillers leave the database clean after one
     round. *)
  let str_attrs = List.map (fun a -> Attribute.make a Domain.string_inf) in
  let schema =
    Db_schema.make
      [ Schema.make "r" (str_attrs [ "x"; "a" ]); Schema.make "s" (str_attrs [ "y"; "z"; "w" ]) ]
  in
  let psi =
    Cind.make ~name:"psi" ~lhs:"r" ~rhs:"s" ~x:[ "x"; "a" ] ~xp:[] ~y:[ "y"; "w" ] ~yp:[]
      [ { Cind.cx = [ wildcard; wildcard ]; cxp = []; cy = [ wildcard; wildcard ]; cyp = [] } ]
  in
  let f =
    Cfd.make ~name:"f" ~rel:"s" ~x:[ "z" ] ~y:[ "w" ] [ { Cfd.rx = [ wildcard ]; ry = [ wildcard ] } ]
  in
  let sigma = { Sigma.ncfds = Cfd.normalize f; ncinds = Cind.normalize psi } in
  let db = Database.of_alist schema [ ("r", [ stup [ "x1"; "a1" ]; stup [ "x2"; "a2" ] ]) ] in
  check_int "two missing partners" 2 (List.length (Fast_detect.detect db sigma));
  let repaired = Repair.repair ~max_rounds:1 schema sigma db in
  check_bool "clean after one round" true (Detect_oracle.is_clean repaired sigma);
  let s = Relation.tuples (Database.relation repaired "s") in
  check_int "two inserted tuples" 2 (List.length s);
  check_bool "distinct fillers on z" true
    (match s with [ t1; t2 ] -> not (Value.equal (Tuple.get t1 1) (Tuple.get t2 1)) | _ -> false)

let test_report () =
  let report = Report.build B.dirty_db sigma_nf in
  check_bool "some violations" true (Report.count report > 0);
  let grouped = Report.by_constraint report in
  check_bool "grouped by name" true (List.mem_assoc "psi6" grouped);
  let rendered = Fmt.str "%a" Report.pp report in
  check_bool "report mentions psi6" true (contains_substring ~needle:"psi6" rendered)

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
                   (Detect_oracle.cfd_violations db nf)
                   (Cfd.nf_violations db nf)))
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
                   (Cind.nf_violations db nf)))
            (Cind.normalize cind))
        B.all_cinds)
    [ B.clean_db; B.dirty_db ]

let test_fast_detect_whole_sigma () =
  check_bool "same violations in the same order on the dirty bank" true
    (Detect_oracle.same_violations
       (Detect_oracle.detect B.dirty_db sigma_nf)
       (Fast_detect.detect B.dirty_db sigma_nf));
  check_bool "clean db is clean (fast)" true (Fast_detect.is_clean B.clean_db sigma_nf)

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
          Alcotest.test_case "repair skips rewritten tuples" `Quick
            test_repair_skips_rewritten_tuples;
          Alcotest.test_case "repair fillers stay apart" `Quick test_repair_fillers_stay_apart;
          Alcotest.test_case "repair never ends above its start" `Quick
            test_repair_never_ends_above_start;
          Alcotest.test_case "report" `Quick test_report;
        ] );
      ( "fast-detection",
        [
          Alcotest.test_case "agrees with reference on bank" `Quick
            test_fast_detect_agrees_on_bank;
          Alcotest.test_case "whole sigma" `Quick test_fast_detect_whole_sigma;
        ] );
      ( "matching",
        [
          Alcotest.test_case "migration" `Quick test_migration_from_empty_targets;
          Alcotest.test_case "context respected" `Quick test_migration_respects_context;
          Alcotest.test_case "field mapping" `Quick test_migrate_tuple_fields;
          Alcotest.test_case "coverage ranking" `Quick test_coverage;
        ] );
    ]
