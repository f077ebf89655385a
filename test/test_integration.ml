open Conddep_relational
open Conddep_core
open Conddep_dsl
open Conddep_cleaning
open Conddep_consistency
open Conddep_generator
open Helpers

(* End-to-end flows across libraries: the workflows a user of the library
   actually runs, chained together. *)

module B = Conddep_fixtures.Bank

(* Flow 1: parse the shipped constraint file, confirm its constraint set is
   consistent, detect the planted errors, repair, re-verify cleanliness. *)
let test_parse_check_clean_repair () =
  let doc = ok_or_fail (Parser.parse_file (data_file "bank.cind")) in
  let nf = Sigma.normalize doc.Parser.sigma in
  (match Checking.check ~k:60 ~rng:(Rng.make 3) doc.Parser.schema nf with
  | Checking.Consistent witness ->
      check_bool "witness verified" true (Sigma.nf_holds witness nf)
  | Checking.Inconsistent -> Alcotest.fail "bank constraints are consistent"
  | Checking.Unknown _ -> Alcotest.fail "Checking should close the bank file");
  let db = ok_or_fail (Parser.database doc) in
  let before = Fast_detect.detect db nf in
  check_int "two planted errors" 2 (List.length before);
  let repaired = Repair.repair ~max_rounds:8 doc.Parser.schema nf db in
  check_bool "clean after repair" true (Detect_oracle.is_clean repaired nf)

(* Flow 2: generate a workload, print it through the DSL, re-parse it, and
   confirm the round-tripped constraints behave identically. *)
let test_generate_print_reparse () =
  let rng = Rng.make 77 in
  let schema =
    Schema_gen.generate rng
      {
        Schema_gen.num_relations = 4;
        min_arity = 2;
        max_arity = 4;
        finite_ratio = 0.3;
        finite_dom_min = 2;
        finite_dom_max = 4;
      }
  in
  let sigma = Workload.consistent rng { Workload.default with num_constraints = 20 } schema in
  let doc = { Parser.schema; sigma = Sigma.of_nf sigma; instances = [] } in
  let doc' = ok_or_fail (Parser.parse (Printer.document_to_string doc)) in
  let nf' = Sigma.normalize doc'.Parser.sigma in
  check_int "same CIND count" (List.length sigma.Sigma.ncinds) (List.length nf'.Sigma.ncinds);
  check_int "same CFD count" (List.length sigma.Sigma.ncfds) (List.length nf'.Sigma.ncfds);
  (* the hidden witness still satisfies the re-parsed constraints *)
  let witness = Workload.witness_db schema in
  check_bool "witness satisfies round-trip" true (Sigma.nf_holds witness nf')

(* Flow 3: migration as repair — executing the contextual mappings on a
   database with missing target rows is exactly a CIND repair. *)
let test_migration_equals_repair () =
  let src =
    Database.of_alist B.schema
      [ ("account_nyc", [ B.t1; B.t2; B.t3 ]); ("account_edi", [ B.t4; B.t5 ]) ]
  in
  let mappings =
    List.concat_map Cind.normalize [ B.psi1_nyc; B.psi1_edi; B.psi2_nyc; B.psi2_edi ]
  in
  let migrated = Conddep_matching.Mapping.execute B.schema mappings src in
  let repaired =
    Repair.repair ~max_rounds:4 B.schema { Sigma.ncfds = []; ncinds = mappings } src
  in
  (* both leave the mappings satisfied... *)
  check_bool "migrated satisfies" true (List.for_all (Cind.nf_holds migrated) mappings);
  check_bool "repaired satisfies" true (List.for_all (Cind.nf_holds repaired) mappings);
  (* ...and agree on which account numbers land in saving *)
  let ans db =
    Relation.fold
      (fun t acc -> Tuple.get t 0 :: acc)
      (Database.relation db "saving")
      []
    |> List.sort Value.compare
  in
  check_bool "same saving keys" true (List.equal Value.equal (ans migrated) (ans repaired))

(* Flow 4: semantic implication, syntactic derivation and the FO reading
   must tell one coherent story on a derived constraint. *)
let test_three_views_of_implication () =
  let schema =
    Db_schema.make
      [
        Schema.make "orders"
          [ Attribute.make "pid" Domain.string_inf; Attribute.make "tier" Domain.string_inf ];
        Schema.make "stock" [ Attribute.make "pid" Domain.string_inf ];
        Schema.make "audit" [ Attribute.make "pid" Domain.string_inf ];
      ]
  in
  let nf name lhs rhs xp =
    Cind.canon_nf
      {
        Cind.nf_name = name;
        nf_lhs = lhs;
        nf_rhs = rhs;
        nf_x = [ "pid" ];
        nf_y = [ "pid" ];
        nf_xp = xp;
        nf_yp = [];
      }
  in
  let sigma = [ nf "os" "orders" "stock" [ ("tier", str "gold") ]; nf "sa" "stock" "audit" [] ] in
  let goal = nf "oa" "orders" "audit" [ ("tier", str "gold") ] in
  (* semantic *)
  check_bool "semantically implied" true
    (Implication.decide schema ~sigma goal = Implication.Implied);
  (* syntactic *)
  let proof =
    match Proof_search.derive schema ~sigma goal with
    | Some p -> p
    | None -> Alcotest.fail "proof search failed"
  in
  (match Inference.proves schema ~sigma proof goal with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "proof rejected: %s" m);
  (* model-theoretic: any database satisfying sigma's FO readings also
     satisfies the goal's *)
  let db =
    Database.of_alist schema
      [
        ("orders", [ Tuple.make [ str "p1"; str "gold" ]; Tuple.make [ str "p2"; str "basic" ] ]);
        ("stock", [ Tuple.make [ str "p1" ] ]);
        ("audit", [ Tuple.make [ str "p1" ] ]);
      ]
  in
  let fo nf = Logic_eval.holds db (Logic.cind_to_formula schema nf) in
  check_bool "db satisfies sigma (FO)" true (List.for_all fo sigma);
  check_bool "db satisfies goal (FO)" true (fo goal)

(* Flow 5: the witness construction feeds straight back into detection —
   a Thm 3.2 witness must come out clean. *)
let test_witness_is_clean () =
  let sigma = List.concat_map Cind.normalize B.all_cinds in
  let db = Witness.database B.schema sigma in
  check_bool "no CIND violations in the witness" true
    (Fast_detect.is_clean db { Sigma.ncfds = []; ncinds = sigma })

(* Flow 6: CSV round-trip into violation detection. *)
let test_csv_to_detection () =
  let interest = Db_schema.find B.schema "interest" in
  let rel = Database.relation B.dirty_db "interest" in
  let reparsed = ok_or_fail (Csv.parse_string interest (Csv.to_string rel)) in
  let db = Database.set_relation (Database.empty B.schema) reparsed in
  let phi3 = { Sigma.ncfds = Cfd.normalize B.phi3; ncinds = [] } in
  check_int "t12's error survives the CSV round-trip" 1
    (List.length (Fast_detect.detect db phi3))

let () =
  Alcotest.run "integration"
    [
      ( "flows",
        [
          Alcotest.test_case "parse, check, clean, repair" `Quick
            test_parse_check_clean_repair;
          Alcotest.test_case "generate, print, reparse" `Quick
            test_generate_print_reparse;
          Alcotest.test_case "migration equals CIND repair" `Quick
            test_migration_equals_repair;
          Alcotest.test_case "three views of implication" `Quick
            test_three_views_of_implication;
          Alcotest.test_case "Thm 3.2 witness is clean" `Quick test_witness_is_clean;
          Alcotest.test_case "CSV to detection" `Quick test_csv_to_detection;
        ] );
    ]
