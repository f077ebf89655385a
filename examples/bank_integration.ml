(* The paper's running example end to end (Examples 1.1, 1.2, 2.2, 4.1):
   contextual schema matching from per-branch account relations into the
   integrated saving/checking/interest database, and detection of the
   errors traditional FDs/INDs miss.

     dune exec examples/bank_integration.exe *)

open Conddep_relational
open Conddep_core
module B = Conddep_fixtures.Bank

let () =
  Fmt.pr "=== Schemas (Example 1.1) ===@.%a@.@." Db_schema.pp B.schema;

  Fmt.pr "=== The CINDs of Fig 2 and CFDs of Fig 4 ===@.%a@.@." Sigma.pp B.sigma;

  (* --- contextual schema matching: migrate source accounts --------------- *)
  let migration =
    List.concat_map Cind.normalize [ B.psi1_nyc; B.psi1_edi; B.psi2_nyc; B.psi2_edi ]
  in
  let source =
    Database.of_alist B.schema
      [ ("account_nyc", [ B.t1; B.t2; B.t3 ]); ("account_edi", [ B.t4; B.t5 ]) ]
  in
  let migrated = Conddep_matching.Mapping.execute B.schema migration source in
  Fmt.pr "=== Migration driven by psi1/psi2 (contextual matching) ===@.";
  Fmt.pr "%a@.%a@.@."
    Relation.pp (Database.relation migrated "saving")
    Relation.pp (Database.relation migrated "checking");
  Fmt.pr "all migration CINDs hold afterwards: %b@.@."
    (Conddep_matching.Mapping.verify migrated migration);

  (* --- data cleaning: the Fig 1 instance ---------------------------------- *)
  Fmt.pr "=== Fig 1 database: traditional dependencies are satisfied ===@.";
  let fds =
    [
      Fd.make ~rel:"saving" ~x:[ "an"; "ab" ] ~y:[ "cn"; "ca"; "cp" ];
      Fd.make ~rel:"checking" ~x:[ "an"; "ab" ] ~y:[ "cn"; "ca"; "cp" ];
      Fd.make ~rel:"interest" ~x:[ "ct"; "at" ] ~y:[ "rt" ];
    ]
  in
  let inds =
    [
      Ind.make ~lhs:"saving" ~x:[ "ab" ] ~rhs:"interest" ~y:[ "ab" ];
      Ind.make ~lhs:"checking" ~x:[ "ab" ] ~rhs:"interest" ~y:[ "ab" ];
    ]
  in
  List.iter (fun fd -> Fmt.pr "  %a holds: %b@." Fd.pp fd (Fd.holds B.dirty_db fd)) fds;
  List.iter (fun ind -> Fmt.pr "  %a holds: %b@." Ind.pp ind (Ind.holds B.dirty_db ind)) inds;

  Fmt.pr "@.=== ... but the conditional dependencies catch the errors ===@.";
  let nf = Sigma.normalize B.sigma in
  let report = Conddep_cleaning.Report.build B.dirty_db nf in
  Fmt.pr "%a@." Conddep_cleaning.Report.pp report;

  (* --- repair -------------------------------------------------------------- *)
  let repaired = Conddep_cleaning.Repair.repair ~max_rounds:8 B.schema nf B.dirty_db in
  Fmt.pr "=== After repair ===@.";
  Fmt.pr "violations left: %d@."
    (List.length (Conddep_cleaning.Fast_detect.detect repaired nf));
  Fmt.pr "interest after repair:@.%a@." Relation.pp (Database.relation repaired "interest")
