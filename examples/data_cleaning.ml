(* Data cleaning at scale on a synthetic dirty dataset: generate a schema
   and a consistent constraint set, corrupt a database, detect violations,
   apply suggested repairs, and re-verify.

     dune exec examples/data_cleaning.exe *)

open Conddep_relational
open Conddep_core
open Conddep_generator
open Conddep_cleaning

let () =
  let rng = Rng.make 2024 in
  let schema_config =
    {
      Schema_gen.num_relations = 5;
      min_arity = 3;
      max_arity = 6;
      finite_ratio = 0.2;
      finite_dom_min = 2;
      finite_dom_max = 6;
    }
  in
  let schema = Schema_gen.generate rng schema_config in
  Fmt.pr "=== Generated schema ===@.%a@.@." Db_schema.pp schema;

  let sigma =
    Workload.consistent rng { Workload.default with num_constraints = 30 } schema
  in
  Fmt.pr "=== Generated constraints: %d CFDs, %d CINDs ===@."
    (List.length sigma.Sigma.ncfds)
    (List.length sigma.Sigma.ncinds);

  (* A clean database exists by construction. *)
  let clean = Workload.witness_db schema in
  Fmt.pr "clean witness database satisfies sigma: %b@.@." (Sigma.nf_holds clean sigma);

  (* Corrupt a larger database. *)
  let dirty = Workload.dirty_database rng schema ~tuples_per_rel:20 ~error_rate:0.15 in
  let report = Report.build dirty sigma in
  Fmt.pr "=== Dirty database: %d tuples ===@." (Database.total_tuples dirty);
  Fmt.pr "violations detected: %d@." (Report.count report);
  List.iter
    (fun (name, vs) -> Fmt.pr "  %-10s %d violation(s)@." name (List.length vs))
    (Report.by_constraint report);

  (* Repair and re-verify. *)
  let repaired = Repair.repair ~max_rounds:10 schema sigma dirty in
  let after = Report.build repaired sigma in
  Fmt.pr "@.=== After repair ===@.";
  Fmt.pr "violations remaining: %d (database now %d tuples)@." (Report.count after)
    (Database.total_tuples repaired);
  Fmt.pr "clean: %b@." (Fast_detect.is_clean repaired sigma);

  (* Show a few concrete repair suggestions on the original dirty data. *)
  Fmt.pr "@.=== Sample repair suggestions ===@.";
  let violations = Fast_detect.detect dirty sigma in
  List.iteri
    (fun i v ->
      if i < 5 then
        List.iter
          (fun action -> Fmt.pr "  %a@." Repair.pp_action action)
          (Repair.suggest schema v))
    violations
