open Conddep_relational
open Conddep_chase
open Conddep_consistency
open Conddep_generator
open Helpers

(* The delta-driven chase's differential guarantee (DESIGN.md §10): it
   executes the same canonical operation schedule as the full-rescan
   reference chase in [Chase_oracle], so for equal inputs and random seeds
   the two engines produce bit-identical outcomes and final templates.
   Plus budget cuts at the engine's entry points. *)

let small_workload seed =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng { Schema_gen.default with num_relations = 4 }
  in
  let sigma =
    Workload.random rng { Workload.default with num_constraints = 24 } schema
  in
  (schema, sigma)

(* Printed form = structural identity: Template.pp prints tuples in list
   order, so equal strings mean equal templates including internal order. *)
let outcome_repr = function
  | Chase.Terminal t -> Fmt.str "terminal:%a" Template.pp t
  | Chase.Undefined r -> "undefined:" ^ r
  | Chase.Exhausted r -> "exhausted:" ^ Guard.reason_to_string r

let same_outcome seed delta reference =
  (match (delta, reference) with
  | Chase.Terminal t1, Chase.Terminal t2 ->
      if not (Template.equal t1 t2) then
        Alcotest.failf "seed %d: Template.equal failed" seed
  | _ -> ());
  String.equal (outcome_repr delta) (outcome_repr reference)

let prop_chase_equiv ~instantiated seed =
  let schema, sigma = small_workload seed in
  let compiled = Chase.compile schema sigma in
  let seed_db = Chase.seed_tuple schema ~rel:(List.hd (Db_schema.rel_names schema)) in
  let rng () = Rng.make ((seed * 7) + 1) in
  let config = Chase.default_config in
  same_outcome seed
    (Chase.run ~instantiated ~config ~rng:(rng ()) schema compiled seed_db)
    (Chase_oracle.run ~instantiated ~config ~rng:(rng ()) schema compiled seed_db)

(* The CFD-only fixpoint CFD_Checking runs, on the multi-tuple templates
   an IND-only chase grows from the seed tuple. *)
let prop_fd_fixpoint_equiv seed =
  let schema, sigma = small_workload seed in
  let compiled = Chase.compile schema sigma in
  let grown =
    Chase.run ~config:Chase.default_config ~rng:(Rng.make seed) schema
      { compiled with Chase.cfds = [] }
      (Chase.seed_tuple schema ~rel:(List.hd (Db_schema.rel_names schema)))
  in
  match grown with
  | Chase.Terminal db ->
      same_outcome seed
        (Chase.fd_fixpoint compiled.Chase.cfds db)
        (Chase_oracle.fd_fixpoint compiled.Chase.cfds db)
  | _ -> true

let seed_gen lo hi =
  QCheck.make ~print:string_of_int QCheck.Gen.(int_range lo hi)

(* --- budget cuts at the engine's entry points ------------------------------------ *)

let test_run_spent_fuel () =
  let schema, sigma = small_workload 13 in
  let compiled = Chase.compile schema sigma in
  match
    Chase.run ~budget:(spent_fuel ()) ~config:Chase.default_config
      ~rng:(Rng.make 3) schema compiled
      (Chase.seed_tuple schema ~rel:(List.hd (Db_schema.rel_names schema)))
  with
  | Chase.Exhausted Guard.Fuel -> ()
  | r -> Alcotest.failf "expected Exhausted fuel, got %s" (outcome_repr r)

let test_random_checking_spent_fuel () =
  let schema, sigma = small_workload 13 in
  match
    Random_checking.check ~budget:(spent_fuel ()) ~rng:(Rng.make 2) schema
      sigma
  with
  | Random_checking.Unknown Guard.Fuel -> ()
  | Random_checking.Unknown r ->
      Alcotest.failf "expected fuel, got %s" (Guard.reason_to_string r)
  | Random_checking.Consistent _ -> Alcotest.fail "a spent budget must cut"

let () =
  Alcotest.run "chase_engines"
    [
      ( "equivalence",
        [
          qtest ~count:40 "chase outcomes identical across engines"
            (seed_gen 0 500)
            (prop_chase_equiv ~instantiated:false);
          qtest ~count:40 "instantiated chase identical across engines"
            (seed_gen 501 1000)
            (prop_chase_equiv ~instantiated:true);
          qtest ~count:40 "CFD fixpoint identical across engines" (seed_gen 0 500)
            prop_fd_fixpoint_equiv;
        ] );
      ( "faults",
        [
          Alcotest.test_case "chase.run stops on spent fuel" `Quick
            test_run_spent_fuel;
          Alcotest.test_case "RandomChecking stops on spent fuel" `Quick
            test_random_checking_spent_fuel;
        ] );
    ]
