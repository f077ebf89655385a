open Conddep_relational
open Conddep_core
open Conddep_sat
open Conddep_chase
open Conddep_consistency
open Conddep_generator
open Helpers

(* Resource governance: budget mechanics, graceful degradation of every
   engine under a deadline or fuel (Unknown, never a crash or a wrong
   answer), and determinism of budgeted verdicts. *)

let reason = Alcotest.testable Guard.pp_reason (fun a b -> a = b)

let check_reason = Alcotest.check reason

(* --- budget mechanics ------------------------------------------------------ *)

let test_unlimited () =
  check_bool "make () is unlimited" true (Guard.is_unlimited (Guard.make ()));
  let b = Guard.unlimited in
  Guard.with_ambient b (fun () ->
      for _ = 1 to 10_000 do
        Guard.tick ()
      done;
      Guard.check ());
  check_bool "unlimited never spends" true (Guard.state b = None)

let test_fuel_sticky () =
  let b = Guard.make ~fuel:3 () in
  Guard.with_ambient b @@ fun () ->
  Guard.tick ();
  Guard.tick ();
  Guard.tick ();
  (match Guard.tick () with
  | () -> Alcotest.fail "fuel should be exhausted"
  | exception Guard.Exhausted r -> check_reason "fuel reason" Guard.Fuel r);
  (* sticky: every subsequent poll raises the same reason *)
  (match Guard.check () with
  | () -> Alcotest.fail "spent budget must stay spent"
  | exception Guard.Exhausted r -> check_reason "sticky reason" Guard.Fuel r);
  check_bool "state reports spent" true (Guard.state b = Some Guard.Fuel)

let test_deadline () =
  let b = Guard.make ~timeout_s:0.02 () in
  let t0 = Unix.gettimeofday () in
  match
    Guard.with_ambient b (fun () ->
        while true do
          Guard.check ()
        done)
  with
  | () -> assert false
  | exception Guard.Exhausted r ->
      check_reason "deadline reason" Guard.Deadline r;
      check_bool "deadline prompt" true (Unix.gettimeofday () -. t0 < 1.0)

let test_ambient_scoping () =
  let outer = Guard.ambient () in
  let b = Guard.make ~fuel:10 () in
  Guard.with_ambient b (fun () ->
      check_bool "scoped ambient visible" true (Guard.ambient () == b));
  check_bool "ambient restored" true (Guard.ambient () == outer);
  (* ticks spend the scoped budget, and an exhaustion escaping the scope
     still restores the outer ambient, unspent *)
  (match
     Guard.with_ambient b (fun () ->
         for _ = 1 to 11 do
           Guard.tick ()
         done)
   with
  | () -> Alcotest.fail "the scoped fuel must run out"
  | exception Guard.Exhausted r -> check_reason "scoped reason" Guard.Fuel r);
  check_bool "ambient restored after exhaustion" true (Guard.ambient () == outer);
  check_bool "outer budget unspent" true (Guard.state outer = None)

(* --- SAT degradation -------------------------------------------------------- *)

(* random 3-CNF, same shape as test_sat's differential generator *)
let random_cnf rng ~num_vars ~num_clauses =
  let clause () =
    List.init 3 (fun _ ->
        let v = 1 + Rng.int rng num_vars in
        if Rng.bool rng then v else -v)
  in
  Cnf.make ~num_vars (List.init num_clauses (fun _ -> clause ()))

let test_sat_degrades_never_lies () =
  let rng = Rng.make 77 in
  let unknowns = ref 0 in
  for _ = 1 to 120 do
    let num_vars = 6 + Rng.int rng 8 in
    let cnf = random_cnf rng ~num_vars ~num_clauses:(4 * num_vars) in
    let truth =
      match Solver.solve_brute cnf with
      | Solver.Sat _ -> true
      | Solver.Unsat -> false
      | Solver.Unknown _ -> Alcotest.fail "brute force within its range"
    in
    (* starve the CDCL search: it may give up, but must never contradict *)
    match Guard.with_ambient (Guard.make ~fuel:8 ()) (fun () -> Solver.solve cnf) with
    | Solver.Sat model ->
        check_bool "claimed Sat has a model" true (Cnf.eval model cnf);
        check_bool "agrees with brute force" true truth
    | Solver.Unsat -> check_bool "agrees with brute force" false truth
    | Solver.Unknown r ->
        incr unknowns;
        check_reason "starved solver reports fuel" Guard.Fuel r
  done;
  check_bool "the tight limit actually bites" true (!unknowns > 0)

let test_brute_force_cap () =
  let cnf = Cnf.make ~num_vars:25 [ [ 1 ] ] in
  match Solver.solve_brute cnf with
  | Solver.Unknown r -> check_reason "typed give-up" Guard.Fuel r
  | _ -> Alcotest.fail "brute force beyond 24 variables must answer Unknown"

let test_sat_budget () =
  let rng = Rng.make 5 in
  let cnf = random_cnf rng ~num_vars:30 ~num_clauses:130 in
  match Guard.with_ambient (Guard.make ~fuel:3 ()) (fun () -> Solver.solve cnf) with
  | Solver.Unknown r -> check_reason "budgeted solve" Guard.Fuel r
  | _ -> Alcotest.fail "3 fuel cannot decide a 30-var instance"

(* --- a needle workload (hard for random search) ----------------------------- *)

let needle_schema_config relations =
  {
    Schema_gen.num_relations = relations;
    min_arity = 3;
    max_arity = 5;
    finite_ratio = 1.0;
    finite_dom_min = 2;
    finite_dom_max = 2;
  }

(* Needle CFDs joined with pattern-free CINDs: per-relation secrets are
   findable, the joint valuation is not, and every witness tuple triggers
   an inclusion — so Checking must actually search. *)
let needle_workload ~seed ~relations ~cinds =
  let rng = Rng.make seed in
  let schema = Schema_gen.generate rng (needle_schema_config relations) in
  let sigma = Workload.needle_cfds rng schema in
  let cind_config = { Workload.default with max_pattern = 0 } in
  let cinds =
    List.init cinds (Workload.gen_cind rng cind_config schema ~consistent:false)
  in
  (schema, { sigma with Sigma.ncinds = cinds })

let small_workload seed =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng { Schema_gen.default with num_relations = 4 }
  in
  let sigma =
    Workload.random rng { Workload.default with num_constraints = 24 } schema
  in
  (schema, sigma)

(* --- graceful degradation under deadlines ----------------------------------- *)

let test_checking_deadline () =
  let schema, sigma = needle_workload ~seed:3 ~relations:8 ~cinds:20 in
  let t0 = Unix.gettimeofday () in
  let result =
    Guard.with_ambient (Guard.make ~timeout_s:0.2 ()) (fun () ->
        Checking.check ~k:1_000_000 ~rng:(Rng.make 1) schema sigma)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check_bool "terminates promptly" true (elapsed < 2.0);
  match result with
  | Checking.Unknown r -> check_reason "deadline surfaced" Guard.Deadline r
  | Checking.Consistent _ | Checking.Inconsistent ->
      Alcotest.fail "the needle workload cannot be decided in 0.2s"

let test_implication_deadline () =
  (* exhaustion surfaces as a typed Undetermined, never as an exception *)
  let schema, sigma = needle_workload ~seed:3 ~relations:8 ~cinds:20 in
  match sigma.Sigma.ncinds with
  | [] -> Alcotest.fail "workload has CINDs"
  | psi :: rest -> (
      match
        Guard.with_ambient (Guard.make ~fuel:50 ()) (fun () ->
            Implication.decide schema ~sigma:rest psi)
      with
      | Implication.Implied | Implication.Not_implied ->
          () (* small instances may decide within the fuel *)
      | Implication.Undetermined r -> check_reason "fuel surfaced" Guard.Fuel r)

let test_random_checking_fuel_sweep () =
  (* RandomChecking's runs spend the ambient budget itself, so a caller's
     fuel holds inside every run: whichever tick it runs dry at, the
     search answers the unbudgeted verdict, witness included, or Unknown
     Fuel.  Fuel 0 allows no tick, so no run can finish; fuel 1, 4,
     16, ... cut later and later, and the first budget left unspent
     replays the unbudgeted run *)
  for seed = 1 to 30 do
    let rng = Rng.make seed in
    let schema =
      Schema_gen.generate rng { Schema_gen.default with num_relations = 4 }
    in
    let sigma =
      Workload.consistent rng { Workload.default with num_constraints = 24 }
        schema
    in
    let run budget =
      Guard.with_ambient budget @@ fun () ->
      match Random_checking.check ~rng:(Rng.make 2) schema sigma with
      | Random_checking.Consistent db -> Fmt.str "consistent:%a" Database.pp db
      | Random_checking.Unknown r -> "unknown:" ^ Guard.reason_to_string r
    in
    let baseline = run Guard.unlimited in
    let rec sweep fuel =
      let budget = Guard.make ~fuel () in
      let v = run budget in
      if Guard.state budget = None then
        check_string (Printf.sprintf "seed %d: fuel %d completes" seed fuel) baseline v
      else begin
        if v <> baseline && v <> "unknown:fuel" then
          Alcotest.failf "seed %d, fuel %d: %s, unbudgeted %s" seed fuel v baseline;
        sweep (4 * fuel)
      end
    in
    check_string (Printf.sprintf "seed %d: fuel 0 cuts" seed) "unknown:fuel"
      (run (Guard.make ~fuel:0 ()));
    sweep 1
  done

(* --- determinism of budgeted degradation ------------------------------------- *)

let describe_result = function
  | Checking.Consistent db -> Fmt.str "consistent:%a" Database.pp db
  | Checking.Inconsistent -> "inconsistent"
  | Checking.Unknown r -> Fmt.str "unknown:%s" (Guard.reason_to_string r)

let test_budgeted_determinism () =
  (* same schema, Σ, seed and fuel budget => byte-identical verdict+reason;
     fuel (unlike wall-clock) is exactly reproducible *)
  let run seed fuel =
    let schema, sigma = needle_workload ~seed:11 ~relations:6 ~cinds:12 in
    Guard.with_ambient (Guard.make ~fuel ()) @@ fun () ->
    describe_result (Checking.check ~k:50 ~rng:(Rng.make seed) schema sigma)
  in
  check_string "same budget, same verdict" (run 4 20_000) (run 4 20_000);
  check_string "other seed reproducible too" (run 9 1_000) (run 9 1_000)

let test_guards_disabled_identical () =
  (* An effectively-infinite budget must not perturb verdicts. *)
  let run budget =
    let schema, sigma = small_workload 21 in
    Guard.with_ambient budget @@ fun () ->
    describe_result (Checking.check ~rng:(Rng.make 2) schema sigma)
  in
  check_string "verdict unchanged under a huge budget" (run Guard.unlimited)
    (run (Guard.make ~fuel:max_int ()))

(* --- budget cuts: Unknown, never a crash --------------------------------------- *)

let test_checking_fuel_sweep () =
  (* Fuel cuts the pipeline at whichever tick it runs dry: every cut
     answers the unbudgeted verdict or Unknown Fuel, and the sweep both
     cuts and completes. *)
  let schema, sigma = finite_workload ~seed:5 ~relations:3 ~constraints:40 in
  let run budget =
    Guard.with_ambient budget @@ fun () ->
    describe_result (Checking.check ~rng:(Rng.make 2) schema sigma)
  in
  let baseline = run Guard.unlimited in
  let verdicts =
    List.map
      (fun fuel ->
        let v = run (Guard.make ~fuel ()) in
        if v <> baseline && v <> "unknown:fuel" then
          Alcotest.failf "fuel %d: %s, unbudgeted %s" fuel v baseline;
        v)
      (List.init 12 (fun i -> 1 lsl (2 * i)))
  in
  check_bool "small fuel cuts the run" true (List.mem "unknown:fuel" verdicts);
  check_bool "large fuel completes" true (List.mem baseline verdicts);
  check_string "a spent budget cuts at entry" "unknown:fuel"
    (run (spent_fuel ()))

let test_random_checking_fuel () =
  let schema, sigma = small_workload 13 in
  match
    Guard.with_ambient (spent_fuel ()) (fun () ->
        Random_checking.check ~rng:(Rng.make 2) schema sigma)
  with
  | Random_checking.Unknown r -> check_reason "reason" Guard.Fuel r
  | Random_checking.Consistent _ -> Alcotest.fail "a spent budget must cut"

let test_chase_fuel () =
  let schema, sigma = small_workload 13 in
  let compiled = Chase.compile schema sigma in
  match
    Guard.with_ambient (spent_fuel ()) (fun () ->
        Chase_oracle.run ~config:Chase.default_config ~rng:(Rng.make 3) compiled
          (Chase.seed_tuple schema ~rel:(List.hd (Db_schema.rel_names schema))))
  with
  | Chase_oracle.Exhausted r -> check_reason "reason" Guard.Fuel r
  | Chase_oracle.Terminal _ | Chase_oracle.Undefined _ -> Alcotest.fail "a spent budget must cut"

let test_sat_fuel () =
  (* two clauses that need a decision, and a decision ticks the budget *)
  match
    Guard.with_ambient (spent_fuel ()) (fun () ->
        Solver.solve (Cnf.make ~num_vars:2 [ [ 1; 2 ]; [ -1; -2 ] ]))
  with
  | Solver.Unknown r -> check_reason "reason" Guard.Fuel r
  | _ -> Alcotest.fail "a spent budget must surface as Unknown"

let test_sat_exhaustion_surfaces () =
  (* a SAT run cut by the budget reaches the caller as that exhaustion,
     at the CFD layer and through the whole pipeline: there is no
     fallback to the chase backend *)
  let rng = Rng.make 5 in
  let schema =
    Schema_gen.generate rng { Schema_gen.default with num_relations = 4 }
  in
  let sigma =
    Workload.consistent rng { Workload.default with num_constraints = 24 }
      schema
  in
  (match
     Guard.with_ambient (spent_fuel ()) (fun () ->
         Cfd_checking.consistent_rel ~backend:Cfd_checking.Sat_backend
           ~rng:(Rng.make 3) schema sigma.Sigma.ncfds
           ~rel:(List.hd (Db_schema.rel_names schema)))
   with
  | _ -> Alcotest.fail "consistent_rel: a spent budget must raise"
  | exception Guard.Exhausted r -> check_reason "consistent_rel raises" Guard.Fuel r);
  check_string "Checking answers Unknown" "unknown:fuel"
    (Guard.with_ambient (spent_fuel ()) (fun () ->
         describe_result
           (Checking.check ~backend:Cfd_checking.Sat_backend ~rng:(Rng.make 2)
              schema sigma)))

let test_bool_api_fuel () =
  (* three-valued APIs answer [Undetermined Fuel]; the option API lets
     [Exhausted Fuel] propagate — typed, not a crash *)
  let schema, sigma = small_workload 13 in
  let expect_undetermined what = function
    | Implication.Undetermined r -> check_reason what Guard.Fuel r
    | o ->
        Alcotest.failf "%s: expected Undetermined Fuel, got %a" what
          Implication.pp_outcome o
  in
  (match sigma.Sigma.ncinds with
  | psi :: rest ->
      expect_undetermined "Implication"
        (Guard.with_ambient (spent_fuel ()) (fun () ->
             Implication.decide schema ~sigma:rest psi))
  | [] -> Alcotest.fail "workload has CINDs");
  match sigma.Sigma.ncfds with
  | phi :: rest -> (
      expect_undetermined "Cfd_implication"
        (Guard.with_ambient (spent_fuel ()) (fun () ->
             Cfd_implication.decide schema ~sigma:rest phi));
      match
        Guard.with_ambient (spent_fuel ()) (fun () ->
            Cfd_consistency.consistent_rel schema ~rel:phi.Cfd.nf_rel
              sigma.Sigma.ncfds)
      with
      | _ -> Alcotest.fail "Cfd_consistency: a spent budget must raise"
      | exception Guard.Exhausted r -> check_reason "Cfd_consistency" Guard.Fuel r)
  | [] -> Alcotest.fail "workload has CFDs"

let () =
  Alcotest.run "guard"
    [
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick test_unlimited;
          Alcotest.test_case "fuel exhaustion is sticky" `Quick test_fuel_sticky;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "ambient scoping" `Quick test_ambient_scoping;
        ] );
      ( "sat",
        [
          Alcotest.test_case "starved CDCL never lies" `Quick
            test_sat_degrades_never_lies;
          Alcotest.test_case "brute force cap is typed" `Quick test_brute_force_cap;
          Alcotest.test_case "budgeted solve" `Quick test_sat_budget;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "Checking under a deadline" `Quick
            test_checking_deadline;
          Alcotest.test_case "implication under fuel" `Quick
            test_implication_deadline;
          Alcotest.test_case "RandomChecking under a fuel sweep" `Quick
            test_random_checking_fuel_sweep;
          Alcotest.test_case "budgeted verdicts are deterministic" `Quick
            test_budgeted_determinism;
          Alcotest.test_case "guards disabled: verdicts unchanged" `Quick
            test_guards_disabled_identical;
        ] );
      ( "faults",
        [
          Alcotest.test_case "Checking pipeline sweep" `Quick
            test_checking_fuel_sweep;
          Alcotest.test_case "RandomChecking" `Quick test_random_checking_fuel;
          Alcotest.test_case "chase" `Quick test_chase_fuel;
          Alcotest.test_case "sat" `Quick test_sat_fuel;
          Alcotest.test_case "boolean APIs raise typed" `Quick test_bool_api_fuel;
          Alcotest.test_case
            "SAT exhaustion surfaces at the CFD layer and through Checking"
            `Quick test_sat_exhaustion_surfaces;
        ] );
    ]
