open Conddep_relational
open Conddep_consistency
open Conddep_generator
open Helpers

(* The supervision layer: retry/backoff mechanics, faults that surface
   without a fallback, the probe registry, and the property the layer
   must never violate — a retried run answers bit-identically to the
   fault-free run, or with a typed Unknown, never differently. *)

let policy ~retries = { Supervise.Policy.retries }

let reason = Alcotest.testable Guard.pp_reason (fun a b -> a = b)
let check_reason = Alcotest.check reason

(* --- with_retry mechanics ----------------------------------------------------- *)

let test_done_never_retried () =
  let budget = Guard.make () in
  let calls = ref 0 in
  (match
     Supervise.with_retry ~policy:(policy ~retries:5) ~budget
       (fun ~attempt ->
         incr calls;
         Supervise.Done (attempt, "verdict"))
   with
  | Ok (0, "verdict") -> ()
  | Ok _ -> Alcotest.fail "first attempt's value expected"
  | Error _ -> Alcotest.fail "Done cannot give up");
  check_int "a definitive answer is returned immediately" 1 !calls

let test_transient_then_done () =
  let budget = Guard.make () in
  let seen = ref [] in
  (match
     Supervise.with_retry ~policy:(policy ~retries:3) ~budget
       (fun ~attempt ->
         seen := attempt :: !seen;
         if attempt < 2 then Supervise.Transient (Guard.Fault "test.flaky")
         else Supervise.Done (attempt * 10))
   with
  | Ok v -> check_int "value from the third attempt" 20 v
  | Error _ -> Alcotest.fail "recovers within the allowance");
  Alcotest.(check (list int)) "attempt numbers" [ 0; 1; 2 ] (List.rev !seen)

let test_gives_up_after_retries () =
  let budget = Guard.make () in
  let calls = ref 0 in
  (match
     Supervise.with_retry ~policy:(policy ~retries:2) ~budget
       (fun ~attempt:_ ->
         incr calls;
         Supervise.Transient (Guard.Fault "test.permanent"))
   with
  | Ok _ -> Alcotest.fail "never succeeds"
  | Error (Guard.Fault s) -> check_string "original reason" "test.permanent" s
  | Error r -> Alcotest.failf "wrong reason %s" (Guard.reason_to_string r));
  check_int "initial attempt + 2 retries" 3 !calls

let test_exhausted_is_caught_as_transient () =
  let budget = Guard.make () in
  let r =
    Supervise.with_retry ~policy:(policy ~retries:1) ~budget
      (fun ~attempt ->
        if attempt = 0 then raise (Guard.Exhausted (Guard.Fault "test.raise"))
        else Supervise.Done "recovered")
  in
  (match r with
  | Ok v -> check_string "raise retried like Transient" "recovered" v
  | Error _ -> Alcotest.fail "one retry suffices")

let test_backoff_spends_the_budget () =
  (* fuel 100 affords the first 64-step slice but not the 128-step one:
     the backoff itself must turn the second retry into a give-up that
     reports the budget's own sticky reason *)
  let budget = Guard.make ~fuel:100 () in
  let calls = ref 0 in
  (match
     Supervise.with_retry ~policy:(policy ~retries:5) ~budget
       (fun ~attempt:_ ->
         incr calls;
         Supervise.Transient (Guard.Fault "test.flaky"))
   with
  | Ok _ -> Alcotest.fail "never succeeds"
  | Error r -> check_reason "budget's own reason, not the fault" Guard.Fuel r);
  check_int "second slice exceeded the fuel" 2 !calls

let test_spent_budget_never_retries () =
  let budget = Guard.make ~fuel:10 () in
  (try Guard.tick ~cost:100 budget with Guard.Exhausted _ -> ());
  let calls = ref 0 in
  (match
     Supervise.with_retry ~policy:(policy ~retries:5) ~budget
       (fun ~attempt:_ ->
         incr calls;
         Supervise.Transient (Guard.Fault "test.flaky"))
   with
  | Ok _ -> Alcotest.fail "never succeeds"
  | Error r -> check_reason "sticky budget reason" Guard.Fuel r);
  check_int "no retry against a spent budget" 1 !calls

(* --- transient classification -------------------------------------------------- *)

let test_transient_classification () =
  let fresh = Guard.make () in
  check_bool "fault is transient" true
    (Supervise.transient ~shared:fresh (Guard.Fault "x"));
  check_bool "memory is transient" true
    (Supervise.transient ~shared:fresh Guard.Memory);
  check_bool "fuel give-up is deterministic, not transient" false
    (Supervise.transient ~shared:fresh Guard.Fuel);
  check_bool "deadline is not transient" false
    (Supervise.transient ~shared:fresh Guard.Deadline);
  let spent = Guard.make ~fuel:1 () in
  (try Guard.tick ~cost:10 spent with Guard.Exhausted _ -> ());
  check_bool "nothing is transient once the shared budget is spent" false
    (Supervise.transient ~shared:spent (Guard.Fault "x"))

(* --- retry determinism ------------------------------------------------------------ *)

let describe = function
  | Checking.Consistent db -> Fmt.str "consistent:%a" Database.pp db
  | Checking.Inconsistent -> "inconsistent"
  | Checking.Unknown r -> Fmt.str "unknown:%s" (Guard.reason_to_string r)

let gen_workload ~consistent seed =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng { Schema_gen.default with num_relations = 4 }
  in
  let gen = if consistent then Workload.consistent else Workload.random in
  (schema, gen rng { Workload.default with num_constraints = 24 } schema)

let with_arm ~site ?after ?times f =
  Guard.arm ~site ?after ?times ();
  Fun.protect ~finally:(fun () -> Guard.disarm ~site) f

let test_retry_determinism () =
  (* a transient fault (one fire) on the pipeline entry probe or on the
     RandomChecking entry probe: the supervised retry replays the entry
     rng, so the recovered verdict is bit-identical to the fault-free
     baseline *)
  let schema, sigma = gen_workload ~consistent:true 5 in
  let p = policy ~retries:2 in
  let baseline =
    describe (Checking.check ~policy:p ~rng:(Rng.make 2) schema sigma)
  in
  check_bool "baseline is a witness" true
    (String.length baseline >= 10 && String.sub baseline 0 10 = "consistent");
  List.iter
    (fun site ->
      check_string
        (site ^ " fault: the retry recovers the fault-free verdict")
        baseline
        (with_arm ~site ~after:0 ~times:1 (fun () ->
             describe
               (Checking.check ~policy:p ~rng:(Rng.make 2) schema sigma))))
    [ "checking.check"; "checking.random" ]

let test_permanent_fault_never_flips_to_definitive () =
  (* an unlimited fault at the pipeline entry: every retry re-faults, so
     the supervised answer must stay a typed Unknown — a definitive
     verdict here would be fabricated *)
  let schema, sigma = gen_workload ~consistent:true 5 in
  let p = policy ~retries:2 in
  let v =
    with_arm ~site:"checking.check" (fun () ->
        describe (Checking.check ~policy:p ~rng:(Rng.make 2) schema sigma))
  in
  check_string "typed unknown, not an invented verdict"
    "unknown:fault:checking.check" v

(* --- faults surface: no SAT -> chase fallback ----------------------------------- *)

let test_sat_fault_surfaces () =
  (* Without GUARD_FAULTS: an armed [sat.solve] must reach the caller as
     the fault it is, at the CFD layer and through the whole pipeline *)
  let schema, sigma = gen_workload ~consistent:true 5 in
  let rel = List.hd (Db_schema.rel_names schema) in
  with_arm ~site:"sat.solve" (fun () ->
      (match
         Cfd_checking.consistent_rel ~backend:Cfd_checking.Sat_backend
           ~rng:(Rng.make 3) schema sigma.Conddep_core.Sigma.ncfds ~rel
       with
      | _ -> Alcotest.fail "consistent_rel: armed sat.solve must raise"
      | exception Guard.Exhausted r ->
          check_reason "consistent_rel raises the fault"
            (Guard.Fault "sat.solve") r);
      check_string "Checking answers the fault"
        "unknown:fault:sat.solve"
        (describe
           (Checking.check ~backend:Cfd_checking.Sat_backend
              ~policy:(policy ~retries:2) ~rng:(Rng.make 2) schema sigma)))

(* --- the probe registry ----------------------------------------------------------- *)

let test_probe_registry_complete () =
  (* Exercise the main engines, then assert no probe fired unregistered:
     a probe site added without [register_probe] would be invisible to
     the chaos sweep's schedule generator. *)
  let schema, sigma = gen_workload ~consistent:true 5 in
  ignore (Checking.check ~rng:(Rng.make 2) schema sigma);
  ignore
    (Cfd_checking.consistent_rel ~backend:Cfd_checking.Sat_backend
       ~rng:(Rng.make 3) schema sigma.Conddep_core.Sigma.ncfds
       ~rel:(List.hd (Db_schema.rel_names schema)));
  Alcotest.(check (list string))
    "every fired probe is registered" []
    (Guard.unregistered_probes ());
  check_bool "the registry is populated" true
    (List.length (Guard.all_probes ()) >= 10);
  check_bool "known site listed" true
    (List.mem "checking.random" (Guard.all_probes ()));
  (* and the detector actually detects: an unregistered site that fires
     shows up (this pollutes the table, so it stays last in this test) *)
  Guard.probe "test.unregistered.site";
  check_bool "unregistered firing is caught" true
    (List.mem "test.unregistered.site" (Guard.unregistered_probes ()))

let () =
  Alcotest.run "supervise"
    [
      ( "with_retry",
        [
          Alcotest.test_case "Done is never retried" `Quick
            test_done_never_retried;
          Alcotest.test_case "transient retries then succeeds" `Quick
            test_transient_then_done;
          Alcotest.test_case "gives up after the allowance" `Quick
            test_gives_up_after_retries;
          Alcotest.test_case "Exhausted raise treated as transient" `Quick
            test_exhausted_is_caught_as_transient;
          Alcotest.test_case "backoff slice spends the budget" `Quick
            test_backoff_spends_the_budget;
          Alcotest.test_case "spent budget never retries" `Quick
            test_spent_budget_never_retries;
          Alcotest.test_case "transient classification" `Quick
            test_transient_classification;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "retry recovers identical verdict at either probe"
            `Quick test_retry_determinism;
          Alcotest.test_case "permanent fault stays a typed Unknown" `Quick
            test_permanent_fault_never_flips_to_definitive;
        ] );
      ( "faults",
        [
          Alcotest.test_case "SAT fault surfaces, no chase fallback" `Quick
            test_sat_fault_surfaces;
        ] );
      ( "registry",
        [
          Alcotest.test_case "no probe fires unregistered" `Quick
            test_probe_registry_complete;
        ] );
    ]
