open Helpers

(* The chaos harness: schedule (de)serialization, the verdict-identity
   sweep, and shrinking.  The sweep itself is the moving part — every
   round must end baseline-identical or typed-Unknown, never with a
   different definitive verdict. *)

let env_faults_armed =
  match Sys.getenv_opt "GUARD_FAULTS" with
  | None | Some "" -> false
  | Some _ -> true

let sched ?(arms = []) () =
  {
    Chaos.s_seed = 3;
    s_round = 1;
    s_workload_seed = 17;
    s_check_seed = 23;
    s_relations = 4;
    s_constraints = 24;
    s_arms = arms;
  }

let arms3 =
  [
    { Chaos.site = "checking.random"; after = 6; times = 1 };
    { Chaos.site = "chase.run"; after = 0; times = 0 };
    { Chaos.site = "sat.solve"; after = 3; times = 2 };
  ]

(* --- .chaos.json round-trips --------------------------------------------------- *)

let test_json_roundtrip () =
  let s = sched ~arms:arms3 () in
  (match Chaos.of_json (Chaos.to_json s) with
  | Ok s' -> check_bool "round-trips structurally" true (s = s')
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  (* arms order and empty-arm schedules too *)
  match Chaos.of_json (Chaos.to_json (sched ())) with
  | Ok s' -> check_bool "no-arm schedule round-trips" true (s' = sched ())
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_json_rejects_garbage () =
  (match Chaos.of_json "{}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty object has no fields");
  match Chaos.of_json "{\"seed\":1,\"round\":0}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing fields must be reported"

let test_save_load () =
  let file = Filename.temp_file "conddep" ".chaos.json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let s = sched ~arms:arms3 () in
  Chaos.save ~file s;
  match Chaos.load ~file with
  | Ok s' -> check_bool "file round-trips" true (s = s')
  | Error msg -> Alcotest.failf "load failed: %s" msg

(* --- the sweep ------------------------------------------------------------------ *)

let test_sweep_verdict_identity () =
  let report = Chaos.sweep ~seed:5 ~rounds:6 () in
  check_int "every round ran" 6 (List.length report.Chaos.rounds);
  check_int "no verdict-identity violations" 0
    (List.length report.Chaos.failures);
  (* with env faults armed both runs fault identically, so rounds pass as
     unknown-vs-unknown; the survived count is only meaningful without *)
  if not env_faults_armed then
    check_bool "some rounds recover the identical verdict" true
      (report.Chaos.survived > 0)

let test_sweep_deterministic () =
  let schedules_of r =
    List.map (fun x -> x.Chaos.r_schedule) r.Chaos.rounds
  in
  let r1 = Chaos.sweep ~seed:11 ~rounds:4 () in
  let r2 = Chaos.sweep ~seed:11 ~rounds:4 () in
  check_bool "same seed draws the same schedules" true
    (schedules_of r1 = schedules_of r2);
  check_bool "same seed, same verdicts" true
    (List.map (fun x -> x.Chaos.r_faulty) r1.Chaos.rounds
    = List.map (fun x -> x.Chaos.r_faulty) r2.Chaos.rounds)

let test_replay_benign_fixture () =
  match Chaos.load ~file:(data_file "benign.chaos.json") with
  | Error msg -> Alcotest.failf "fixture unreadable: %s" msg
  | Ok s ->
      let r = Chaos.round s in
      check_bool "committed fixture replays ok" true r.Chaos.r_ok

(* --- shrinking ------------------------------------------------------------------- *)

let test_shrink_minimises () =
  (* synthetic predicate: the failure needs only the chase.run arm; the
     shrinker must drop the other two and halve its countdown to 0 *)
  let fails s =
    List.exists (fun a -> a.Chaos.site = "chase.run") s.Chaos.s_arms
  in
  let s = sched ~arms:(List.map (fun a -> { a with Chaos.after = 8 }) arms3) () in
  let s' = Chaos.shrink_with ~fails s in
  check_int "irrelevant arms dropped" 1 (List.length s'.Chaos.s_arms);
  let a = List.hd s'.Chaos.s_arms in
  check_string "culprit kept" "chase.run" a.Chaos.site;
  check_int "countdown halved to zero" 0 a.Chaos.after;
  check_bool "result still fails" true (fails s')

let test_shrink_keeps_failing_whole () =
  (* if every arm is needed, nothing is dropped *)
  let fails s = List.length s.Chaos.s_arms = 3 in
  let s' = Chaos.shrink_with ~fails (sched ~arms:arms3 ()) in
  check_int "all arms kept" 3 (List.length s'.Chaos.s_arms)

let () =
  Alcotest.run "chaos"
    [
      ( "json",
        [
          Alcotest.test_case "schedule round-trips" `Quick test_json_roundtrip;
          Alcotest.test_case "garbage is rejected" `Quick
            test_json_rejects_garbage;
          Alcotest.test_case "save/load file round-trip" `Quick test_save_load;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "verdict identity holds over a sweep" `Quick
            test_sweep_verdict_identity;
          Alcotest.test_case "sweeps are seed-deterministic" `Quick
            test_sweep_deterministic;
          Alcotest.test_case "committed benign fixture replays" `Quick
            test_replay_benign_fixture;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "drops arms and halves countdowns" `Quick
            test_shrink_minimises;
          Alcotest.test_case "keeps a fully-needed schedule" `Quick
            test_shrink_keeps_failing_whole;
        ] );
    ]
