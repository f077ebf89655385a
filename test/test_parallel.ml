open Conddep_relational
open Conddep_consistency
open Conddep_generator
open Helpers

(* The fork-join runtime and the parallel checking paths: results by
   index, least-index failure selection, cooperative cancellation above a
   stopping run, real failures raised inside items, and — the property
   the whole design hangs on — bit-identical verdicts and witnesses (and
   generator positions) at any [jobs] count. *)

(* --- combinators -------------------------------------------------------------- *)

let test_map_order () =
  (* empty, single-item (no domain), and more items than runners *)
  List.iter
    (fun n ->
      let xs = List.init n Fun.id in
      let expect = List.map (fun i -> i * 3) xs in
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "n=%d jobs=%d" n jobs)
            expect
            (Parallel.map ~jobs (fun i -> i * 3) xs))
        [ 1; 2; 4 ])
    [ 0; 1; 2; 7 ]

let test_map_least_exception () =
  (* several items raise; map must surface the least-indexed failure *)
  List.iter
    (fun (n, fails, least) ->
      List.iter
        (fun jobs ->
          match
            Parallel.map ~jobs
              (fun i -> if fails i then failwith (string_of_int i) else i)
              (List.init n Fun.id)
          with
          | (_ : int list) -> Alcotest.fail "some items raise"
          | exception Failure s ->
              check_string (Printf.sprintf "n=%d jobs=%d" n jobs) least s)
        [ 1; 4 ])
    [ (8, (fun i -> i mod 2 = 1), "1") ]

let counter () =
  let calls = ref 0 in
  ( calls,
    fun () ->
      let i = !calls in
      incr calls;
      i )

let test_first_success_least_index () =
  List.iter
    (fun jobs ->
      (* later items also succeed, but the sequential loop would have
         stopped at 4 — the least-index rule must select exactly that *)
      let calls, next = counter () in
      let r =
        Parallel.first_success ~jobs 8 next (fun i _tok ->
            if i >= 4 then Some (i * 10) else None)
      in
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "jobs=%d least Some wins" jobs)
        (Some (4, 40)) r;
      if jobs = 1 then
        check_int "jobs=1 pulls through the winner only" 5 !calls;
      let _, next = counter () in
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "jobs=%d all None is None" jobs)
        None
        (Parallel.first_success ~jobs 3 next (fun _ _ -> None)))
    [ 1; 2; 4 ]

let test_default_jobs_clamped () =
  let saved = Parallel.default_jobs () in
  Fun.protect ~finally:(fun () -> Parallel.set_default_jobs saved) @@ fun () ->
  Parallel.set_default_jobs 0;
  check_bool "clamped to >= 1" true (Parallel.default_jobs () >= 1);
  Parallel.set_default_jobs 3;
  check_int "override visible" 3 (Parallel.default_jobs ())

(* --- many items per runner ----------------------------------------------------- *)

(* These cases keep the names they had when the pool split a batch into
   chunks; each runner now pulls one index at a time, and the same
   contracts must hold when every runner pulls many items. *)

let test_many_items_map_order () =
  let xs = List.init 97 Fun.id in
  let expect = List.map (fun i -> i * 3) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expect
        (Parallel.map ~jobs (fun i -> i * 3) xs))
    [ 1; 2; 3; 4 ]

let test_many_items_map_least_exception () =
  (* every item from 3 on raises: the least submission index still wins *)
  List.iter
    (fun jobs ->
      match
        Parallel.map ~jobs
          (fun i -> if i >= 3 then failwith (string_of_int i) else i)
          (List.init 20 Fun.id)
      with
      | (_ : int list) -> Alcotest.fail "items >= 3 raise"
      | exception Failure s ->
          check_string (Printf.sprintf "jobs=%d least index" jobs) "3" s)
    [ 1; 2; 4 ]

let test_many_items_first_success () =
  List.iter
    (fun jobs ->
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "jobs=%d least success" jobs)
        (Some (4, 4))
        (Parallel.first_success ~jobs 64 (counter () |> snd) (fun i _tok ->
             if i >= 4 then Some i else None)))
    [ 1; 2; 3; 4 ]

(* --- cancellation: runs above the winner terminate via Guard.Cancelled ------- *)

let test_race_losers_cancelled () =
  (* Item 0 stops once items 1-3 are running; those spin on a cancellable
     budget and can only exit through cooperative cancellation — the 10s
     deadlines are a safety net that turns a broken cancel path into a
     visible wrong-reason failure rather than a hung test. *)
  let started = Atomic.make 0 and cancelled = Atomic.make 0 in
  let r =
    Parallel.first_success ~jobs:4 4 (counter () |> snd) (fun i tok ->
        let b = Guard.make ~cancel:tok ~timeout_s:10. () in
        if i = 0 then begin
          while Atomic.get started < 3 do
            Guard.check b;
            Stdlib.Domain.cpu_relax ()
          done;
          Some "winner"
        end
        else begin
          Atomic.incr started;
          try
            while true do
              Guard.check b
            done;
            None
          with Guard.Exhausted Guard.Cancelled as e ->
            Atomic.incr cancelled;
            raise e
        end)
  in
  Alcotest.(check (option (pair int string)))
    "winner selected" (Some (0, "winner")) r;
  check_int "every loser unwound through Cancelled" 3 (Atomic.get cancelled)

(* --- real failures inside items, without GUARD_FAULTS ------------------------ *)

let test_real_failures_least_index () =
  (* Items raise Out_of_memory / Stack_overflow themselves: the caller
     gets the least-indexed one, after every domain is joined, and the
     next fan-out works normally. *)
  let raise_at failures i =
    match List.assoc_opt i failures with Some e -> raise e | None -> i
  in
  let expect_exn what want f =
    match f () with
    | _ -> Alcotest.failf "%s: must raise" what
    | exception e ->
        check_string what (Printexc.to_string want) (Printexc.to_string e)
  in
  List.iter
    (fun (failures, want) ->
      expect_exn "map" want (fun () ->
          Parallel.map ~jobs:4 (raise_at failures) (List.init 12 Fun.id));
      expect_exn "first_success" want (fun () ->
          Parallel.first_success ~jobs:4 12 (counter () |> snd) (fun i _ ->
              ignore (raise_at failures i);
              None));
      Alcotest.(check (list int))
        "the next map is correct" (List.init 12 Fun.id)
        (Parallel.map ~jobs:4 Fun.id (List.init 12 Fun.id));
      Alcotest.(check (option (pair int int)))
        "the next first_success is correct" (Some (5, 5))
        (Parallel.first_success ~jobs:4 12 (counter () |> snd) (fun i _ ->
             if i >= 5 then Some i else None)))
    [
      ([ (3, Out_of_memory); (7, Stack_overflow) ], Out_of_memory);
      ([ (2, Stack_overflow); (9, Out_of_memory) ], Stack_overflow);
    ]

(* --- verdict determinism across jobs counts ---------------------------------- *)

let describe = function
  | Random_checking.Consistent db -> Fmt.str "consistent:%a" Database.pp db
  | Random_checking.Unknown r -> Fmt.str "unknown:%s" (Guard.reason_to_string r)

let gen_workload ~consistent seed =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng { Schema_gen.default with num_relations = 4 }
  in
  let gen = if consistent then Workload.consistent else Workload.random in
  (schema, gen rng { Workload.default with num_constraints = 24 } schema)

let test_jobs_identical_witness () =
  (* a satisfiable Σ: the parallel fan-out must return the same verdict
     AND the same witness database as the sequential loop, bit for bit *)
  let schema, sigma = gen_workload ~consistent:true 5 in
  let run jobs =
    describe (Random_checking.check ~jobs ~rng:(Rng.make 2) schema sigma)
  in
  let seq = run 1 in
  check_bool "witness found" true
    (String.length seq >= 10 && String.sub seq 0 10 = "consistent");
  check_string "jobs=2 identical" seq (run 2);
  check_string "jobs=4 identical" seq (run 4)

let test_jobs_identical_unknown () =
  (* an adversarial Σ where the K runs exhaust: the typed give-up reason
     must be identical at any jobs count too *)
  let schema, sigma = gen_workload ~consistent:false 13 in
  let run jobs =
    describe
      (Random_checking.check ~jobs ~k:12 ~k_cfd:6 ~rng:(Rng.make 7) schema sigma)
  in
  let seq = run 1 in
  check_string "jobs=2 identical" seq (run 2);
  check_string "jobs=4 identical" seq (run 4)

let describe_checking = function
  | Checking.Consistent db -> Fmt.str "consistent:%a" Database.pp db
  | Checking.Inconsistent -> "inconsistent"
  | Checking.Unknown r -> Fmt.str "unknown:%s" (Guard.reason_to_string r)

let test_checking_identical_sweep () =
  (* the full pipeline with no forced backend: same verdict and witness at
     jobs 1, 2 and 4 over a sweep of satisfiable and random Σ *)
  List.iter
    (fun consistent ->
      for seed = 1 to 60 do
        let schema, sigma = gen_workload ~consistent seed in
        let run jobs =
          describe_checking
            (Checking.check ~jobs ~rng:(Rng.make 4) schema sigma)
        in
        let seq = run 1 in
        List.iter
          (fun jobs ->
            check_string
              (Fmt.str "%s seed %d jobs=%d identical"
                 (if consistent then "consistent" else "random")
                 seed jobs)
              seq (run jobs))
          [ 2; 4 ]
      done)
    [ true; false ]

let test_rng_position_identical () =
  (* RandomChecking leaves the caller's generator where the sequential
     loop does — one split per run through the stopping one — so a caller
     that keeps drawing (Checking, across components) sees the same stream
     at any jobs count *)
  List.iter
    (fun (consistent, relations, constraints) ->
      for seed = 1 to 60 do
        let rng = Rng.make seed in
        let schema =
          Schema_gen.generate rng
            { Schema_gen.default with num_relations = relations }
        in
        let gen = if consistent then Workload.consistent else Workload.random in
        let sigma =
          gen rng { Workload.default with num_constraints = constraints } schema
        in
        let next_draw jobs =
          let rng = Rng.make 9 in
          ignore (Random_checking.check ~jobs ~k:40 ~k_cfd:6 ~rng schema sigma);
          Rng.int rng 1_000_000_000
        in
        check_int
          (Fmt.str "relations=%d seed %d: next draw at jobs 4" relations seed)
          (next_draw 1) (next_draw 4)
      done)
    [ (true, 4, 24); (false, 4, 24); (true, 8, 48); (false, 8, 48) ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves submission order" `Quick
            test_map_order;
          Alcotest.test_case "map re-raises least-indexed failure" `Quick
            test_map_least_exception;
          Alcotest.test_case "first_success selects least index" `Quick
            test_first_success_least_index;
          Alcotest.test_case "default_jobs clamp and override" `Quick
            test_default_jobs_clamped;
        ] );
      ( "work stealing",
        [
          Alcotest.test_case "chunked_map order at any chunk" `Quick
            test_many_items_map_order;
          Alcotest.test_case "chunked_map re-raises least index" `Quick
            test_many_items_map_least_exception;
          Alcotest.test_case "chunked_first_success least index" `Quick
            test_many_items_first_success;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "race losers terminate via Cancelled" `Quick
            test_race_losers_cancelled;
        ] );
      ( "crash isolation",
        [
          Alcotest.test_case "raised OOM / stack overflow: least index wins"
            `Quick test_real_failures_least_index;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "witness identical at any jobs count" `Quick
            test_jobs_identical_witness;
          Alcotest.test_case "unknown reason identical at any jobs count" `Quick
            test_jobs_identical_unknown;
          Alcotest.test_case "Checking identical at jobs 1, 2, 4 (sweep)"
            `Quick test_checking_identical_sweep;
          Alcotest.test_case "caller rng position identical at jobs 1, 4"
            `Quick test_rng_position_identical;
        ] );
    ]
