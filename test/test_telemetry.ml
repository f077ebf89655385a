open Conddep_generator
open Conddep_consistency
open Helpers

(* The telemetry subsystem: counters, profiler spans, trace export — and
   the guard that instrumentation can never perturb a checker verdict. *)

(* Each test owns the global telemetry state: start disabled and zeroed,
   and leave it that way for whoever runs next. *)
let with_clean_telemetry f =
  Telemetry.reset ();
  Telemetry.disable_profiling ();
  Telemetry.disable ();
  Fun.protect ~finally:(fun () ->
      Telemetry.reset ();
      Telemetry.disable_profiling ();
      Telemetry.disable ())
    f

let with_clean_profiling f =
  with_clean_telemetry @@ fun () ->
  Telemetry.enable_profiling ();
  f ()

(* --- counters -------------------------------------------------------------- *)

let test_counter_monotonic () =
  with_clean_telemetry @@ fun () ->
  let c = Telemetry.counter "test.counter_a" in
  Telemetry.enable ();
  check_int "fresh counter is zero" 0 (Telemetry.count c);
  Telemetry.incr c;
  Telemetry.incr c;
  Telemetry.add c 5;
  check_int "2 incr + add 5" 7 (Telemetry.count c);
  Alcotest.check_raises "negative delta rejected"
    (Invalid_argument "Telemetry.add: counters are monotonic") (fun () ->
      Telemetry.add c (-1));
  check_int "unchanged after rejected add" 7 (Telemetry.count c);
  (* create-or-find: same name, same counter *)
  Telemetry.incr (Telemetry.counter "test.counter_a");
  check_int "registry returns the same counter" 8 (Telemetry.count c)

let test_disabled_records_nothing () =
  with_clean_telemetry @@ fun () ->
  let c = Telemetry.counter "test.counter_b" in
  (* disabled: everything is a no-op *)
  Telemetry.incr c;
  Telemetry.add c 100;
  let ran = ref false in
  let v = Telemetry.with_span "test.span_b" (fun () -> ran := true; 17) in
  check_int "with_span still runs the body" 17 v;
  check_bool "body executed" true !ran;
  check_int "counter untouched" 0 (Telemetry.count c);
  (* counters on, profiling off: counters count, spans are just [f ()] *)
  Telemetry.enable ();
  Telemetry.incr c;
  ignore (Telemetry.with_span "test.span_b" (fun () -> ()));
  check_int "enabled counter counts" 1 (Telemetry.count c);
  check_bool "no profile tree without profiling" true (Telemetry.profile_tree () = []);
  check_bool "no trace events without profiling" true (Telemetry.trace_events () = [])

(* --- spans ----------------------------------------------------------------- *)

let test_span_nesting_and_unwinding () =
  with_clean_profiling @@ fun () ->
  let v =
    Telemetry.with_span "test.outer" (fun () ->
        Telemetry.with_span "test.inner" (fun () -> 3))
  in
  check_int "value passed through" 3 v;
  (* exception unwinding: the frame stack pops, the spans are still
     recorded, with an error mark *)
  (try
     Telemetry.with_span "test.raising" (fun () ->
         ignore (Telemetry.with_span "test.raising_inner" (fun () -> failwith "boom")))
   with Failure _ -> ());
  Telemetry.with_span "test.after" (fun () -> ());
  let roots = Telemetry.profile_tree () in
  let root name =
    match List.find_opt (fun n -> n.Telemetry.p_name = name) roots with
    | Some n -> n
    | None -> Alcotest.failf "no root span %s" name
  in
  let child (n : Telemetry.profile_node) name =
    match List.find_opt (fun c -> c.Telemetry.p_name = name) n.p_children with
    | Some c -> c
    | None -> Alcotest.failf "%s has no child %s" n.p_name name
  in
  check_int "roots: outer, raising, after" 3 (List.length roots);
  check_int "inner nests under outer" 1 (child (root "test.outer") "test.inner").p_count;
  let raising = root "test.raising" in
  check_int "raising span recorded" 1 raising.p_count;
  check_int "raising span marked" 1 raising.p_errors;
  let inner = child raising "test.raising_inner" in
  check_int "inner raising span recorded" 1 inner.p_count;
  check_int "inner raising span marked" 1 inner.p_errors;
  check_int "stack unwound: next span is a root" 0 (root "test.after").p_errors

(* --- profiler: span-tree attribution ---------------------------------------- *)

(* Recursive tree invariants: self >= 0 and self + children's inclusive
   totals stay within the node's own inclusive total (small epsilon for
   float accumulation). *)
let rec check_profile_invariants (n : Telemetry.profile_node) =
  check_bool (n.p_name ^ " self >= 0") true (n.p_self_s >= 0.);
  let child_total =
    List.fold_left (fun acc c -> acc +. c.Telemetry.p_total_s) 0. n.p_children
  in
  check_bool
    (Printf.sprintf "%s self (%g) + children (%g) <= total (%g)" n.p_name
       n.p_self_s child_total n.p_total_s)
    true
    (n.p_self_s +. child_total <= n.p_total_s +. 1e-6);
  let child_words =
    List.fold_left (fun acc c -> acc +. c.Telemetry.p_alloc_words) 0. n.p_children
  in
  check_bool
    (Printf.sprintf "%s self words (%g) + children (%g) <= total (%g)" n.p_name
       n.p_self_alloc_words child_words n.p_alloc_words)
    true
    (n.p_self_alloc_words >= 0. && n.p_self_alloc_words +. child_words <= n.p_alloc_words +. 1e-6);
  List.iter check_profile_invariants n.p_children

let test_profile_tree_shape () =
  with_clean_profiling @@ fun () ->
  for _ = 1 to 3 do
    Telemetry.with_span "t.outer" (fun () ->
        Telemetry.with_span "t.inner" (fun () -> ignore (Sys.opaque_identity (List.init 100 Fun.id)));
        Telemetry.with_span "t.inner2" (fun () -> ()))
  done;
  (try
     Telemetry.with_span "t.outer" (fun () ->
         Telemetry.with_span "t.boom" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let roots = Telemetry.profile_tree () in
  let outer = List.find (fun n -> n.Telemetry.p_name = "t.outer") roots in
  check_int "outer count" 4 outer.p_count;
  check_int "outer children" 3 (List.length outer.p_children);
  check_int "outer errors (raise propagated)" 1 outer.p_errors;
  let inner = List.find (fun n -> n.Telemetry.p_name = "t.inner") outer.p_children in
  check_int "inner count" 3 inner.p_count;
  check_int "inner errors" 0 inner.p_errors;
  let boom = List.find (fun n -> n.Telemetry.p_name = "t.boom") outer.p_children in
  check_int "boom count" 1 boom.p_count;
  check_int "boom errors" 1 boom.p_errors;
  List.iter check_profile_invariants roots;
  (* the flat table agrees with the tree and is sorted by self, descending *)
  let table = Telemetry.self_time_table () in
  let outer_row = List.find (fun r -> r.Telemetry.r_name = "t.outer") table in
  check_int "table aggregates outer calls" 4 outer_row.r_calls;
  (* three 100-element lists, 300 words each, are t.inner's own *)
  let inner_row = List.find (fun r -> r.Telemetry.r_name = "t.inner") table in
  check_bool "table counts inner's self words" true (inner_row.r_self_words >= 900.);
  check_bool "outer's self words exclude inner's" true
    (outer_row.r_self_words < outer.p_alloc_words -. 900. +. 1e-6);
  let selfs = List.map (fun r -> r.Telemetry.r_self_s) table in
  check_bool "table sorted by self desc" true
    (List.sort (fun a b -> compare b a) selfs = selfs);
  check_string "dur_to_string scales" "1.500ms" (Telemetry.dur_to_string 1.5e-3)

let test_profile_under_exhaustion () =
  (* self <= total must survive exceptional unwinding when a fuel budget
     runs dry two spans deep *)
  with_clean_profiling @@ fun () ->
  for _ = 1 to 5 do
    try
      Guard.with_ambient (Guard.make ~fuel:1 ()) @@ fun () ->
      Telemetry.with_span "t.f_outer" (fun () ->
          Telemetry.with_span "t.f_inner" (fun () ->
              Guard.tick ();
              Guard.tick ()))
    with Guard.Exhausted Guard.Fuel -> ()
  done;
  let roots = Telemetry.profile_tree () in
  let outer = List.find (fun n -> n.Telemetry.p_name = "t.f_outer") roots in
  check_int "every cut run recorded" 5 outer.p_count;
  check_int "every cut run marked err" 5 outer.p_errors;
  List.iter check_profile_invariants roots;
  (* the exhaustion marked forensics with the live span stack *)
  match Telemetry.exhaustion_snapshot () with
  | None -> Alcotest.fail "exhaustion left no mark"
  | Some (reason, stack) ->
      check_string "reason" "fuel" reason;
      check_bool "innermost span on the stack" true (List.mem "t.f_inner" stack)

let test_exhaustion_mark_fuel () =
  with_clean_profiling @@ fun () ->
  (try
     Guard.with_ambient (Guard.make ~fuel:10 ()) @@ fun () ->
     Telemetry.with_span "t.burn" (fun () ->
         while true do
           Guard.tick ()
         done)
   with Guard.Exhausted Guard.Fuel -> ());
  (match Telemetry.exhaustion_snapshot () with
  | None -> Alcotest.fail "fuel exhaustion left no mark"
  | Some (reason, stack) ->
      check_string "reason" "fuel" reason;
      check_bool "span stack captured" true (List.mem "t.burn" stack));
  (* first mark wins: a later exhaustion does not overwrite the forensics *)
  (try
     Guard.with_ambient (Guard.make ~fuel:5 ()) @@ fun () ->
     Telemetry.with_span "t.burn2" (fun () ->
         while true do
           Guard.tick ()
         done)
   with Guard.Exhausted Guard.Fuel -> ());
  match Telemetry.exhaustion_snapshot () with
  | Some (_, stack) -> check_bool "first mark kept" true (List.mem "t.burn" stack)
  | None -> Alcotest.fail "mark vanished"

(* --- profiler: trace export -------------------------------------------------- *)

(* A tiny recursive-descent JSON syntax checker (the test deps have no
   JSON library): accepts RFC 8259 JSON, rejects trailing garbage.  Used
   to prove exported Chrome traces are well-formed without python. *)
let json_valid (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let adv () = incr pos in
  let rec skip_ws () =
    match peek () with Some (' ' | '\t' | '\n' | '\r') -> adv (); skip_ws () | _ -> ()
  in
  let expect c = if peek () = Some c then adv () else raise Exit in
  let digits () =
    match peek () with
    | Some '0' .. '9' ->
        while match peek () with Some '0' .. '9' -> true | _ -> false do
          adv ()
        done
    | _ -> raise Exit
  in
  let lit w = String.iter expect w in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> str ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> raise Exit);
    skip_ws ()
  and str () =
    expect '"';
    let rec go () =
      match peek () with
      | Some '"' -> adv ()
      | Some '\\' -> (
          adv ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> adv (); go ()
          | Some 'u' ->
              adv ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> adv ()
                | _ -> raise Exit
              done;
              go ()
          | _ -> raise Exit)
      | Some c when Char.code c >= 0x20 -> adv (); go ()
      | _ -> raise Exit
    in
    go ()
  and number () =
    if peek () = Some '-' then adv ();
    (* int part: a lone 0, or a nonzero digit run (no leading zeros) *)
    (match peek () with
    | Some '0' -> adv ()
    | Some '1' .. '9' -> digits ()
    | _ -> raise Exit);
    if peek () = Some '.' then begin adv (); digits () end;
    match peek () with
    | Some ('e' | 'E') ->
        adv ();
        (match peek () with Some ('+' | '-') -> adv () | _ -> ());
        digits ()
    | _ -> ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then adv ()
    else
      let rec members () =
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        match peek () with
        | Some ',' -> adv (); members ()
        | Some '}' -> adv ()
        | _ -> raise Exit
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then adv ()
    else
      let rec elems () =
        value ();
        match peek () with
        | Some ',' -> adv (); elems ()
        | Some ']' -> adv ()
        | _ -> raise Exit
      in
      elems ()
  in
  match value (); skip_ws (); !pos = n with b -> b | exception Exit -> false

let test_json_validator_itself () =
  List.iter
    (fun (ok, s) -> check_bool (Printf.sprintf "json_valid %S" s) ok (json_valid s))
    [
      (true, "{}");
      (true, "{\"a\":[1,2.5,-3e2,\"x\\n\",true,null,{}]}");
      (true, "  [ ]  ");
      (false, "{");
      (false, "{\"a\":1,}");
      (false, "[1 2]");
      (false, "{\"a\":01}");
      (false, "{}garbage");
      (false, "\"unterminated");
    ]

(* Every B must have a matching E with the same name, in properly nested
   (stack) order, and no span may be left open. *)
let check_trace_balanced evs =
  let open_spans =
    List.fold_left
      (fun st (e : Telemetry.trace_event) ->
        match (e.te_ph, st) with
        | Telemetry.Begin, _ -> e.te_name :: st
        | Telemetry.End, top :: rest when String.equal top e.te_name -> rest
        | Telemetry.End, top :: _ -> Alcotest.failf "E %s closes B %s" e.te_name top
        | Telemetry.End, [] -> Alcotest.failf "E %s without B" e.te_name)
      [] evs
  in
  if open_spans <> [] then
    Alcotest.failf "%d span(s) left open" (List.length open_spans)

(* Random nested span workloads, some raising — the exported trace must
   stay well-formed JSON with balanced B/E pairs whatever the
   structure. *)
let trace_property_test =
  qtest ~count:15 "chrome traces well-formed and balanced" QCheck.(int_bound 10_000)
    (fun seed ->
      with_clean_profiling @@ fun () ->
      let rec spans rng depth =
        let n = 1 + Random.State.int rng 3 in
        for i = 1 to n do
          let name = Printf.sprintf "q.d%d_%d" depth i in
          try
            Telemetry.with_span name (fun () ->
                if depth < 3 && Random.State.int rng 2 = 0 then
                  spans rng (depth + 1);
                if Random.State.int rng 8 = 0 then failwith "q")
          with Failure _ -> ()
        done
      in
      spans (Random.State.make [| seed |]) 0;
      check_trace_balanced (Telemetry.trace_events ());
      List.iter check_profile_invariants (Telemetry.profile_tree ());
      let path = Filename.temp_file "telemetry_trace" ".json" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      let oc = open_out path in
      Telemetry.write_chrome_trace oc;
      close_out oc;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      check_bool "exported trace is valid JSON" true (json_valid contents);
      true)

(* --- determinism guard ------------------------------------------------------ *)

(* Enabling telemetry must not change any checker verdict: Checking uses
   RNG-driven heuristics, and instrumentation draws nothing from them. *)
let test_verdicts_unperturbed () =
  with_clean_telemetry @@ fun () ->
  let workload seed =
    let rng = Rng.make seed in
    let sconfig =
      {
        Schema_gen.default with
        Schema_gen.num_relations = 5;
        max_arity = 5;
        finite_ratio = 0.4;
        finite_dom_max = 8;
      }
    in
    let schema = Schema_gen.generate rng sconfig in
    let sigma =
      Workload.random rng { Workload.default with Workload.num_constraints = 30 } schema
    in
    (schema, sigma)
  in
  let verdicts () =
    List.map
      (fun seed ->
        let schema, sigma = workload seed in
        match Checking.check ~k:5 ~rng:(Rng.make (seed + 1)) schema sigma with
        | Checking.Consistent _ -> "consistent"
        | Checking.Inconsistent -> "inconsistent"
        | Checking.Unknown _ -> "unknown")
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let baseline = verdicts () in
  Telemetry.enable ();
  let instrumented = verdicts () in
  List.iteri
    (fun i (a, b) ->
      check_string (Printf.sprintf "verdict %d unchanged under telemetry" i) a b)
    (List.combine baseline instrumented);
  (* and the instrumentation did observe the work *)
  check_bool "checking.calls counted" true
    (List.assoc "checking.calls" (Telemetry.counter_snapshot ()) >= 8)

(* Profiling is a heavier tier than counters alone; the same guarantee
   must hold — identical verdicts with the profiler on, and a fully dark
   pipeline (no spans, no trace events, no counters) when disabled. *)
let test_verdicts_unperturbed_by_profiling () =
  with_clean_telemetry @@ fun () ->
  let verdicts () =
    List.map
      (fun seed ->
        let rng = Rng.make seed in
        let sconfig =
          {
            Schema_gen.default with
            Schema_gen.num_relations = 4;
            max_arity = 4;
            finite_ratio = 0.4;
            finite_dom_max = 8;
          }
        in
        let schema = Schema_gen.generate rng sconfig in
        let sigma =
          Workload.random rng
            { Workload.default with Workload.num_constraints = 20 }
            schema
        in
        match Checking.check ~k:4 ~rng:(Rng.make (seed + 1)) schema sigma with
        | Checking.Consistent _ -> "consistent"
        | Checking.Inconsistent -> "inconsistent"
        | Checking.Unknown _ -> "unknown")
      [ 1; 2; 3; 4 ]
  in
  let baseline = verdicts () in
  Telemetry.enable_profiling ();
  let profiled = verdicts () in
  List.iteri
    (fun i (a, b) ->
      check_string (Printf.sprintf "verdict %d unchanged under profiling" i) a b)
    (List.combine baseline profiled);
  check_bool "profile tree observed the work" true
    (Telemetry.profile_tree () <> []);
  check_bool "trace events buffered" true (Telemetry.trace_events () <> []);
  (* switch everything off and zero: re-running must record nothing *)
  Telemetry.disable_profiling ();
  Telemetry.disable ();
  Telemetry.reset ();
  let off = verdicts () in
  List.iteri
    (fun i (a, b) ->
      check_string (Printf.sprintf "verdict %d unchanged when disabled" i) a b)
    (List.combine baseline off);
  check_bool "no trace events when disabled" true (Telemetry.trace_events () = []);
  check_bool "no profile tree when disabled" true (Telemetry.profile_tree () = []);
  check_bool "no counter moves when disabled"
    true
    (List.for_all (fun (_, v) -> v = 0) (Telemetry.counter_snapshot ()))

let test_disabled_path_allocation_free () =
  with_clean_telemetry @@ fun () ->
  let body = Sys.opaque_identity (fun () -> 0) in
  (* warm up any lazy runtime structures *)
  ignore (Telemetry.with_span "test.alloc" body);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Telemetry.with_span "test.alloc" body)
  done;
  let dw = Gc.minor_words () -. w0 in
  check_bool
    (Printf.sprintf "disabled with_span allocates nothing (%.0f minor words)" dw)
    true (dw < 100.)

(* --- registration from the instrumented libraries --------------------------- *)

let test_instrumented_counters_registered () =
  (* registration happens at module initialisation, so the module must be
     linked — reference the detector explicitly (nothing else here uses it,
     and dune links only reachable modules) *)
  ignore Conddep_cleaning.Fast_detect.is_clean;
  let names = List.map fst (Telemetry.counter_snapshot ()) in
  List.iter
    (fun key ->
      check_bool (key ^ " registered") true (List.mem key names))
    [
      "sat.decisions";
      "sat.propagations";
      "sat.conflicts";
      "chase.ind_steps";
      "chase.fd_steps";
      "chase.pool_picks";
      "chase.threshold_hits";
      "chase.fd_clean_skips";
      "checking.cfd.kcfd_retries";
      "checking.preprocess.sccs";
      "checking.preprocess.pruned_indegree0";
      "checking.random.runs";
      "detect.fast.tuples_scanned";
      "detect.fast.index_probes";
    ]

let () =
  Alcotest.run "telemetry"
    [
      ( "counters",
        [
          Alcotest.test_case "monotonic" `Quick test_counter_monotonic;
          Alcotest.test_case "disabled path records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "instrumented libraries register" `Quick
            test_instrumented_counters_registered;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and exception unwinding" `Quick
            test_span_nesting_and_unwinding;
          Alcotest.test_case "disabled path allocation-free" `Quick
            test_disabled_path_allocation_free;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "span-tree attribution" `Quick test_profile_tree_shape;
          Alcotest.test_case "invariants under budget exhaustion" `Quick
            test_profile_under_exhaustion;
          Alcotest.test_case "exhaustion forensics mark" `Quick
            test_exhaustion_mark_fuel;
        ] );
      ( "trace export",
        [
          Alcotest.test_case "mini JSON validator sanity" `Quick
            test_json_validator_itself;
          trace_property_test;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "verdicts unchanged with sinks on" `Quick
            test_verdicts_unperturbed;
          Alcotest.test_case "verdicts unchanged under profiling" `Quick
            test_verdicts_unperturbed_by_profiling;
        ] );
    ]
