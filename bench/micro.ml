open Bechamel
open Toolkit
open Conddep_relational
open Conddep_core
open Conddep_chase
open Conddep_generator

(* Bechamel micro-benchmarks: one Test.make per table and figure of the
   evaluation, on fixed representative workloads, plus the baseline
   procedures the paper compares against conceptually (FD closure, IND
   membership).  These complement the sweeps of Figures/Tables with
   statistically sound per-operation costs. *)

module B = Conddep_fixtures.Bank

let fixed_workload ~consistent ~n seed =
  let rng = Rng.make seed in
  let schema = Schema_gen.generate rng (Workloads.schema_config Workloads.Quick) in
  let sigma =
    if consistent then Workload.consistent rng (Workloads.workload_config n) schema
    else Workload.random rng (Workloads.workload_config n) schema
  in
  (schema, sigma)

let tests () =
  let schema_c, sigma_c = fixed_workload ~consistent:true ~n:200 101 in
  let schema_r, sigma_r = fixed_workload ~consistent:false ~n:200 102 in
  let cfd_schema, cfd_sigma = fixed_workload ~consistent:true ~n:300 103 in
  let cfds = cfd_sigma.Sigma.ncfds in
  let rel0 = List.hd (Db_schema.rel_names cfd_schema) in
  let chain_inf_schema, chain_inf_sigma, chain_inf_goal =
    (* the Table 2 PSPACE family at k = 16 *)
    let extra i = Attribute.make (Printf.sprintf "f%d" i) Domain.string_inf in
    let schema =
      Db_schema.make
        [
          Schema.make "src" [ Attribute.make "a" Domain.string_inf ];
          Schema.make "mid" (Attribute.make "a" Domain.string_inf :: List.init 16 extra);
          Schema.make "tgt" [ Attribute.make "a" Domain.string_inf ];
        ]
    in
    let ind lhs rhs =
      {
        Cind.nf_name = lhs ^ rhs;
        nf_lhs = lhs;
        nf_rhs = rhs;
        nf_x = [ "a" ];
        nf_y = [ "a" ];
        nf_xp = [];
        nf_yp = [];
      }
    in
    (schema, [ ind "src" "mid"; ind "mid" "tgt" ], ind "src" "tgt")
  in
  [
    (* Table 1: the EXPTIME implication decision on the Example 3.4 input *)
    Test.make ~name:"table1/cind-implication-finite"
      (Staged.stage (fun () ->
           Cind_api.implies B.schema ~sigma:B.implication_sigma B.implication_goal));
    (* Table 1: the proof checker on the Example 3.4 derivation *)
    Test.make ~name:"table1/inference-proof-check"
      (Staged.stage (fun () ->
           Inference.proves B.schema ~sigma:B.implication_sigma B.example_3_4_proof
             B.implication_goal));
    (* Table 1: exact (NP) CFD consistency on one relation *)
    Test.make ~name:"table1/cfd-consistency-exact"
      (Staged.stage (fun () ->
           Cfd_consistency.consistent_rel cfd_schema ~rel:rel0 cfds));
    (* Table 2: the PSPACE-style membership search without finite domains *)
    Test.make ~name:"table2/cind-implication-infinite"
      (Staged.stage (fun () ->
           Cind_api.implies chain_inf_schema ~sigma:chain_inf_sigma chain_inf_goal));
    (* Fig 10(a): the two CFD_Checking backends on the same relation *)
    Test.make ~name:"fig10a/cfd-checking-chase"
      (Staged.stage (fun () ->
           Cind_api.consistent ~backend:Cind_api.Chase_backend ~rng:(Rng.make 1)
             cfd_schema cfds ~rel:rel0));
    Test.make ~name:"fig10a/cfd-checking-sat"
      (Staged.stage (fun () ->
           Cind_api.consistent ~backend:Cind_api.Sat_backend ~rng:(Rng.make 1)
             cfd_schema cfds ~rel:rel0));
    (* Fig 10(b): bounded-valuation chase checking at K_CFD = 16 *)
    Test.make ~name:"fig10b/cfd-checking-k16"
      (Staged.stage (fun () ->
           Cind_api.consistent ~backend:Cind_api.Chase_backend ~k_cfd:16
             ~rng:(Rng.make 2) cfd_schema
             (List.filter (fun nf -> nf.Cfd.nf_rel = rel0) cfds)
             ~rel:rel0));
    (* Fig 11(a)/(b): the two heuristics on a consistent mixed set *)
    Test.make ~name:"fig11ab/random-checking-consistent"
      (Staged.stage (fun () ->
           Cind_api.to_bool
             (Cind_api.random_check ~k:20 ~rng:(Rng.make 3) schema_c sigma_c)));
    Test.make ~name:"fig11ab/checking-consistent"
      (Staged.stage (fun () ->
           Cind_api.to_bool (Cind_api.check ~k:20 ~rng:(Rng.make 3) schema_c sigma_c)));
    (* Fig 11(c): the two heuristics on a random mixed set *)
    Test.make ~name:"fig11c/random-checking-random"
      (Staged.stage (fun () ->
           Cind_api.to_bool
             (Cind_api.random_check ~k:20 ~rng:(Rng.make 4) schema_r sigma_r)));
    Test.make ~name:"fig11c/checking-random"
      (Staged.stage (fun () ->
           Cind_api.to_bool (Cind_api.check ~k:20 ~rng:(Rng.make 4) schema_r sigma_r)));
    (* Fig 11(d): dependency-graph preprocessing alone on the mixed set *)
    Test.make ~name:"fig11d/preprocessing"
      (Staged.stage (fun () ->
           Cind_api.preprocess ~rng:(Rng.make 5) schema_c sigma_c));
    (* baselines the conditional analyses generalize *)
    Test.make ~name:"baseline/fd-closure"
      (Staged.stage (fun () ->
           Fd.implies
             [
               Fd.make ~rel:"r" ~x:[ "a" ] ~y:[ "b" ];
               Fd.make ~rel:"r" ~x:[ "b" ] ~y:[ "c" ];
             ]
             (Fd.make ~rel:"r" ~x:[ "a" ] ~y:[ "c" ])));
    Test.make ~name:"baseline/ind-membership"
      (Staged.stage (fun () ->
           Ind.implies
             [
               Ind.make ~lhs:"r" ~x:[ "a"; "b" ] ~rhs:"s" ~y:[ "c"; "d" ];
               Ind.make ~lhs:"s" ~x:[ "c" ] ~rhs:"t" ~y:[ "e" ];
             ]
             (Ind.make ~lhs:"r" ~x:[ "a" ] ~rhs:"t" ~y:[ "e" ])));
    (* the paper's running example: violation detection over Fig 1 *)
    Test.make ~name:"detection/bank-sigma"
      (Staged.stage (fun () -> Sigma.holds B.dirty_db B.sigma));
  ]

(* --- RandomChecking, batch and hot-path indexing micro section ---------------

   Measures the PR-tracked perf trajectory and writes it to
   BENCH_parallel.json (the file keeps its historical name):

   - RandomChecking on the Fig 10(b) needle profile (per-relation secrets,
     pattern-free CINDs — random search must grind through K runs).
   - The batch facade: [check_many] over N copies of a needle Σ against N
     singleton [check] calls on the same seed splits; verdicts must be
     bit-identical and the batch must not cost more.
   - The indexed chase: an IND chase over a growing relation whose
     witness checks go through the memoized projection index.  The
     per-step O(|R|) witness scans it replaced are gone from the library;
     their column repeats the time BENCH_parallel.json recorded at rev
     20ce52c, not a live run. *)

let needle_schema_config relations =
  {
    Schema_gen.num_relations = relations;
    min_arity = 3;
    max_arity = 5;
    finite_ratio = 1.0;
    finite_dom_min = 2;
    finite_dom_max = 2;
  }

let needle_workload ~seed ~relations ~cinds =
  let rng = Rng.make seed in
  let schema = Schema_gen.generate rng (needle_schema_config relations) in
  let sigma = Workload.needle_cfds rng schema in
  let cind_config = { Workload.default with max_pattern = 0 } in
  let cinds =
    List.init cinds (Workload.gen_cind rng cind_config schema ~consistent:false)
  in
  (schema, { sigma with Sigma.ncinds = cinds })

(* A chase input where witness checks dominate: N seed tuples in [lhs],
   one pattern-free CIND into [rhs] — every tuple needs a fresh witness,
   and an unindexed chase would re-scan the growing [rhs] per candidate
   per step. *)
let indexing_workload ~n =
  let attrs () =
    [
      Conddep_relational.Attribute.make "a" Conddep_relational.Domain.string_inf;
      Conddep_relational.Attribute.make "b" Conddep_relational.Domain.string_inf;
    ]
  in
  let schema =
    Db_schema.make
      [
        Conddep_relational.Schema.make "lhs" (attrs ());
        Conddep_relational.Schema.make "rhs" (attrs ());
      ]
  in
  let cind =
    {
      Cind.nf_name = "copy";
      nf_lhs = "lhs";
      nf_rhs = "rhs";
      nf_x = [ "a" ];
      nf_y = [ "a" ];
      nf_xp = [];
      nf_yp = [];
    }
  in
  let compiled = Chase.compile schema { Sigma.ncfds = []; ncinds = [ cind ] } in
  let db =
    List.fold_left
      (fun db i ->
        Template.add db "lhs"
          [|
            Template.C (Value.Str (Printf.sprintf "a%d" i));
            Template.C (Value.Str (Printf.sprintf "b%d" i));
          |])
      (Template.empty schema)
      (List.init n Fun.id)
  in
  (schema, compiled, db)

let recorded_unindexed_s = 0.071474

let checking_section () =
  Util.header "RandomChecking, batch and hot-path indexing (BENCH_parallel.json)";
  let schema, sigma = needle_workload ~seed:3 ~relations:8 ~cinds:20 in
  let k = 96 in
  Util.row "%-28s %-12s %-10s@." "benchmark" "time(s)" "verdict";
  let needle_s = ref 0. in
  Util.with_series_metrics "micro-parallel/needle" (fun () ->
      let r, s =
        Util.time (fun () ->
            Cind_api.random_check ~k ~k_cfd:40 ~rng:(Rng.make 7) schema sigma)
      in
      needle_s := s;
      Util.row "%-28s %-12.4f %-10s@."
        (Printf.sprintf "needle k=%d" k)
        s
        (match r with
        | Cind_api.Yes _ -> "consistent"
        | Cind_api.No -> "no"
        | Cind_api.Unknown _ -> "unknown"));
  (* batch facade overhead: [check_many] must track N singleton [check]
     calls, and its verdicts must be bit-identical to theirs *)
  let bschema, bsigma = needle_workload ~seed:5 ~relations:4 ~cinds:8 in
  let n_batch = 8 in
  let sigmas = List.init n_batch (fun _ -> bsigma) in
  let show_verdict = function
    | Cind_api.Yes (Some db) -> Fmt.str "yes:%a" Database.pp db
    | Cind_api.Yes None -> "yes"
    | Cind_api.No -> "no"
    | Cind_api.Unknown r -> "unknown:" ^ Guard.reason_to_string r
  in
  let batch () =
    List.map show_verdict
      (Cind_api.check_many ~k:4 ~k_cfd:10 ~rng:(Rng.make 21) bschema sigmas)
  in
  let singletons () =
    List.map
      (fun rng -> show_verdict (Cind_api.check ~k:4 ~k_cfd:10 ~rng bschema bsigma))
      (Rng.split_n (Rng.make 21) n_batch)
  in
  let vs, single_s = Util.time singletons in
  let vb, batch_s = Util.time batch in
  let batch_identical = List.equal String.equal vs vb in
  let batch_overhead = if single_s > 0. then batch_s /. single_s else Float.nan in
  Util.row "%-28s %-12.4f@."
    (Printf.sprintf "batch n=%d singletons" n_batch)
    single_s;
  Util.row "%-28s %-12.4f (overhead %.3fx)@."
    (Printf.sprintf "check_many n=%d" n_batch)
    batch_s batch_overhead;
  Util.row "batch verdicts bit-identical to singletons: %b@." batch_identical;
  let ischema, icompiled, idb = indexing_workload ~n:300 in
  let index_s = ref 0. in
  Util.with_series_metrics "micro-parallel/index=on" (fun () ->
      let r, s =
        Util.time (fun () ->
            Chase.run
              ~config:{ Chase.default_config with threshold = 100_000; max_steps = 100_000 }
              ~rng:(Rng.make 11) ischema icompiled idb)
      in
      (match r with
      | Chase.Terminal t -> assert (Template.cardinal t "rhs" = 300)
      | Chase.Undefined _ | Chase.Exhausted _ -> assert false);
      index_s := s);
  let index_s = !index_s in
  Util.row "%-28s %-12.4f (per-step O(|R|) witness scans, recorded at rev 20ce52c)@."
    "chase unindexed" recorded_unindexed_s;
  Util.row "%-28s %-12.4f (memoized projection index)@." "chase indexed" index_s;
  let oc = open_out "BENCH_parallel.json" in
  let j = Printf.fprintf in
  j oc "{\n";
  j oc "  \"random_checking_needle_s\": %.6f,\n" !needle_s;
  j oc "  \"chase_indexed_s\": %.6f,\n" index_s;
  j oc "  \"chase_unindexed_s_at_20ce52c\": %.6f,\n" recorded_unindexed_s;
  j oc "  \"batch_singletons_s\": %.6f,\n" single_s;
  j oc "  \"batch_check_many_jobs1_s\": %.6f,\n" batch_s;
  j oc "  \"batch_overhead_jobs1\": %.4f,\n" batch_overhead;
  j oc "  \"batch_identical_to_singletons\": %b,\n" batch_identical;
  j oc "  \"host_cores\": %d\n" (Stdlib.Domain.recommended_domain_count ());
  j oc "}\n";
  close_out oc;
  Util.row "wrote BENCH_parallel.json@."

(* --- per-phase profile breakdown (BENCH_profile.json) ------------------------

   The needle RandomChecking workload of [checking_section], run under
   the profiler: a per-span (calls, total, self) breakdown of where its
   time goes (run bodies vs preprocessing).  Coverage is the profiled
   self-time sum over wall clock. *)

let profile_section () =
  Util.header "Per-phase profile: needle (BENCH_profile.json)";
  let schema, sigma = needle_workload ~seed:3 ~relations:8 ~cinds:20 in
  let k = 96 in
  let was_profiling = Telemetry.profiling () in
  Telemetry.enable_profiling ();
  (* fresh attribution; trace buffers (a --profile whole-run trace) are
     deliberately untouched *)
  Telemetry.profile_reset ();
  let _, wall =
    Util.time (fun () ->
        Telemetry.with_span "bench.needle" (fun () ->
            Cind_api.random_check ~k ~k_cfd:40 ~rng:(Rng.make 7) schema sigma))
  in
  let phases = Telemetry.self_time_table () in
  let sum_self = List.fold_left (fun acc (_, _, _, s) -> acc +. s) 0. phases in
  let coverage = if wall > 0. then sum_self /. wall else Float.nan in
  if not was_profiling then Telemetry.disable_profiling ();
  Util.row "%-12s %-10s %s@." "wall(s)" "coverage" "top spans (self)";
  let top =
    List.filteri (fun i _ -> i < 3) phases
    |> List.map (fun (name, _, _, self) ->
           Printf.sprintf "%s=%s" name (Telemetry.dur_to_string self))
    |> String.concat " "
  in
  Util.row "%-12.4f %-10.2f %s@." wall coverage top;
  let oc = open_out "BENCH_profile.json" in
  let j = Printf.fprintf in
  j oc "{\n";
  j oc "  \"workload\": \"needle seed=3 relations=8 cinds=20 k=%d k_cfd=40\",\n" k;
  j oc "  \"wall_s\": %.6f,\n" wall;
  j oc "  \"coverage\": %.4f,\n" coverage;
  j oc "  \"phases\": [\n";
  List.iteri
    (fun pi (name, calls, total, self) ->
      j oc
        "    {\"span\": %S, \"calls\": %d, \"total_s\": %.6f, \"self_s\": \
         %.6f}%s\n"
        name calls total self
        (if pi = List.length phases - 1 then "" else ","))
    phases;
  j oc "  ]\n";
  j oc "}\n";
  close_out oc;
  Util.row "wrote BENCH_profile.json@."

(* --- delta-driven chase micro section ----------------------------------------

   The delta-driven chase on the copy micro, N-sweep, written to
   BENCH_chase.json.  The workload adds a never-firing CFD (rhs: a -> b,
   all-wildcard) to [indexing_workload]: the chase must re-verify it after
   every IND insert, and checks only (dirty tuple x relation) pairs
   (O(N^2) total) where a full pass over all pairs of the growing [rhs]
   per step would cost O(N^3).  Counter deltas (tuples drained, re-checks
   skipped) are recorded alongside wall-clock.  The full-rescan engine is
   gone from the library (its schedule lives on as the test suite's
   reference chase); its column repeats the times BENCH_chase.json
   recorded at rev 20ce52c, not a live run. *)

let recorded_naive_s = [ (50, 0.002478); (100, 0.010266); (200, 0.056332); (400, 0.433912) ]

let chase_workload ~n =
  let schema, _, db = indexing_workload ~n in
  let cind =
    {
      Cind.nf_name = "copy";
      nf_lhs = "lhs";
      nf_rhs = "rhs";
      nf_x = [ "a" ];
      nf_y = [ "a" ];
      nf_xp = [];
      nf_yp = [];
    }
  in
  let cfd =
    {
      Cfd.nf_name = "fd";
      nf_rel = "rhs";
      nf_x = [ "a" ];
      nf_a = "b";
      nf_tx = [ Pattern.Wildcard ];
      nf_ta = Pattern.Wildcard;
    }
  in
  let compiled =
    Chase.compile schema { Sigma.ncfds = [ cfd ]; ncinds = [ cind ] }
  in
  (schema, compiled, db)

let chase_section () =
  Util.header "Delta-driven chase: N-sweep (BENCH_chase.json)";
  let m_drained = Telemetry.counter "chase.delta.drained" in
  let m_skipped = Telemetry.counter "chase.delta.skipped" in
  let config =
    { Chase.default_config with threshold = 100_000; max_steps = 1_000_000 }
  in
  let ns = [ 50; 100; 200; 400 ] in
  Util.row "%-8s %-16s %-12s %-10s %-10s@." "n" "naive(s)@20ce52c" "delta(s)" "drained"
    "skipped";
  let rows =
    List.map
      (fun n ->
        let schema, compiled, db = chase_workload ~n in
        let result = ref (0., 0, 0) in
        Util.with_series_metrics (Printf.sprintf "micro-chase/n=%d" n) (fun () ->
            let d0 = Telemetry.count m_drained and s0 = Telemetry.count m_skipped in
            let r, s = Util.time (fun () -> Chase.run ~config ~rng:(Rng.make 11) schema compiled db) in
            (match r with Chase.Terminal _ -> () | Chase.Undefined _ | Chase.Exhausted _ -> assert false);
            result := (s, Telemetry.count m_drained - d0, Telemetry.count m_skipped - s0));
        let delta_s, drained, skipped = !result in
        let naive_s = List.assoc n recorded_naive_s in
        Util.row "%-8d %-16.4f %-12.4f %-10d %-10d@." n naive_s delta_s drained skipped;
        (n, naive_s, delta_s, drained, skipped))
      ns
  in
  let oc = open_out "BENCH_chase.json" in
  let j = Printf.fprintf in
  j oc "{\n";
  j oc "  \"series\": [\n";
  List.iteri
    (fun i (n, naive_s, delta_s, drained, skipped) ->
      j oc
        "    {\"n\": %d, \"delta_s\": %.6f, \"naive_s_at_20ce52c\": %.6f, \"drained\": %d, \
         \"skipped\": %d}%s\n"
        n delta_s naive_s drained skipped
        (if i = List.length rows - 1 then "" else ","))
    rows;
  j oc "  ],\n";
  j oc "  \"largest_n\": %d\n" (List.fold_left (fun m (n, _, _, _, _) -> max m n) 0 rows);
  j oc "}\n";
  close_out oc;
  Util.row "wrote BENCH_chase.json@."

let run () =
  chase_section ();
  checking_section ();
  profile_section ();
  Util.header "Bechamel micro-benchmarks (one per table/figure)";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let grouped = Test.make_grouped ~name:"conddep" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan
        in
        let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols) in
        (name, ns, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  Fmt.pr "%-45s %-16s %-8s@." "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, ns, r2) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
        else Printf.sprintf "%.1f ns" ns
      in
      Fmt.pr "%-45s %-16s %-8.4f@." name pretty r2)
    rows
