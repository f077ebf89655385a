(* Supervision-under-chaos section: sweep fault schedules over the probe
   registry and write BENCH_chaos.json — rounds survived, retries spent,
   and the supervision overhead on the 0-fault hot path (supervised vs
   unsupervised run of the same check). *)

let supervised = { Supervise.Policy.retries = 2 }

(* Interleaved min-of-n for two rivals: alternating samples cancel slow
   drift (frequency scaling, GC debt) that back-to-back blocks pick up. *)
let best_pair n f g =
  let bf = ref Float.infinity and bg = ref Float.infinity in
  for _ = 1 to n do
    let _, sf = Util.time f in
    let _, sg = Util.time g in
    bf := Float.min !bf sf;
    bg := Float.min !bg sg
  done;
  (!bf, !bg)

(* A fault-free schedule: the overhead comparison runs the same workload
   under both policies with nothing armed. *)
let fault_free =
  {
    Chaos.s_seed = 0;
    s_round = 0;
    s_workload_seed = 7;
    s_check_seed = 11;
    s_relations = 12;
    s_constraints = 150;
    s_arms = [];
  }

let run () =
  Util.header "Supervision under chaos (BENCH_chaos.json)";
  let m_retries = Telemetry.counter "supervise.retries" in
  let seed = 2026 and rounds = 25 in
  let r0 = Telemetry.count m_retries in
  let report = ref None in
  Util.with_series_metrics "chaos/sweep" (fun () ->
      report := Some (Chaos.sweep ~policy:supervised ~seed ~rounds ()));
  let report = Option.get !report in
  let retries = Telemetry.count m_retries - r0 in
  let failures = List.length report.Chaos.failures in
  Util.row
    "sweep: %d round(s): %d identical, %d degraded-to-unknown, %d \
     failure(s); retries=%d@."
    rounds report.Chaos.survived report.Chaos.unknowns failures retries;
  let baseline () =
    ignore (Chaos.baseline_verdict ~policy:Supervise.Policy.default fault_free)
  in
  let supervised_run () =
    ignore (Chaos.baseline_verdict ~policy:supervised fault_free)
  in
  (* warm the interners and allocator before timing; each sample batches
     50 checks so the ~us timer noise amortizes below the effect size *)
  baseline ();
  supervised_run ();
  let batch f () = for _ = 1 to 50 do f () done in
  let off, on_ = best_pair 7 (batch baseline) (batch supervised_run) in
  let off = off /. 50. and on_ = on_ /. 50. in
  let overhead = (on_ -. off) /. Float.max off 1e-9 in
  Util.row "0-fault overhead: unsupervised %.6fs, supervised %.6fs (%+.2f%%)@."
    off on_ (100. *. overhead);
  let oc = open_out "BENCH_chaos.json" in
  let j = Printf.fprintf in
  j oc "{\n";
  j oc "  \"seed\": %d,\n" seed;
  j oc "  \"rounds\": %d,\n" rounds;
  j oc "  \"survived_identical\": %d,\n" report.Chaos.survived;
  j oc "  \"degraded_to_unknown\": %d,\n" report.Chaos.unknowns;
  j oc "  \"failures\": %d,\n" failures;
  j oc "  \"retries\": %d,\n" retries;
  j oc "  \"zero_fault_unsupervised_s\": %.6f,\n" off;
  j oc "  \"zero_fault_supervised_s\": %.6f,\n" on_;
  j oc "  \"zero_fault_overhead\": %.4f,\n" overhead;
  j oc "  \"zero_fault_overhead_target\": 0.02\n";
  j oc "}\n";
  close_out oc;
  Util.row "wrote BENCH_chaos.json (0-fault overhead %+.2f%%, target <= 2%%)@."
    (100. *. overhead)
