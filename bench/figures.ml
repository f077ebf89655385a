open Conddep_relational
open Conddep_core
open Conddep_generator
open Util

(* Regeneration of the paper's Fig 10 and Fig 11 series (Section 6).
   Absolute numbers differ from the 2007 testbed; the reported *shapes* are
   what these sweeps reproduce: Chase scales far better than SAT (10a),
   accuracy grows with K_CFD (10b), both heuristics stay near 100% accurate
   on consistent sets (11a), Checking is faster than RandomChecking thanks
   to preProcessing (11b–11c), and runtime grows with the schema at a fixed
   constraints-per-relation ratio (11d). *)

(* --- Fig 10(a): CFD_Checking runtime, Chase vs SAT ----------------------- *)

let fig10a scale =
  header "Fig 10(a): CFD_Checking runtime — Chase vs SAT (consistent CFD sets)";
  row "%-14s %-12s %-12s@." "cfds/relation" "chase(s)" "sat(s)";
  (* one schema for the whole sweep, several repetitions per point: the
     series then reflects constraint-count scaling, not schema variance *)
  let sconfig = Workloads.schema_config ~finite_ratio:0.25 scale in
  let schema = Schema_gen.generate (Rng.make 1000) sconfig in
  let rels = Db_schema.rel_names schema in
  let reps = 3 in
  Workloads.fig10a_cfds_per_relation scale
  |> List.iter (fun per_rel ->
      with_series_metrics (Printf.sprintf "fig10a/cfds=%d" per_rel) @@ fun () ->
      let rng = Rng.make (1000 + per_rel) in
      let total = per_rel * sconfig.Schema_gen.num_relations in
      let sigma =
        Workload.cfds_only rng (Workloads.workload_config total) schema ~consistent:true
      in
      let cfds = sigma.Sigma.ncfds in
      let check backend () =
        List.iter
          (fun rel ->
            ignore
              (Cind_api.consistent ~backend ~k_cfd:50 ~rng:(Rng.make 1) schema
                 cfds ~rel))
          rels
      in
      let time_backend backend =
        mean (List.init reps (fun _ -> snd (time (check backend))))
      in
      let chase_s = time_backend Cind_api.Chase_backend in
      let sat_s = time_backend Cind_api.Sat_backend in
      row "%-14d %-12.4f %-12.4f@." per_rel chase_s sat_s)

(* --- Fig 10(b): chase-based CFD_Checking accuracy vs K_CFD ---------------- *)

let fig10b scale =
  header "Fig 10(b): chase CFD_Checking accuracy vs K_CFD (hard random CFD sets)";
  row "%-10s %-12s@." "K_CFD" "accuracy(%)";
  let sconfig = Workloads.fig10b_schema_config scale in
  let rng = Rng.make 4242 in
  let schema = Schema_gen.generate rng sconfig in
  let sigma = Workload.needle_cfds rng schema in
  row "(%d CFDs over %d relations)@." (List.length sigma.Sigma.ncfds)
    sconfig.Schema_gen.num_relations;
  let cfds = sigma.Sigma.ncfds in
  let rels = Db_schema.rel_names schema in
  (* exact ground truth per relation (skipping budget blow-ups) *)
  let truth =
    List.filter_map
      (fun rel ->
        match Cfd_consistency.consistent_rel ~max_nodes:3_000_000 schema ~rel cfds with
        | b -> Some (rel, b)
        | exception Cfd_consistency.Budget_exceeded -> None)
      rels
  in
  Workloads.fig10b_kcfd scale
  |> List.iter (fun k_cfd ->
      with_series_metrics (Printf.sprintf "fig10b/kcfd=%d" k_cfd) @@ fun () ->
      let hits =
        List.length
          (List.filter
             (fun (rel, expected) ->
               let rel_cfds = List.filter (fun nf -> nf.Cfd.nf_rel = rel) cfds in
               let got =
                 Cind_api.to_bool
                   (Cind_api.consistent ~backend:Cind_api.Chase_backend ~k_cfd
                      ~rng:(Rng.make k_cfd) schema rel_cfds ~rel)
               in
               got = expected)
             truth)
      in
      row "%-10d %-12.1f@." k_cfd (percentage hits (List.length truth)))

(* --- Fig 11: RandomChecking vs Checking ----------------------------------- *)

let run_algorithms ~consistent ~scale ~num_constraints seed =
  let sconfig = Workloads.schema_config scale in
  let rng = Rng.make seed in
  let schema = Schema_gen.generate rng sconfig in
  let sigma =
    if consistent then Workload.consistent rng (Workloads.workload_config num_constraints) schema
    else Workload.random rng (Workloads.workload_config num_constraints) schema
  in
  let random_result, random_s =
    time (fun () ->
        Cind_api.to_bool
          (Cind_api.random_check ~k:20 ~rng:(Rng.make (seed + 1)) schema sigma))
  in
  let checking_result, checking_s =
    time (fun () ->
        Cind_api.to_bool (Cind_api.check ~k:20 ~rng:(Rng.make (seed + 1)) schema sigma))
  in
  (random_result, random_s, checking_result, checking_s)

let fig11_sweep ~consistent ~title ~series:series_name scale =
  header title;
  row "%-14s %-18s %-18s %-14s %-14s@." "constraints" "random_acc(%)" "checking_acc(%)"
    "random(s)" "checking(s)";
  let trials = Workloads.trials scale in
  Workloads.fig11_num_constraints scale
  |> List.iter (fun n ->
      with_series_metrics (Printf.sprintf "%s/constraints=%d" series_name n) @@ fun () ->
      let results =
        List.init trials (fun i ->
            run_algorithms ~consistent ~scale ~num_constraints:n (n + (31 * i)))
      in
      let random_hits = List.length (List.filter (fun (r, _, _, _) -> r) results) in
      let checking_hits = List.length (List.filter (fun (_, _, c, _) -> c) results) in
      let random_s = mean (List.map (fun (_, s, _, _) -> s) results) in
      let checking_s = mean (List.map (fun (_, _, _, s) -> s) results) in
      if consistent then
        row "%-14d %-18.1f %-18.1f %-14.4f %-14.4f@." n
          (percentage random_hits trials)
          (percentage checking_hits trials)
          random_s checking_s
      else
        row "%-14d %-18s %-18s %-14.4f %-14.4f@." n "-" "-" random_s checking_s)

let fig11a scale =
  fig11_sweep ~consistent:true
    ~title:
      "Fig 11(a)+11(b): accuracy and runtime on CONSISTENT CFD+CIND sets \
       (RandomChecking vs Checking)"
    ~series:"fig11a" scale

let fig11c scale =
  fig11_sweep ~consistent:false
    ~title:"Fig 11(c): runtime on RANDOM CFD+CIND sets (RandomChecking vs Checking)"
    ~series:"fig11c" scale

(* --- Fig 11(d): scaling the number of relations --------------------------- *)

let fig11d scale =
  header "Fig 11(d): runtime vs number of relations (card(Sigma)/|R| fixed)";
  let ratio = Workloads.fig11d_ratio scale in
  row "(constraints per relation: %d)@." ratio;
  row "%-12s %-14s %-14s %-14s@." "relations" "constraints" "random(s)" "checking(s)";
  Workloads.fig11d_relations scale
  |> List.iter (fun nrels ->
      with_series_metrics (Printf.sprintf "fig11d/relations=%d" nrels) @@ fun () ->
      let sconfig = Workloads.schema_config ~num_relations:nrels scale in
      let sconfig = { sconfig with Schema_gen.num_relations = nrels } in
      let n = ratio * nrels in
      let rng = Rng.make (7000 + nrels) in
      let schema = Schema_gen.generate rng sconfig in
      let sigma = Workload.consistent rng (Workloads.workload_config n) schema in
      let _, random_s =
        time (fun () ->
            Cind_api.to_bool
              (Cind_api.random_check ~k:20 ~rng:(Rng.make 3) schema sigma))
      in
      let _, checking_s =
        time (fun () ->
            Cind_api.to_bool (Cind_api.check ~k:20 ~rng:(Rng.make 3) schema sigma))
      in
      row "%-12d %-14d %-14.4f %-14.4f@." nrels n random_s checking_s)

(* --- detection scalability ---------------------------------------------------
   The data-cleaning side of the paper's motivation: detect all CFD/CIND
   violations over growing databases with the hash-grouped detector (the
   in-memory analogue of the SQL detection of [9] that Section 8 points
   to).  The pairwise reference detector lives in the test suite as an
   oracle; its column repeats the quick-scale times EXPERIMENTS.md recorded
   at rev 70cf46b ("-" where none was recorded), not a live run. *)

let recorded_naive_s = [ (20, 0.0031); (80, 0.0186); (160, 0.0759) ]

let detection scale =
  header "Detection scalability: hash-grouped violation detection";
  row "%-14s %-18s %-12s %-12s@." "tuples/rel" "naive(s)@70cf46b" "fast(s)" "violations";
  let sconfig = Workloads.schema_config scale in
  let rng = Rng.make 2026 in
  let schema = Schema_gen.generate rng sconfig in
  let sigma = Workload.consistent rng (Workloads.workload_config 200) schema in
  let sizes =
    match scale with
    | Workloads.Full -> [ 50; 100; 200; 400; 800 ]
    | Workloads.Quick -> [ 20; 40; 80; 160 ]
  in
  sizes
  |> List.iter (fun n ->
      with_series_metrics (Printf.sprintf "detection/tuples=%d" n) @@ fun () ->
      let db = Workload.dirty_database (Rng.make n) schema ~tuples_per_rel:n ~error_rate:0.1 in
      let fast, fast_s = time (fun () -> Conddep_cleaning.Fast_detect.detect db sigma) in
      let naive =
        match List.assoc_opt n recorded_naive_s with
        | Some s -> Printf.sprintf "%.4f" s
        | None -> "-"
      in
      row "%-14d %-18s %-12.4f %-12d@." n naive fast_s (List.length fast))

(* --- ablations -------------------------------------------------------------- *)

(* Pool size N (the paper reports negligible accuracy impact; N = 2 used). *)
let ablation_pool_size scale =
  header "Ablation: variable-pool bound N (Section 5.1 / Section 6)";
  row "%-6s %-16s %-12s@." "N" "accuracy(%)" "checking(s)";
  let trials = Workloads.trials scale in
  let n_constraints = List.hd (List.rev (Workloads.fig11_num_constraints scale)) in
  [ 1; 2; 4; 8 ]
  |> List.iter (fun pool_size ->
      with_series_metrics (Printf.sprintf "ablation-n/N=%d" pool_size) @@ fun () ->
      let config = { Conddep_chase.Chase.default_config with pool_size } in
      let results =
        List.init trials (fun i ->
            let seed = 9000 + (17 * i) in
            let rng = Rng.make seed in
            let schema = Schema_gen.generate rng (Workloads.schema_config scale) in
            let sigma =
              Workload.consistent rng (Workloads.workload_config n_constraints) schema
            in
            time (fun () ->
                Cind_api.to_bool
                  (Cind_api.check ~config ~k:20 ~rng:(Rng.make (seed + 1)) schema sigma)))
      in
      let hits = List.length (List.filter fst results) in
      row "%-6d %-16.1f %-12.4f@." pool_size
        (percentage hits trials)
        (mean (List.map snd results)))

(* Chase vs SAT backend inside Checking's preProcessing. *)
let ablation_backend scale =
  header "Ablation: CFD_Checking backend inside Checking (chase vs SAT)";
  row "%-10s %-16s %-12s@." "backend" "accuracy(%)" "checking(s)";
  let trials = Workloads.trials scale in
  let n_constraints = List.hd (List.rev (Workloads.fig11_num_constraints scale)) in
  [ ("chase", Cind_api.Chase_backend); ("sat", Cind_api.Sat_backend) ]
  |> List.iter (fun (name, backend) ->
      with_series_metrics (Printf.sprintf "ablation-backend/%s" name) @@ fun () ->
      let results =
        List.init trials (fun i ->
            let seed = 11000 + (13 * i) in
            let rng = Rng.make seed in
            let schema = Schema_gen.generate rng (Workloads.schema_config scale) in
            let sigma =
              Workload.consistent rng (Workloads.workload_config n_constraints) schema
            in
            time (fun () ->
                Cind_api.to_bool
                  (Cind_api.check ~backend ~k:20 ~rng:(Rng.make (seed + 1)) schema sigma)))
      in
      let hits = List.length (List.filter fst results) in
      row "%-10s %-16.1f %-12.4f@." name
        (percentage hits trials)
        (mean (List.map snd results)))
