(* One run of one workload: the untraced end-to-end measurement or the
   traced per-layer replay, each checking every answer it gets. *)

open Conddep_relational
module Api = Cind_api

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let cindtool () =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) Runtime_deps.cindtool

(* Shown on stdout before the result line: one line per distinct input,
   free of timings, so two runs at one seed can be compared byte for
   byte. *)
let note fmt = Printf.printf (fmt ^^ "\n%!")

let wrong_answers = ref 0

let report_wrong what why =
  incr wrong_answers;
  note "WRONG %s: %s" what why

(* --- CLI workloads ------------------------------------------------------------ *)

type cli = {
  pool : smoke:bool -> dir:string -> Gen.rng -> Pools.request list;
  replay : Pools.request -> Layers.replay;
  judge : unit -> Pools.request -> Layers.replay -> string option;
      (** a fresh judge per run (it may keep a sampling budget) *)
}

let cli_workloads =
  let check backend =
    {
      pool = (match backend with Api.Chase_backend -> Pools.check_chase | Api.Sat_backend -> Pools.check_sat);
      replay = Layers.replay_check ~backend;
      judge = (fun () -> Layers.judge_check ~backend);
    }
  in
  [
    ("check-chase", check Api.Chase_backend);
    ("check-sat", check Api.Sat_backend);
    ( "implies",
      {
        pool = Pools.implies;
        replay = Layers.replay_implies;
        judge =
          (fun () ->
            let proof_budget = ref 8 in
            fun req obs -> Layers.judge_implies req ~code:obs.Layers.code ~proof_budget);
      } );
    ( "violations",
      { pool = Pools.violations; replay = Layers.replay_violations; judge = (fun () -> Layers.judge_violations) } );
  ]

let workload_names = List.map fst cli_workloads @ [ "session" ]

(* Warm-up requests: three inputs of the workload's small pool drawn
   from a fixed seed, so set-up time does not vary with --seed. *)
let warmups (w : cli) ~dir =
  let dir = Filename.concat dir "warmup" in
  Sys.mkdir dir 0o755;
  Gen.take 3 (w.pool ~smoke:true ~dir (Gen.rng 0))

let time f =
  let t0 = Proc.now () in
  f ();
  Proc.now () -. t0

let setup_repeats = 5

(* A distinct input (or session script line) and its timed executions.
   [at] is when an execution ended. *)
type sample = { at : float; wall_s : float; cpu_ms : float }
type unit_run = { samples : sample list; query : bool; decided : bool }

(* The end-to-end metrics of one run.  Every duration is scaled to the
   nominal reference speed at the time it was measured (Reference); the
   raw values go in the info line.  Latencies come scaled and raw from the
   caller.  Throughput and CPU time are per full pass over the units
   (each unit's mean counts once), so the partial pass a run ends with
   does not weight some inputs twice. *)
let e2e_metrics ~reference ~setups ~lat ~raw_lat ~units ~rss_mb ~attempted =
  let scale = Reference.scaler reference in
  let units = List.filter (fun u -> u.samples <> []) units in
  let per_unit f = List.map (fun u -> Stats.mean (List.map f u.samples)) units in
  let queries = List.filter (fun u -> u.query) units in
  let pass f = Stats.sum (per_unit f) in
  let n = float_of_int (List.length units) in
  [
    ("setup_s", Stats.median (List.map (fun (at, d) -> d *. scale at) setups), "s");
    ("latency_p50_ms", Stats.quantile lat 0.5, "ms");
    ("latency_p90_ms", Stats.quantile lat 0.9, "ms");
    ("requests_per_s", n /. pass (fun s -> s.wall_s *. scale s.at), "1/s");
    ("cpu_ms_per_request", Stats.mean (per_unit (fun s -> s.cpu_ms *. scale s.at)), "ms");
    ("peak_rss_mb", rss_mb, "MB");
    ( "decided_ratio",
      Stats.ratio (float_of_int (List.length (List.filter (fun u -> u.decided) queries))) (float_of_int (List.length queries)),
      "ratio" );
    ("requests", float_of_int attempted, "count");
    ("reference_ms", Reference.ms reference, "ms");
    ("raw_setup_s", Stats.median (List.map snd setups), "s");
    ("raw_latency_p50_ms", Stats.quantile raw_lat 0.5, "ms");
    ("raw_latency_p90_ms", Stats.quantile raw_lat 0.9, "ms");
    ("raw_requests_per_s", n /. pass (fun s -> s.wall_s), "1/s");
  ]

let e2e_cli (w : cli) ~smoke ~seconds ~dir r =
  let pool = w.pool ~smoke ~dir r in
  let order = Array.of_list (Gen.shuffle r pool) in
  let tool = cindtool () in
  let reference = Reference.create () in
  Reference.sample reference;
  let warmups = warmups w ~dir in
  let setups =
    List.init setup_repeats (fun _ ->
        let t = time (fun () -> List.iter (fun (q : Pools.request) -> ignore (Proc.run tool q.args)) warmups) in
        let at = Proc.now () in
        Reference.sample reference;
        (at, t))
  in
  (* the closed loop: one client, one request in flight *)
  let first = Hashtbl.create 64 in
  let samples = ref [] in
  let t0 = Proc.now () in
  let i = ref 0 in
  while if smoke then !i < Array.length order else Proc.now () -. t0 < seconds do
    let req = order.(!i mod Array.length order) in
    let res = Proc.run tool req.args in
    samples := (req.file, Proc.now (), res) :: !samples;
    (match Hashtbl.find_opt first req.file with
    | None -> Hashtbl.replace first req.file res
    | Some (prev : Proc.result) ->
        if prev.outcome <> res.outcome || prev.stdout <> res.stdout then
          report_wrong req.file "a repeated request answered differently");
    incr i;
    Reference.tick reference
  done;
  let judge = w.judge () in
  List.iter
    (fun (req : Pools.request) ->
      match Hashtbl.find_opt first req.file with
      | None -> ()
      | Some (res : Proc.result) -> (
          note "input %s %s: %s, output %s" (Filename.basename req.file) req.label (Proc.describe res.outcome)
            (Digest.to_hex (Digest.string res.stdout));
          match res.outcome with
          | Proc.Exited ((0 | 1 | 3) as code) -> (
              let obs = { Layers.code; out = res.stdout; counters = []; alloc_words = 0.; verdict = None } in
              match judge req obs with Some why -> report_wrong req.file why | None -> ())
          | _ -> ()))
    pool;
  let timed = !samples in
  let failed =
    List.length
      (List.filter (fun (_, _, s) -> match s.Proc.outcome with Proc.Exited (0 | 1 | 3) -> false | _ -> true) timed)
  in
  let attempted = List.length timed in
  let scale = Reference.scaler reference in
  let units =
    List.map
      (fun (req : Pools.request) ->
        let runs = List.filter (fun (file, _, _) -> file = req.file) timed in
        {
          samples = List.map (fun (_, at, s) -> { at; wall_s = s.Proc.wall_s; cpu_ms = s.Proc.cpu_s *. 1000. }) runs;
          query = true;
          decided =
            (match Hashtbl.find_opt first req.file with
            | Some { Proc.outcome = Proc.Exited (0 | 1); _ } -> true
            | _ -> false);
        })
      pool
  in
  {
    correct = !wrong_answers = 0;
    attempted;
    failed;
    metrics =
      e2e_metrics ~reference ~setups ~units
        ~lat:(List.map (fun (_, at, s) -> s.Proc.wall_s *. 1000. *. scale at) timed)
        ~raw_lat:(List.map (fun (_, _, s) -> s.Proc.wall_s *. 1000.) timed)
        ~rss_mb:(Stats.median (List.map (fun (_, _, s) -> float_of_int s.Proc.maxrss_kb /. 1024.) timed))
        ~attempted
      @ [
          ("failed_ratio", float_of_int failed /. float_of_int (max 1 attempted), "ratio");
          ("wrong_verdicts", float_of_int !wrong_answers, "count");
        ];
  }

(* --- per-layer metric table ------------------------------------------------------ *)

(* Layers timed by a benchmark span, in the order of the request path. *)
let timed_layers =
  [
    "process.startup"; "dsl.parse"; "core.normalize"; "chase.compile"; "consistency.preprocess";
    "consistency.check"; "consistency.random_checking"; "sat.cfd_consistent"; "implication.compile";
    "implication.decide"; "relational.csv_load"; "cleaning.detect"; "output.print"; "incremental.consistent";
    "incremental.implies"; "incremental.holds"; "incremental.check"; "incremental.add"; "incremental.remove";
    "incremental.insert";
  ]

(* Existing library counters, read as deltas per request: (metric, counter). *)
let counter_metrics =
  [
    ("chase.fd_steps", "chase.fd_steps");
    ("chase.ind_steps", "chase.ind_steps");
    ("chase.runs", "chase.runs");
    ("sat.solve_calls", "sat.solve_calls");
    ("sat.conflicts", "sat.conflicts");
    ("sat.decisions", "sat.decisions");
    ("sat.propagations", "sat.propagations");
    ("sat.learned", "sat.learned");
    ("sat.restarts", "sat.restarts");
    ("cleaning.violations", "detect.naive.violations");
    ("cleaning.tuples_scanned", "detect.naive.tuples_scanned");
    ("supervise.retries", "supervise.retries");
    ("supervise.degraded", "supervise.degraded");
    ("guard.deadline_hits", "guard.deadline_hits");
    ("guard.memory_hits", "guard.memory_hits");
    ("parallel.tasks", "parallel.tasks");
    ("parallel.pools", "parallel.pools");
  ]

let other_metrics =
  [
    ("dsl.parse_alloc_mw", "Mwords");
    ("consistency.random_success_ratio", "ratio");
    ("implication.undetermined_ratio", "ratio");
    ("output.bytes", "bytes");
    ("incremental.hit_ratio", "ratio");
    ("incremental.invalidations_per_edit", "count");
    ("incremental.cache_entries", "count");
    ("relational.interner_values", "count");
    ("trace.coverage", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

let per_layer_units =
  List.concat_map (fun l -> [ (l ^ "_ms", "ms"); (l ^ ".share", "ratio") ]) timed_layers
  @ List.map (fun (m, _) -> (m, "count")) counter_metrics
  @ other_metrics

let end_to_end_units =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("requests_per_s", "1/s");
    ("cpu_ms_per_request", "ms");
    ("peak_rss_mb", "MB");
    ("decided_ratio", "ratio");
  ]

(* One traced request: its in-process wall time, its spans (seconds per
   layer), its library counter deltas and other readings. *)
type traced = {
  wall : float;
  layer : (string * float) list;
  deltas : (string * int) list;
  extra : (string * float) list;
}

(* Fill the whole per-layer table from the traced requests; layers and
   counters a workload never reaches read 0.  [startup] is the probe's
   process start-up time when each request spawns a cindtool process; it
   then counts once in every request's wall time.  [others] gives every
   entry of [other_metrics] but the trace's own and the counter ratio. *)
let layer_metrics ~startup ~coverage ~overhead ~others (reqs : traced list) =
  let n = float_of_int (max 1 (List.length reqs)) in
  let startup_of _ = Option.to_list startup in
  let total_wall = Stats.sum (List.map (fun t -> t.wall +. Stats.sum (startup_of t)) reqs) in
  let timed =
    List.concat_map
      (fun l ->
        (* a layer's median is over the requests that reach it *)
        let vals =
          if l = "process.startup" then List.concat_map startup_of reqs
          else List.filter_map (fun t -> List.assoc_opt l t.layer) reqs
        in
        let median = if vals = [] then 0. else Stats.median vals in
        [ (l ^ "_ms", median *. 1000., "ms"); (l ^ ".share", Stats.ratio (Stats.sum vals) total_wall, "ratio") ])
      timed_layers
  in
  let counter c =
    Stats.sum (List.map (fun t -> float_of_int (Option.value ~default:0 (List.assoc_opt c t.deltas))) reqs)
  in
  let counters = List.map (fun (m, c) -> (m, counter c /. n, "count")) counter_metrics in
  let extra =
    List.map
      (fun (m, unit) ->
        let v =
          match m with
          | "trace.coverage" -> coverage
          | "trace.overhead_ratio" -> overhead
          | "consistency.random_success_ratio" ->
              Stats.ratio (counter "checking.random.successes") (counter "checking.random.runs")
          | _ -> List.assoc m others
        in
        (m, v, unit))
      other_metrics
  in
  timed @ counters @ extra

(* Median start-up cost of a cindtool process: parsing a one-line file. *)
let startup_probe ~dir =
  let file = Filename.concat dir "startup.cind" in
  Pools.write file "schema s (a : string);\n";
  let tool = cindtool () in
  Stats.median (List.init 15 (fun _ -> (Proc.run tool [ "parse"; file ]).Proc.wall_s))

let set_tracing on =
  Layers.tracing := on;
  Layers.probes := on;
  if on then Telemetry.enable () else Telemetry.disable ()

(* Tracing overhead: the same few requests replayed with spans and
   telemetry off and on, alternating, without the probe calls. *)
let overhead_ratio f =
  let run on =
    set_tracing on;
    Layers.probes := false;
    time f
  in
  let off1 = run false in
  let on1 = run true in
  let off2 = run false in
  let on2 = run true in
  set_tracing true;
  Stats.ratio (on1 +. on2) (off1 +. off2)

(* Sum the spans of one request per layer. *)
let by_layer spans =
  List.fold_left
    (fun acc (l, d) -> (l, d +. Option.value ~default:0. (List.assoc_opt l acc)) :: List.remove_assoc l acc)
    [] spans

let trace_cli (w : cli) ~smoke ~seconds ~dir r =
  let pool = w.pool ~smoke ~dir r in
  let order = Gen.shuffle r pool in
  let startup = startup_probe ~dir in
  let judge = w.judge () in
  set_tracing true;
  let t0 = Proc.now () in
  let failed = ref 0 in
  let replay (req : Pools.request) =
    Layers.spans := [];
    let start = Proc.now () in
    match w.replay req with
    | exception e ->
        incr failed;
        note "input %s %s: failed: %s" (Filename.basename req.file) req.label (Printexc.to_string e);
        None
    | obs ->
        let wall = Proc.now () -. start in
        let layer = by_layer !Layers.spans in
        note "input %s %s: exit %d, output %s" (Filename.basename req.file) req.label obs.code
          (Digest.to_hex (Digest.string obs.out));
        (match judge req obs with Some why -> report_wrong req.file why | None -> ());
        let undetermined = if List.mem_assoc "implication.decide" layer && obs.code = 3 then 1. else 0. in
        Some
          {
            wall;
            layer;
            deltas = obs.counters;
            extra =
              [
                ("dsl.parse_alloc_mw", obs.alloc_words /. 1e6);
                ("output.bytes", float_of_int (String.length obs.out));
                ("implication.undetermined_ratio", undetermined);
              ];
          }
  in
  (* every distinct input once, as far as the run length allows *)
  let reqs = List.filter_map (fun req -> if smoke || Proc.now () -. t0 < seconds then replay req else None) order in
  let spans_total = Stats.sum (List.concat_map (fun t -> List.map snd t.layer) reqs) in
  (* RandomChecking's share of a check: the check minus its preProcessing *)
  let reqs =
    List.map
      (fun t ->
        match (List.assoc_opt "consistency.check" t.layer, List.assoc_opt "consistency.preprocess" t.layer) with
        | Some c, Some p -> { t with layer = ("consistency.random_checking", Float.max 0. (c -. p)) :: t.layer }
        | _ -> t)
      reqs
  in
  let walls = Stats.sum (List.map (fun t -> t.wall) reqs) in
  let subset = Gen.take 4 order in
  let overhead = overhead_ratio (fun () -> List.iter (fun req -> ignore (w.replay req)) subset) in
  let values m = List.map (fun t -> List.assoc m t.extra) reqs in
  let others =
    [
      ("dsl.parse_alloc_mw", Stats.median (values "dsl.parse_alloc_mw"));
      ("implication.undetermined_ratio", Stats.mean (values "implication.undetermined_ratio"));
      ("output.bytes", Stats.mean (values "output.bytes"));
      ("incremental.hit_ratio", 0.);
      ("incremental.invalidations_per_edit", 0.);
      ("incremental.cache_entries", 0.);
      ("relational.interner_values", float_of_int (Interner.value_count ()));
    ]
  in
  {
    correct = !wrong_answers = 0;
    attempted = List.length reqs + !failed;
    failed = !failed;
    metrics = layer_metrics ~startup:(Some startup) ~coverage:(Stats.ratio spans_total walls) ~overhead ~others reqs;
  }

(* --- session ------------------------------------------------------------------ *)

let exec_line st line =
  match Session.exec st line with
  | answer -> Some answer
  | exception e ->
      note "session line %S failed: %s" line (Printexc.to_string e);
      None

(* Fresh sessions loaded with Σ and the database, then one cold pass of
   each script. *)
let session_setup scripts =
  List.map
    (fun (sc : Session.script) ->
      let st = Session.fresh () in
      List.iter (fun l -> ignore (exec_line st l)) sc.setup;
      List.iter (fun l -> ignore (exec_line st l)) sc.pass;
      (sc, st))
    scripts

(* One round: every session's pass, one after the other. *)
let round sessions = Array.of_list (List.concat_map (fun ((sc : Session.script), st) -> List.map (fun l -> (st, l)) sc.pass) sessions)

(* One untimed round with every query compared against fresh computation
   (Session.judge). *)
let verify_round sessions =
  Array.iteri
    (fun i (st, line) ->
      match exec_line st line with
      | Some answer -> (
          note "session op %03d %s: %s" i line (Session.show answer);
          match Session.judge st line answer with Some why -> report_wrong line why | None -> ())
      | None -> ())
    (round sessions)

let e2e_session ~smoke ~seconds ~dir r =
  let scripts = Session.generate_all ~smoke ~dir r in
  let reference = Reference.create () in
  Reference.sample reference;
  let sessions = ref [] in
  let setups =
    List.init setup_repeats (fun _ ->
        let t = time (fun () -> sessions := session_setup scripts) in
        let at = Proc.now () in
        Reference.sample reference;
        (at, t))
  in
  let sessions = !sessions in
  (* read before the timed loop, whose own samples would add to it *)
  let rss_mb = float_of_int (Proc.self_maxrss_kb ()) /. 1024. in
  let ops_of_round = round sessions in
  (* a line's latency is its median over the rounds: one GC slice or
     cache miss must not move a percentile over lines *)
  let per_line = Array.make (Array.length ops_of_round) [] in
  let decided = Array.make (Array.length ops_of_round) false in
  let failed = ref 0 and ops = ref 0 in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let t0 = Proc.now () in
  while if smoke then !ops < Array.length ops_of_round else Proc.now () -. t0 < seconds do
    let i = !ops mod Array.length ops_of_round in
    let st, line = ops_of_round.(i) in
    let c0 = cpu () and start = Proc.now () in
    let answer = exec_line st line in
    let at = Proc.now () in
    per_line.(i) <- { at; wall_s = at -. start; cpu_ms = (cpu () -. c0) *. 1000. } :: per_line.(i);
    incr ops;
    (match answer with None -> incr failed | Some a -> decided.(i) <- Session.decided a);
    Reference.tick reference
  done;
  let scale = Reference.scaler reference in
  let is_query i = match Session.kind (snd ops_of_round.(i)) with Session.Query _ -> true | Session.Edit _ -> false in
  let medians ~query f =
    List.filter_map
      (fun i -> if is_query i = query && per_line.(i) <> [] then Some (Stats.median (List.map f per_line.(i))) else None)
      (List.init (Array.length ops_of_round) Fun.id)
  in
  let scaled s = s.wall_s *. 1000. *. scale s.at in
  let edits = medians ~query:false scaled in
  verify_round sessions;
  {
    correct = !wrong_answers = 0;
    attempted = !ops;
    failed = !failed;
    metrics =
      e2e_metrics ~reference ~setups ~rss_mb ~attempted:!ops
        ~lat:(medians ~query:true scaled)
        ~raw_lat:(medians ~query:true (fun s -> s.wall_s *. 1000.))
        ~units:(List.init (Array.length ops_of_round) (fun i -> { samples = per_line.(i); query = is_query i; decided = decided.(i) }))
      @ [
          ("failed_ratio", Stats.ratio (float_of_int !failed) (float_of_int !ops), "ratio");
          ("wrong_verdicts", float_of_int !wrong_answers, "count");
          ("edit_p50_ms", Stats.quantile edits 0.5, "ms");
          ("edit_p90_ms", Stats.quantile edits 0.9, "ms");
        ];
  }

let trace_session ~smoke ~seconds ~dir r =
  let scripts = Session.generate_all ~smoke ~dir r in
  let sessions = session_setup scripts in
  let ops_of_round = round sessions in
  set_tracing true;
  let before = Telemetry.counter_snapshot () in
  (* warm rounds, each op one request *)
  let reqs = ref [] and edits = ref 0 and failed = ref 0 in
  let t0 = Proc.now () in
  let rounds = ref 0 in
  while !rounds = 0 || ((not smoke) && Proc.now () -. t0 < seconds /. 2.) do
    Array.iter
      (fun (st, line) ->
        let verb = List.hd (String.split_on_char ' ' line) in
        Layers.spans := [];
        let start = Proc.now () in
        (match Layers.span ("incremental." ^ verb) (fun () -> exec_line st line) with
        | None -> incr failed
        | Some _ -> ());
        let wall = Proc.now () -. start in
        if Session.kind line = Session.Edit verb then incr edits;
        reqs := { wall; layer = by_layer !Layers.spans; deltas = []; extra = [] } :: !reqs)
      ops_of_round;
    incr rounds
  done;
  let after = Telemetry.counter_snapshot () in
  let delta c = float_of_int (List.assoc c after - List.assoc c before) in
  let reqs = !reqs in
  let spans_total = Stats.sum (List.concat_map (fun t -> List.map snd t.layer) reqs) in
  let walls = Stats.sum (List.map (fun t -> t.wall) reqs) in
  let overhead = overhead_ratio (fun () -> Array.iter (fun (st, l) -> ignore (exec_line st l)) ops_of_round) in
  verify_round sessions;
  let others =
    [
      ("dsl.parse_alloc_mw", 0.);
      ("implication.undetermined_ratio", 0.);
      ("output.bytes", 0.);
      ("incremental.hit_ratio", Stats.ratio (delta "incremental.hits") (delta "incremental.hits" +. delta "incremental.misses"));
      ("incremental.invalidations_per_edit", Stats.ratio (delta "incremental.invalidations") (float_of_int !edits));
      ( "incremental.cache_entries",
        float_of_int (Option.value ~default:0 (List.assoc_opt "incremental.cache_entries" (Telemetry.gauge_snapshot ()))) );
      ("relational.interner_values", float_of_int (Interner.value_count ()));
    ]
  in
  {
    correct = !wrong_answers = 0;
    attempted = List.length reqs;
    failed = !failed;
    metrics = layer_metrics ~startup:None ~coverage:(Stats.ratio spans_total walls) ~overhead ~others reqs;
  }
