(* The repository benchmark.  See README.md in this directory.

     run.exe [--seed N] [--seconds S] [--out FILE]
         every workload, untraced then traced, each in its own process
     run.exe --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
         one workload; the last stdout line is the result as JSON
     run.exe compare OLD.json... -- NEW.json...
     run.exe smoke BENCHMARK.json      the checks [dune runtest] runs
     run.exe runaway                   the known implication runaway
     run.exe --kernel                  the reference kernel (Reference) *)

let default_seconds = 15.
let work_root = ".bench_work"

let rec remove path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir name =
  let dir = Filename.concat work_root name in
  remove dir;
  if not (Sys.file_exists work_root) then Sys.mkdir work_root 0o755;
  Sys.mkdir dir 0o755;
  dir

(* Remove a work directory, and the work root once it is empty. *)
let cleanup dir =
  remove dir;
  try Sys.rmdir work_root with Sys_error _ -> ()

let metrics_json ms = Json.Obj (List.map (fun (k, v, u) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])) ms)

let entry ~workload ~trace ~seed (r : Measure.result) =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("trace", Json.Num (if trace then 1. else 0.));
      ("seed", Json.Num (float_of_int seed));
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", metrics_json r.metrics);
    ]

let host () =
  [ ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ()))); ("ocaml", Json.Str Sys.ocaml_version) ]

type opts = { workload : string option; seed : int; seconds : float; trace : bool; out : string option; smoke : bool }

let parse_opts args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workload = Some w } rest
    | "--seed" :: n :: rest -> go { o with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { o with seconds = float_of_string s } rest
    | "--trace" :: t :: rest -> go { o with trace = t = "1" } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  go { workload = None; seed = 1; seconds = default_seconds; trace = false; out = None; smoke = false } args

(* One workload in this process: the result line carries exactly the
   metrics BENCHMARK.json lists for the mode; the rest go on the line
   before it and into --out. *)
let single o workload =
  Supervise.Policy.set_ambient Supervise.Policy.supervised;
  let dir = fresh_dir workload in
  let r = Gen.rng o.seed in
  let smoke = o.smoke and seconds = o.seconds in
  let result =
    match (List.assoc_opt workload Measure.cli_workloads, o.trace) with
    | Some w, false -> Measure.e2e_cli w ~smoke ~seconds ~dir r
    | Some w, true -> Measure.trace_cli w ~smoke ~seconds ~dir r
    | None, false when workload = "session" -> Measure.e2e_session ~smoke ~seconds ~dir r
    | None, true when workload = "session" -> Measure.trace_session ~smoke ~seconds ~dir r
    | None, _ -> failwith ("unknown workload " ^ workload)
  in
  cleanup dir;
  Option.iter
    (fun f ->
      Out_channel.with_open_bin f (fun oc ->
          output_string oc (Json.to_string (Json.Obj (("results", Json.Arr [ entry ~workload ~trace:o.trace ~seed:o.seed result ]) :: host ())))))
    o.out;
  let listed = if o.trace then Measure.per_layer_units else Measure.end_to_end_units in
  let contract, others = List.partition (fun (k, _, _) -> List.mem_assoc k listed) result.metrics in
  print_endline (Json.to_string (Json.Obj [ ("info", metrics_json others) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool result.correct);
            ("attempted", Json.Num (float_of_int result.attempted));
            ("failed", Json.Num (float_of_int result.failed));
            ("metrics", metrics_json contract);
          ]));
  if result.correct then 0 else 1

(* Run this executable on one workload in a child process that writes
   its result to [out]; returns the child's exit code and stdout. *)
let child args ~out =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list ((Sys.executable_name :: args) @ [ "--out"; out ]) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let text = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  let code = match status with Unix.WEXITED c -> c | _ -> 255 in
  (code, text)

let run_args ~workload ~trace o =
  [ "--workload"; workload; "--seed"; string_of_int o.seed; "--seconds"; Printf.sprintf "%g" o.seconds; "--trace"; (if trace then "1" else "0") ]
  @ if o.smoke then [ "--smoke" ] else []

(* Every workload, each mode in its own process so child rusage and GC
   state do not leak between workloads. *)
let all o =
  let dir = fresh_dir "all" in
  let ok = ref true in
  let entries =
    List.concat_map
      (fun workload ->
        List.filter_map
          (fun trace ->
            let out = Filename.concat dir (Printf.sprintf "%s-%b.json" workload trace) in
            let code, _ = child (run_args ~workload ~trace o) ~out in
            if code <> 0 then ok := false;
            match Json.parse (Json.read_file out) with
            | j ->
                let e = List.hd (Json.to_list (Json.member "results" j)) in
                Printf.printf "\n== %s (%s)%s\n" workload (if trace then "traced replay" else "end to end")
                  (if code <> 0 then "  ** WRONG ANSWERS OR FAILURE **" else "");
                (match Json.member "metrics" e with
                | Json.Obj ms ->
                    List.iter
                      (fun (k, v) ->
                        Printf.printf "  %-40s %14.4f %s\n" k (Json.to_num (Json.member "value" v)) (Json.to_str (Json.member "unit" v)))
                      ms
                | _ -> ());
                Some e
            | exception (Sys_error _ | Json.Error _) ->
                Printf.printf "\n== %s: no result (exit %d)\n" workload code;
                None)
          [ false; true ])
      Measure.workload_names
  in
  let json = Json.Obj ([ ("seed", Json.Num (float_of_int o.seed)); ("results", Json.Arr entries) ] @ host ()) in
  Option.iter (fun f -> Out_channel.with_open_bin f (fun oc -> output_string oc (Json.to_string json))) o.out;
  cleanup dir;
  if !ok then 0 else 1

(* The test [dune runtest] runs: a short fixed-seed run of every
   workload must answer correctly, report every metric BENCHMARK.json
   names with its unit, and list the same inputs and verdicts twice. *)
let smoke bench_file =
  let bench = Json.parse (Json.read_file bench_file) in
  let listed key = List.map (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m))) (Json.to_list (Json.member key bench)) in
  let names = List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" bench)) in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if names <> Measure.workload_names then fail "BENCHMARK.json workloads differ from the benchmark's";
  let o = { workload = None; seed = 7; seconds = 1.; trace = false; out = None; smoke = true } in
  let dir = fresh_dir "smoke" in
  List.iter
    (fun workload ->
      let run trace tag =
        let code, text = child (run_args ~workload ~trace o) ~out:(Filename.concat dir tag) in
        let lines = String.split_on_char '\n' (String.trim text) in
        let last = List.nth lines (List.length lines - 1) in
        if code <> 0 then fail "%s: exit %d" workload code;
        (match Json.parse last with
        | j ->
            if Json.member "correct" j <> Json.Bool true then fail "%s: wrong answers" workload;
            List.iter
              (fun (m, unit) ->
                match Json.member m (Json.member "metrics" j) with
                | Json.Null -> fail "%s: metric %s missing" workload m
                | v -> if Json.to_str (Json.member "unit" v) <> unit then fail "%s: metric %s not in %s" workload m unit)
              (listed (if trace then "per_layer" else "end_to_end"))
        | exception Json.Error e -> fail "%s: result line: %s" workload e);
        List.filteri (fun i _ -> i < List.length lines - 2) lines
      in
      let first = run false "a" and second = run false "b" in
      if first <> second then fail "%s: two runs at one seed listed different inputs or verdicts" workload;
      ignore (run true "t"))
    Measure.workload_names;
  cleanup dir;
  List.iter (fun s -> Printf.printf "FAIL %s\n" s) (List.rev !failures);
  if !failures = [] then (print_endline "benchmark smoke: ok"; 0) else 1

(* The implication runaway found while sizing the benchmark, reproduced
   with cindtool's own generator under the per-request caps. *)
let runaway () =
  let dir = fresh_dir "runaway" in
  let tool = Measure.cindtool () in
  let file = Filename.concat dir "r.cind" in
  Pools.write file (Proc.run tool [ "gen"; "--seed"; "7"; "--relations"; "10"; "--constraints"; "1000"; "--profile"; "random" ]).stdout;
  let r = Proc.run tool [ "--timeout"; "2"; "implies"; file; "cind979" ] in
  Printf.printf "cindtool --timeout 2 implies <gen --seed 7 --relations 10 --constraints 1000 --profile random> cind979\n";
  Printf.printf "  %s after %.2f s, peak RSS %.0f MB (address-space cap %d MB)\n" (Proc.describe r.outcome) r.wall_s
    (float_of_int r.maxrss_kb /. 1024.) (Proc.address_space_cap lsr 20);
  cleanup dir;
  0

let () =
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | "compare" :: rest -> Compare.main ~bench:"BENCHMARK.json" rest
    | [ "smoke"; bench ] -> smoke bench
    | [ "runaway" ] -> runaway ()
    | [ "--kernel" ] -> Reference.kernel (); 0
    | args -> (
        let o = parse_opts args in
        match o.workload with Some w -> single o w | None -> all o)
  in
  exit code
