(* Chaos harness: randomized fault schedules over the Guard probe
   registry, verdict-identity sweeps, and dump / shrink / replay of
   failing schedules.  See chaos.mli for the contract. *)

open Conddep_relational
open Conddep_generator
open Conddep_consistency

type arm = { site : string; after : int; times : int }

type schedule = {
  s_seed : int;
  s_round : int;
  s_workload_seed : int;
  s_check_seed : int;
  s_relations : int;
  s_constraints : int;
  s_arms : arm list;
}

type round_report = {
  r_schedule : schedule;
  r_baseline : string;
  r_faulty : string;
  r_ok : bool;
  r_retries : int;
}

type report = {
  rounds : round_report list;
  survived : int;
  unknowns : int;
  failures : round_report list;
}

let m_rounds = Telemetry.counter "chaos.rounds" ~doc:"chaos rounds executed"

let m_failures =
  Telemetry.counter "chaos.failures" ~doc:"chaos rounds violating verdict-identity"

let m_retries = Telemetry.counter "supervise.retries"

(* --- running one schedule --- *)

let describe = function
  | Checking.Consistent db -> Fmt.str "consistent:%a" Database.pp db
  | Checking.Inconsistent -> "inconsistent"
  | Checking.Unknown r -> "unknown:" ^ Guard.reason_to_string r

let is_unknown v = String.length v >= 8 && String.sub v 0 8 = "unknown:"

let workload sched =
  let rng = Rng.make sched.s_workload_seed in
  let schema =
    Schema_gen.generate rng
      { Schema_gen.default with num_relations = max 1 sched.s_relations }
  in
  let sigma =
    Workload.random rng
      { Workload.default with num_constraints = max 1 sched.s_constraints }
      schema
  in
  (schema, sigma)

let default_policy = { Supervise.Policy.retries = 2 }

let run_check ?policy sched =
  let policy = Option.value ~default:default_policy policy in
  let schema, sigma = workload sched in
  (* A real (governed) budget: rounds stay bounded whatever the schedule
     does, and retry backoff has a fuel pool to tick against. *)
  let budget = Guard.make ~fuel:5_000_000 () in
  describe
    (Checking.check ~budget ~policy ~rng:(Rng.make sched.s_check_seed) schema
       sigma)

let arm_schedule sched =
  List.iter
    (fun a ->
      let times = if a.times <= 0 then max_int else a.times in
      Guard.arm ~site:a.site ~after:a.after ~times Guard.Raise)
    sched.s_arms

let disarm_schedule sched =
  (* Only this schedule's sites: an environment arming (GUARD_FAULTS) of
     other sites stays in place. *)
  List.iter (fun a -> Guard.disarm ~site:a.site) sched.s_arms

let run_verdict ?policy sched =
  arm_schedule sched;
  Fun.protect
    ~finally:(fun () -> disarm_schedule sched)
    (fun () -> run_check ?policy sched)

let round ?policy sched =
  Telemetry.incr m_rounds;
  let baseline = run_check ?policy sched in
  let retries0 = Telemetry.count m_retries in
  let faulty = run_verdict ?policy sched in
  let ok = String.equal faulty baseline || is_unknown faulty in
  if not ok then Telemetry.incr m_failures;
  {
    r_schedule = sched;
    r_baseline = baseline;
    r_faulty = faulty;
    r_ok = ok;
    r_retries = Telemetry.count m_retries - retries0;
  }

(* --- the sweep --- *)

let gen_schedule rng ~seed ~round ~relations ~constraints sites =
  let n_sites = List.length sites in
  let n_arms = if n_sites = 0 then 0 else 1 + Rng.int rng (min 3 n_sites) in
  let shuffled = Rng.shuffle rng sites in
  let picked = List.filteri (fun i _ -> i < n_arms) shuffled in
  let arms =
    List.map
      (fun site ->
        {
          site;
          after = Rng.int rng 9;
          (* bias toward transient faults (1–3 fires) so retries have
             something to win; 0 = permanent *)
          times = Rng.pick rng [ 1; 1; 2; 3; 0 ];
        })
      picked
  in
  {
    s_seed = seed;
    s_round = round;
    s_workload_seed = Rng.int rng 1_000_000;
    s_check_seed = Rng.int rng 1_000_000;
    s_relations = relations;
    s_constraints = constraints;
    s_arms = arms;
  }

let sweep ?policy ?(relations = 4) ?(constraints = 24) ~seed ~rounds () =
  let rng = Rng.make seed in
  let sites = Guard.all_probes () in
  let reports =
    List.init rounds (fun i ->
        let sched =
          gen_schedule rng ~seed ~round:i ~relations ~constraints sites
        in
        round ?policy sched)
  in
  {
    rounds = reports;
    survived =
      List.length
        (List.filter (fun r -> String.equal r.r_faulty r.r_baseline) reports);
    unknowns =
      List.length
        (List.filter
           (fun r -> r.r_ok && not (String.equal r.r_faulty r.r_baseline))
           reports);
    failures = List.filter (fun r -> not r.r_ok) reports;
  }

(* --- shrinking --- *)

let shrink_with ~fails sched =
  let budget = ref 200 in
  let still_fails s =
    if !budget <= 0 then false
    else begin
      decr budget;
      fails s
    end
  in
  (* Pass 1: drop arms one at a time; restart from the front on success,
     so the result is 1-minimal w.r.t. arm removal. *)
  let rec drop s =
    let arms = Array.of_list s.s_arms in
    let n = Array.length arms in
    let rec go i =
      if i >= n || n <= 1 then None
      else
        let s' =
          { s with s_arms = List.filteri (fun j _ -> j <> i) s.s_arms }
        in
        if still_fails s' then Some s' else go (i + 1)
    in
    match go 0 with Some s' -> drop s' | None -> s
  in
  (* Pass 2: repeatedly halve each arm's countdown while the schedule
     still fails. *)
  let rec halve_arm s i =
    let arms = Array.of_list s.s_arms in
    if i >= Array.length arms then s
    else
      let a = arms.(i) in
      if a.after = 0 then halve_arm s (i + 1)
      else begin
        arms.(i) <- { a with after = a.after / 2 };
        let s' = { s with s_arms = Array.to_list arms } in
        if still_fails s' then halve_arm s' i else halve_arm s (i + 1)
      end
  in
  halve_arm (drop sched) 0

let shrink ?policy sched =
  shrink_with ~fails:(fun s -> not (round ?policy s).r_ok) sched

(* --- .chaos.json files --- *)

let to_json sched =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"version\":1,\"seed\":%d,\"round\":%d,\"workload_seed\":%d,\"check_seed\":%d,\"relations\":%d,\"constraints\":%d,\"arms\":["
       sched.s_seed sched.s_round sched.s_workload_seed sched.s_check_seed
       sched.s_relations sched.s_constraints);
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"site\":%S,\"after\":%d,\"times\":%d}" a.site
           a.after a.times))
    sched.s_arms;
  Buffer.add_string b "]}";
  Buffer.contents b

(* A tiny scanner for the dump format above — not a general JSON parser
   (same stance as [Telemetry.parse_event]). *)

let find_sub s pat from =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some i
    else go (i + 1)
  in
  if from > n then None else go (max 0 from)

let parse_int_after s i =
  let n = String.length s in
  let rec skip i =
    if i < n && (s.[i] = ' ' || s.[i] = ':' || s.[i] = '\t' || s.[i] = '\n')
    then skip (i + 1)
    else i
  in
  let start = skip i in
  let j = ref start in
  if !j < n && s.[!j] = '-' then incr j;
  while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
    incr j
  done;
  if !j = start then None else int_of_string_opt (String.sub s start (!j - start))

let int_field s key =
  match find_sub s ("\"" ^ key ^ "\"") 0 with
  | None -> None
  | Some i -> parse_int_after s (i + String.length key + 2)

let string_field_in s ~from ~upto key =
  match find_sub s ("\"" ^ key ^ "\"") from with
  | Some i when i < upto -> (
      let i = i + String.length key + 2 in
      match find_sub s "\"" i with
      | Some q0 when q0 < upto -> (
          match find_sub s "\"" (q0 + 1) with
          | Some q1 when q1 <= upto ->
              Some (String.sub s (q0 + 1) (q1 - q0 - 1))
          | _ -> None)
      | _ -> None)
  | _ -> None

let parse_arms s =
  match find_sub s "\"arms\"" 0 with
  | None -> Error "missing arms"
  | Some i -> (
      match find_sub s "[" i with
      | None -> Error "missing arms array"
      | Some lb -> (
          match find_sub s "]" lb with
          | None -> Error "unterminated arms array"
          | Some rb ->
              let rec objs from acc =
                match find_sub s "{" from with
                | Some ob when ob < rb -> (
                    match find_sub s "}" ob with
                    | Some cb when cb <= rb -> (
                        match string_field_in s ~from:ob ~upto:cb "site" with
                        | None -> Error "arm without site"
                        | Some site ->
                            let sub_int key =
                              match
                                find_sub s ("\"" ^ key ^ "\"") ob
                              with
                              | Some k when k < cb ->
                                  Option.value ~default:0
                                    (parse_int_after s
                                       (k + String.length key + 2))
                              | _ -> 0
                            in
                            objs (cb + 1)
                              ({
                                 site;
                                 after = sub_int "after";
                                 times = sub_int "times";
                               }
                              :: acc))
                    | _ -> Error "unterminated arm object")
                | _ -> Ok (List.rev acc)
              in
              objs lb []))

let of_json s =
  let req key =
    match int_field s key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or malformed field %S" key)
  in
  let ( let* ) = Result.bind in
  let* seed = req "seed" in
  let* round = req "round" in
  let* wseed = req "workload_seed" in
  let* cseed = req "check_seed" in
  let* relations = req "relations" in
  let* constraints = req "constraints" in
  let* arms = parse_arms s in
  Ok
    {
      s_seed = seed;
      s_round = round;
      s_workload_seed = wseed;
      s_check_seed = cseed;
      s_relations = relations;
      s_constraints = constraints;
      s_arms = arms;
    }

let save ~file sched =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json sched);
      output_char oc '\n')

let load ~file =
  match open_in file with
  | exception Sys_error msg -> Error msg
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      of_json s

let abbreviate v =
  if String.length v > 48 then String.sub v 0 48 ^ "..." else v

let pp_round ppf r =
  let status =
    if String.equal r.r_faulty r.r_baseline then "identical"
    else if r.r_ok then "degraded-to-unknown"
    else "VERDICT CHANGED"
  in
  Format.fprintf ppf "round %d [%s]: %s (retries=%d arms=%s)"
    r.r_schedule.s_round status
    (if r.r_ok then abbreviate r.r_faulty
     else abbreviate r.r_baseline ^ " -> " ^ abbreviate r.r_faulty)
    r.r_retries
    (String.concat ","
       (List.map
          (fun a -> Printf.sprintf "%s@%d/%d" a.site a.after a.times)
          r.r_schedule.s_arms))
