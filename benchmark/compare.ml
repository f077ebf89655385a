(* [run.exe compare OLD.json... -- NEW.json...]: one row per (workload,
   end-to-end metric) with each side's median and quartiles, judged by
   the rule of the choosing-metrics guide (section 8).  Exit 1 on any
   regression beyond a BENCHMARK.json bound. *)

type bound = { better : string; bound : float }

let bounds bench =
  Json.to_list (Json.member "end_to_end" bench)
  |> List.map (fun m ->
         ( Json.to_str (Json.member "name" m),
           { better = Json.to_str (Json.member "better" m); bound = Json.to_num (Json.member "bound" m) } ))

(* (workload, metric) -> value, for the untraced results of one file *)
let values file =
  Json.to_list (Json.member "results" (Json.parse (Json.read_file file)))
  |> List.filter (fun e -> Json.to_num (Json.member "trace" e) = 0.)
  |> List.concat_map (fun e ->
         let w = Json.to_str (Json.member "workload" e) in
         match Json.member "metrics" e with
         | Json.Obj ms -> List.map (fun (k, v) -> ((w, k), Json.to_num (Json.member "value" v))) ms
         | _ -> [])

type verdict = Better | Worse | Unchanged | Unresolved

let judge { better; bound } ~old ~now =
  let is_better a b = if better = "lower" then a < b else a > b in
  let q1o, mo, q3o = Stats.quartiles old and q1n, mn, q3n = Stats.quartiles now in
  let worse_limit = if better = "lower" then mo *. (1. +. bound) else mo *. (1. -. bound) in
  let pairs = List.combine (Gen.take (List.length now) old) (Gen.take (List.length old) now) in
  let wins = List.length (List.filter (fun (o, n) -> is_better n o) pairs) in
  let spread_wide = (q3o -. q1o) > bound *. Float.abs mo || (q3n -. q1n) > bound *. Float.abs mn in
  let every_run_better = List.for_all (fun n -> List.for_all (fun o -> is_better n o) old) now in
  if is_better worse_limit mn then Worse
  else if
    List.length pairs >= 10
    && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
    && is_better mn mo
    && Float.abs (mn -. mo) > q3o -. q1o
  then Better
  else if spread_wide && not every_run_better then Unresolved
  else Unchanged

let name = function Better -> "better" | Worse -> "WORSE" | Unchanged -> "unchanged" | Unresolved -> "unresolved"

let main ~bench args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let old_files, new_files = split [] args in
  if old_files = [] || new_files = [] then (
    prerr_endline "usage: run.exe compare OLD.json... -- NEW.json...";
    2)
  else
    let bounds = bounds (Json.parse (Json.read_file bench)) in
    let olds = List.map values old_files and news = List.map values new_files in
    let keys =
      List.concat olds |> List.map fst |> List.filter (fun (_, m) -> List.mem_assoc m bounds) |> List.sort_uniq compare
    in
    let collect side key = List.filter_map (List.assoc_opt key) side in
    let quart l =
      let q1, m, q3 = Stats.quartiles l in
      Printf.sprintf "%12.4f [%.4f, %.4f]" m q1 q3
    in
    Printf.printf "%-12s %-20s %-38s %-38s %s\n" "workload" "metric" "old median [q1, q3]" "new median [q1, q3]" "verdict";
    let worse =
      List.fold_left
        (fun worse ((w, m) as key) ->
          let old = collect olds key and now = collect news key in
          if old = [] || now = [] then worse
          else
            let v = judge (List.assoc m bounds) ~old ~now in
            Printf.printf "%-12s %-20s %-38s %-38s %s\n" w m (quart old) (quart now) (name v);
            worse || v = Worse)
        false keys
    in
    if worse then 1 else 0
