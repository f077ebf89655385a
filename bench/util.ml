(* Shared plumbing for the benchmark harness: wall-clock timing, averaging,
   row printing and per-series counter snapshots. *)

let time f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. start)

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let header title = Fmt.pr "@.=== %s ===@." title

let row fmt = Fmt.pr fmt

let percentage hits total =
  if total = 0 then 100. else 100. *. float_of_int hits /. float_of_int total

(* Per-series counter snapshots: run [f], then print the counters that moved
   while it ran as one JSON line (telemetry is enabled by the harness), so a
   perf PR can diff event counts, not just wall-clock.  [label] names the
   series point, e.g. "fig10a/cfds=4". *)
let counter_diff before after =
  List.filter_map
    (fun (name, v) ->
      let v0 = Option.value ~default:0 (List.assoc_opt name before) in
      if v > v0 then Some (name, v - v0) else None)
    after

(* Optional per-series wall-clock bound (`--timeout SECS` on the harness):
   each series point runs under its own deadline budget, scoped as the
   ambient one so every engine underneath inherits it.  A series that hits
   the deadline is reported as an explicit `"timeout": true` metrics row
   rather than silently shortened numbers. *)
let series_timeout : float option ref = ref None

(* One-line JSON object [{"series":"<label>","counters":{...}}].  Labels
   and counter names are plain ASCII identifiers, so [%S] quotes them as
   JSON strings, as in the timeout row below. *)
let json_of_counters label pairs =
  Printf.sprintf "{\"series\":%S,\"counters\":{%s}}" label
    (String.concat "," (List.map (fun (name, n) -> Printf.sprintf "%S:%d" name n) pairs))

let with_series_metrics label f =
  let before = Telemetry.counter_snapshot () in
  (match !series_timeout with
  | None -> f ()
  | Some timeout_s ->
      let b = Guard.make ~timeout_s () in
      (match Guard.with_ambient b (fun () -> Guard.run b f) with
      | Ok () -> ()
      | Error _ -> ());
      (match Guard.state b with
      | None -> ()
      | Some r ->
          Fmt.pr "  metrics {\"series\": %S, \"timeout\": true, \"reason\": %S}@."
            label (Guard.reason_to_string r)));
  let diff = counter_diff before (Telemetry.counter_snapshot ()) in
  Fmt.pr "  metrics %s@." (json_of_counters label diff)
