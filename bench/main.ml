(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 6) plus the complexity-table evidence and
   two ablations.

     dune exec bench/main.exe                  # quick sweeps, everything
     dune exec bench/main.exe -- --full        # paper-scale sweeps
     dune exec bench/main.exe -- fig10a table1 # selected sections only
     dune exec bench/main.exe -- --timeout 30  # per-series deadline (secs)

   Sections: table1 table2 fig10a fig10b fig11a fig11c fig11d detection
             ablation-n ablation-backend

   With --timeout, a series point that exceeds the deadline stops early
   and emits a `"timeout": true` metrics row instead of silently skewed
   numbers. *)

let sections =
  [
    ("table1", fun scale -> ignore scale; Tables.table1 ());
    ("table2", fun scale -> ignore scale; Tables.table2 ());
    ("fig10a", Figures.fig10a);
    ("fig10b", Figures.fig10b);
    ("fig11a", Figures.fig11a);
    ("fig11c", Figures.fig11c);
    ("fig11d", Figures.fig11d);
    ("detection", Figures.detection);
    ("ablation-n", Figures.ablation_pool_size);
    ("ablation-backend", Figures.ablation_backend);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let scale = if full then Workloads.Full else Workloads.Quick in
  let rec strip_opts = function
    | [] -> []
    | [ "--timeout" ] ->
        Fmt.epr "--timeout needs an argument (seconds)@.";
        exit 2
    | "--timeout" :: secs :: rest -> (
        match float_of_string_opt secs with
        | Some t when t > 0. ->
            Util.series_timeout := Some t;
            strip_opts rest
        | _ ->
            Fmt.epr "--timeout expects a positive number of seconds, got %S@." secs;
            exit 2)
    | a :: rest -> a :: strip_opts rest
  in
  let args = strip_opts args in
  let wanted = List.filter (fun a -> a <> "--full") args in
  let selected =
    if wanted = [] then sections
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name sections with
          | Some f -> Some (name, f)
          | None ->
              Fmt.epr "unknown section %S (known: %s)@." name
                (String.concat ", " (List.map fst sections));
              exit 2)
        wanted
  in
  Fmt.pr "conddep benchmark harness — %s mode@."
    (if full then "FULL (paper-scale)" else "QUICK (use --full for paper-scale)");
  (* count events alongside wall-clock: every series prints a counter diff *)
  Telemetry.enable ();
  let start = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f scale) selected;
  Fmt.pr "@.total: %.1fs@." (Unix.gettimeofday () -. start)
