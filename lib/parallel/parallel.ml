(* Plain fork-join over domains; see parallel.mli for the contract.

   [fork_join] is the whole runtime: it spawns the domains, runs the same
   pull loop on the caller, and joins.  The combinators differ only in
   how an item is pulled — an atomic index for [map], a locked lazy
   source for [first_success] — and in what they keep of its outcome.
   Results travel through memory the joiner reads after [Domain.join],
   which is the happens-before edge that makes them visible. *)

let m_pools =
  Telemetry.counter "parallel.pools" ~doc:"fan-outs that spawned domains"

let m_tasks =
  Telemetry.counter "parallel.tasks"
    ~doc:"items run by fan-outs that spawned domains"

let () = Guard.register_probe "parallel.task"

(* --- default job count --- *)

let default_jobs_cell = ref None

let default_jobs () =
  match !default_jobs_cell with
  | Some j -> j
  | None ->
      let j =
        match Sys.getenv_opt "JOBS" with
        | Some s -> (
            match int_of_string_opt (String.trim s) with
            | Some k when k >= 1 -> k
            | _ -> 1)
        | None -> 1
      in
      default_jobs_cell := Some j;
      j

let set_default_jobs j = default_jobs_cell := Some (max 1 j)

(* --- fork-join --- *)

(* Run [work] on the caller and on [min (jobs - 1) (items - 1)] spawned
   domains, each under the caller's ambient budget, and join them all.
   [work ~pooled] pulls items until none are left and never raises;
   [pooled] says whether other domains pull too.  If a spawn fails, the
   domains already running finish the items and are joined before the
   failure propagates. *)
let fork_join ~jobs ~items work =
  let spawn = min (jobs - 1) (items - 1) in
  if spawn <= 0 then work ~pooled:false
  else begin
    Telemetry.incr m_pools;
    let ambient = Guard.ambient () in
    let domains = ref [] in
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join !domains)
      (fun () ->
        for _ = 1 to spawn do
          domains :=
            Domain.spawn (fun () ->
                Guard.with_ambient ambient (fun () -> work ~pooled:true))
            :: !domains
        done;
        work ~pooled:true)
  end

(* Every item of a fan-out that spawned passes here before it runs. *)
let enter ~pooled =
  if pooled then begin
    Telemetry.incr m_tasks;
    Guard.probe "parallel.task"
  end

let map ~jobs f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work ~pooled =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        Some
          (match
             enter ~pooled;
             f items.(i)
           with
          | v -> Ok v
          | exception e -> Error e);
      work ~pooled
    end
  in
  fork_join ~jobs ~items:n work;
  Array.iter (function Some (Error e) -> raise e | _ -> ()) results;
  Array.to_list
    (Array.map (function Some (Ok v) -> v | _ -> assert false) results)

let first_success ~jobs n next f =
  let lock = Mutex.create () in
  (* All under [lock]: items handed out so far, the least index holding a
     stopping outcome (and that outcome), and the items in flight. *)
  let pulled = ref 0 in
  let best = ref n in
  let stopped = ref None in
  let running = ref [] in
  (* [next] runs here, under the lock, so item i gets the i-th value
     whichever domain pulls it; a raising [next] stops at that index. *)
  let pull () =
    Mutex.protect lock (fun () ->
        let i = !pulled in
        if i >= !best then None
        else begin
          pulled := i + 1;
          let tok = Guard.token () in
          running := (i, tok) :: !running;
          Some (i, tok, match next () with x -> Ok x | exception e -> Error e)
        end)
  in
  (* [best] only decreases, so every cancelled run sits above the final
     winner: runs at or below it always finish uncancelled, which is what
     makes the answer the sequential loop's. *)
  let finish i outcome =
    Mutex.protect lock (fun () ->
        running := List.filter (fun (j, _) -> j <> i) !running;
        match outcome with
        | Some o when i < !best ->
            best := i;
            stopped := Some (i, o);
            List.iter (fun (j, tok) -> if j > i then Guard.cancel tok) !running
        | _ -> ())
  in
  let rec work ~pooled =
    match pull () with
    | None -> ()
    | Some (i, tok, x) ->
        finish i
          (match
             enter ~pooled;
             f (match x with Ok x -> x | Error e -> raise e) tok
           with
          | Some v -> Some (Ok v)
          | None | (exception Guard.Exhausted Guard.Cancelled) -> None
          | exception e -> Some (Error e));
        work ~pooled
  in
  fork_join ~jobs ~items:n work;
  match !stopped with
  | None -> None
  | Some (i, Ok v) -> Some (i, v)
  | Some (_, Error e) -> raise e
