(* Unified resource governance: budgets (deadline / fuel / allocation
   ceiling) with a structured exhaustion reason, an ambient
   budget for CLI- and bench-scoped limits, and deterministic named
   fault-injection probes.  See guard.mli for the full contract. *)

type reason =
  | Deadline
  | Fuel
  | Memory
  | Fault of string

exception Exhausted of reason

let reason_to_string = function
  | Deadline -> "deadline"
  | Fuel -> "fuel"
  | Memory -> "memory"
  | Fault site -> "fault:" ^ site

let pp_reason ppf r = Format.pp_print_string ppf (reason_to_string r)

let m_deadline = Telemetry.counter "guard.deadline_hits" ~doc:"budgets exhausted by the wall-clock deadline"
let m_fuel = Telemetry.counter "guard.fuel_exhausted" ~doc:"budgets exhausted by the step-fuel limit"
let m_memory = Telemetry.counter "guard.memory_hits" ~doc:"budgets exhausted by the allocation ceiling"
let m_faults = Telemetry.counter "guard.faults_injected" ~doc:"armed probes that raised Exhausted (Fault _)"
let m_budgets = Telemetry.counter "guard.budgets_created" ~doc:"limited budgets constructed"

(* --- budgets --- *)

type t = {
  deadline : float option; (* absolute Unix time *)
  fuel_limited : bool;
  fuel : int Atomic.t;
  max_words : float option;
  words0 : float; (* Gc.minor_words at creation *)
  mutable poll : int; (* countdown to the next clock/allocator poll *)
  mutable spent : reason option; (* sticky once exhausted *)
}

(* How many ticks between clock/allocator polls.  Tick sites sit on
   per-step loops (chase steps, SAT conflicts/decisions, search nodes), so
   this bounds deadline overshoot to a few dozen steps of work. *)
let poll_every = 32

let unlimited =
  {
    deadline = None;
    fuel_limited = false;
    fuel = Atomic.make max_int;
    max_words = None;
    words0 = 0.;
    poll = max_int;
    spent = None;
  }

let is_unlimited b = b == unlimited

let make ?timeout_s ?fuel ?max_words () =
  match timeout_s, fuel, max_words with
  | None, None, None -> unlimited
  | _ ->
      Telemetry.incr m_budgets;
      {
        deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s;
        fuel_limited = fuel <> None;
        fuel = Atomic.make (Option.value ~default:max_int fuel);
        max_words;
        words0 = (if max_words = None then 0. else Gc.minor_words ());
        poll = 0;
        spent = None;
      }

let exhaust b reason =
  b.spent <- Some reason;
  (match reason with
  | Deadline -> Telemetry.incr m_deadline
  | Fuel -> Telemetry.incr m_fuel
  | Memory -> Telemetry.incr m_memory
  | Fault _ -> Telemetry.incr m_faults);
  (* Forensics: a fresh (non-sticky) exhaustion is the moment the budget
     actually ran out — snapshot the live span stack for the profiler. *)
  Telemetry.mark_exhaustion (reason_to_string reason);
  raise (Exhausted reason)

(* Poll the expensive limits (clock, allocator). *)
let poll_slow b =
  b.poll <- poll_every;
  (match b.deadline with
  | Some d when Unix.gettimeofday () > d -> exhaust b Deadline
  | _ -> ());
  match b.max_words with
  | Some w when Gc.minor_words () -. b.words0 > w -> exhaust b Memory
  | _ -> ()

let tick ?(cost = 1) b =
  if not (is_unlimited b) then begin
    (match b.spent with Some r -> raise (Exhausted r) | None -> ());
    if b.fuel_limited then
      if Atomic.fetch_and_add b.fuel (-cost) - cost < 0 then exhaust b Fuel;
    b.poll <- b.poll - 1;
    if b.poll <= 0 then poll_slow b
  end

let check b =
  if not (is_unlimited b) then begin
    (match b.spent with Some r -> raise (Exhausted r) | None -> ());
    poll_slow b
  end

let state b = b.spent

let reraise_if_spent b =
  match b.spent with Some r -> raise (Exhausted r) | None -> ()

let recoverable ~shared r =
  match r with Fault _ -> false | Deadline | Fuel | Memory -> shared.spent = None

let run b f =
  match
    check b;
    f ()
  with
  | v -> Ok v
  | exception Exhausted r -> Error r

(* --- ambient budget --- *)

(* Domain-local, not process-global: a library user driving checks from
   several domains of their own scopes one ambient budget per domain, and
   a shared ref would leak one domain's deadline into another. *)
let ambient_key = Domain.DLS.new_key (fun () -> ref unlimited)

let ambient () = !(Domain.DLS.get ambient_key)
let set_ambient b = Domain.DLS.get ambient_key := b

let with_ambient b f =
  let cell = Domain.DLS.get ambient_key in
  let saved = !cell in
  cell := b;
  Fun.protect ~finally:(fun () -> cell := saved) f

let resolve = function Some b -> b | None -> ambient ()

(* --- fault injection --- *)

type armed = {
  mutable countdown : int;
  mutable remaining : int; (* fires left; [max_int] = unlimited *)
  env_only : bool;
}

(* site -> armed entry; the wildcard site "*" matches everything.  Probes
   may fire from any of a caller's domains, so every table access goes
   through one mutex
   (the armed-empty fast path reads a length field, which is safe). *)
let fault_mutex = Mutex.create ()

let with_faults f =
  Mutex.lock fault_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock fault_mutex) f

let armed_tbl : (string, armed) Hashtbl.t = Hashtbl.create 8

(* The probe registry: modules declare their sites at initialisation time,
   so sweeps ([GUARD_FAULTS=all], the chaos harness) can enumerate every
   site without a hand-maintained list.  A probe that fires before being
   registered is a wiring bug — it is recorded and surfaced through
   [unregistered_probes] for the test suite to assert empty. *)
let registered_tbl : (string, unit) Hashtbl.t = Hashtbl.create 32
let unregistered_tbl : (string, unit) Hashtbl.t = Hashtbl.create 8

let register_probe site =
  with_faults @@ fun () -> Hashtbl.replace registered_tbl site ()

let all_probes () =
  with_faults @@ fun () ->
  Hashtbl.fold (fun s () acc -> s :: acc) registered_tbl []
  |> List.sort String.compare

let unregistered_probes () =
  with_faults @@ fun () ->
  Hashtbl.fold (fun s () acc -> s :: acc) unregistered_tbl []
  |> List.sort String.compare

let arm_internal ~env_only ~site ~after ~times =
  with_faults @@ fun () ->
  Hashtbl.replace armed_tbl site { countdown = after; remaining = times; env_only }

let arm ~site ?(after = 0) ?(times = max_int) () =
  arm_internal ~env_only:false ~site ~after ~times:(max 0 times)

let disarm ~site = with_faults @@ fun () -> Hashtbl.remove armed_tbl site
let disarm_all () = with_faults @@ fun () -> Hashtbl.reset armed_tbl

let probe ?budget site =
  let governed = not (is_unlimited (resolve budget)) in
  let fires =
    with_faults @@ fun () ->
    if not (Hashtbl.mem registered_tbl site) then
      Hashtbl.replace unregistered_tbl site ();
    if Hashtbl.length armed_tbl = 0 then false
    else
      let entry =
        match Hashtbl.find_opt armed_tbl site with
        | Some _ as e -> e
        | None -> Hashtbl.find_opt armed_tbl "*"
      in
      match entry with
      | None -> false
      | Some e ->
          let applies = (not e.env_only) || governed in
          if not applies then false
          else if e.countdown > 0 then begin
            e.countdown <- e.countdown - 1;
            false
          end
          else if e.remaining <= 0 then false (* transient fault, used up *)
          else begin
            if e.remaining <> max_int then e.remaining <- e.remaining - 1;
            true
          end
  in
  if fires then begin
    Telemetry.incr m_faults;
    Telemetry.mark_exhaustion ("fault:" ^ site);
    raise (Exhausted (Fault site))
  end

(* Environment arming: GUARD_FAULTS=all | site1,site2.  Environment-armed
   faults are marked env_only: they fire only at probes governed by a
   limited budget (see guard.mli). *)
let () =
  match Sys.getenv_opt "GUARD_FAULTS" with
  | None | Some "" -> ()
  | Some spec ->
      let sites =
        if String.equal spec "all" then [ "*" ]
        else
          String.split_on_char ',' spec
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
      in
      List.iter
        (fun site -> arm_internal ~env_only:true ~site ~after:0 ~times:max_int)
        sites
