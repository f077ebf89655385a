(* Unified resource governance: budgets (deadline / fuel / allocation
   ceiling) with a structured exhaustion reason.  Engines spend the
   ambient budget, which callers scope with [with_ambient].  See
   guard.mli for the full contract. *)

type reason =
  | Deadline
  | Fuel
  | Memory

exception Exhausted of reason

let reason_to_string = function
  | Deadline -> "deadline"
  | Fuel -> "fuel"
  | Memory -> "memory"

let pp_reason ppf r = Format.pp_print_string ppf (reason_to_string r)

let m_deadline = Telemetry.counter "guard.deadline_hits" ~doc:"budgets exhausted by the wall-clock deadline"
let m_fuel = Telemetry.counter "guard.fuel_exhausted" ~doc:"budgets exhausted by the step-fuel limit"
let m_memory = Telemetry.counter "guard.memory_hits" ~doc:"budgets exhausted by the allocation ceiling"
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
  | Memory -> Telemetry.incr m_memory);
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

let state b = b.spent

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

(* --- spending the ambient budget --- *)

let tick ?(cost = 1) () =
  let b = ambient () in
  if not (is_unlimited b) then begin
    (match b.spent with Some r -> raise (Exhausted r) | None -> ());
    if b.fuel_limited then
      if Atomic.fetch_and_add b.fuel (-cost) - cost < 0 then exhaust b Fuel;
    b.poll <- b.poll - 1;
    if b.poll <= 0 then poll_slow b
  end

let check () =
  let b = ambient () in
  if not (is_unlimited b) then begin
    (match b.spent with Some r -> raise (Exhausted r) | None -> ());
    poll_slow b
  end

let reraise_if_spent () =
  match (ambient ()).spent with Some r -> raise (Exhausted r) | None -> ()
