(* Unified resource governance: budgets (deadline / fuel) with a
   structured exhaustion reason.  Engines spend the ambient budget, which
   callers scope with [with_ambient].  See guard.mli for the full
   contract. *)

type reason =
  | Deadline
  | Fuel

exception Exhausted of reason

let reason_to_string = function
  | Deadline -> "deadline"
  | Fuel -> "fuel"

let pp_reason ppf r = Format.pp_print_string ppf (reason_to_string r)

let m_deadline = Telemetry.counter "guard.deadline_hits" ~doc:"budgets exhausted by the wall-clock deadline"
let m_fuel = Telemetry.counter "guard.fuel_exhausted" ~doc:"budgets exhausted by the step-fuel limit"
let m_budgets = Telemetry.counter "guard.budgets_created" ~doc:"limited budgets constructed"

(* --- budgets --- *)

type t = {
  deadline : float option; (* absolute Unix time *)
  fuel_limited : bool;
  mutable fuel : int;
  mutable poll : int; (* countdown to the next clock poll *)
  mutable spent : reason option; (* sticky once exhausted *)
}

(* How many ticks between clock polls.  Tick sites sit on per-step loops
   (chase steps, SAT conflicts/decisions, search nodes), so this bounds
   deadline overshoot to a few dozen steps of work. *)
let poll_every = 32

let unlimited =
  { deadline = None; fuel_limited = false; fuel = max_int; poll = max_int; spent = None }

let is_unlimited b = b == unlimited

let make ?timeout_s ?fuel () =
  match timeout_s, fuel with
  | None, None -> unlimited
  | _ ->
      Telemetry.incr m_budgets;
      {
        deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s;
        fuel_limited = fuel <> None;
        fuel = Option.value ~default:max_int fuel;
        poll = 0;
        spent = None;
      }

let exhaust b reason =
  b.spent <- Some reason;
  (match reason with
  | Deadline -> Telemetry.incr m_deadline
  | Fuel -> Telemetry.incr m_fuel);
  (* Forensics: a fresh (non-sticky) exhaustion is the moment the budget
     actually ran out — snapshot the live span stack for the profiler. *)
  Telemetry.mark_exhaustion (reason_to_string reason);
  raise (Exhausted reason)

(* Poll the expensive limit, the clock. *)
let poll_slow b =
  b.poll <- poll_every;
  match b.deadline with
  | Some d when Unix.gettimeofday () > d -> exhaust b Deadline
  | _ -> ()

let state b = b.spent

(* --- ambient budget --- *)

(* One ambient budget for the process: lib/ runs on one domain. *)
let ambient_budget = ref unlimited

let ambient () = !ambient_budget
let set_ambient b = ambient_budget := b

let with_ambient b f =
  let saved = !ambient_budget in
  ambient_budget := b;
  Fun.protect ~finally:(fun () -> ambient_budget := saved) f

(* --- spending the ambient budget --- *)

let tick ?(cost = 1) () =
  let b = ambient () in
  if not (is_unlimited b) then begin
    (match b.spent with Some r -> raise (Exhausted r) | None -> ());
    if b.fuel_limited then begin
      b.fuel <- b.fuel - cost;
      if b.fuel < 0 then exhaust b Fuel
    end;
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
