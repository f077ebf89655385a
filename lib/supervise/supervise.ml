(* Resilience layer between Guard and the engines: retry with
   deterministic fuel-slice backoff and the process supervision policy.
   See supervise.mli for the contract. *)

let m_retries =
  Telemetry.counter "supervise.retries"
    ~doc:"supervised re-attempts after a transient exhaustion"

let m_gave_up =
  Telemetry.counter "supervise.gave_up"
    ~doc:"supervised operations that exhausted their retry allowance"

module Policy = struct
  type t = { retries : int }

  let default = { retries = 0 }
  let supervised = { retries = 1 }

  (* Process-global, not domain-local: the CLI sets it once at start-up,
     and every domain of the process sees the same policy. *)
  let cell = Atomic.make default
  let ambient () = Atomic.get cell
  let set_ambient p = Atomic.set cell p
  let resolve = function Some p -> p | None -> ambient ()
end

(* --- retry --- *)

type 'a attempt =
  | Done of 'a
  | Transient of Guard.reason

let transient ~shared r =
  match r with
  | Guard.Fault _ | Guard.Memory -> Guard.state shared = None
  | Guard.Deadline | Guard.Fuel -> false

(* Backoff slice before re-attempt [attempt + 1], in fuel: 64 doubling
   per attempt, capped at 4096, plus 0..16 of jitter from [rng]. *)
let base_cost = 64
let max_cost = 4096
let jitter = 16

let with_retry ?policy ?rng ~budget f =
  let policy = Policy.resolve policy in
  let slice attempt =
    (* Fuel, not wall clock, so tests stay fast and a near-dry budget
       turns the backoff into the give-up it is. *)
    let base = min max_cost (base_cost lsl min attempt 16) in
    base + match rng with Some rng -> Rng.int rng (jitter + 1) | None -> 0
  in
  let run attempt =
    let body () = try f ~attempt with Guard.Exhausted r -> Transient r in
    if attempt = 0 then body ()
    else Telemetry.with_span "supervise.retry" body
  in
  let rec go attempt =
    match run attempt with
    | Done v -> Ok v
    | Transient r ->
        if attempt >= policy.Policy.retries || Guard.state budget <> None then begin
          Telemetry.incr m_gave_up;
          Error (match Guard.state budget with Some r' -> r' | None -> r)
        end
        else begin
          Telemetry.incr m_retries;
          (* Backoff against the shared budget; if the slice spends it,
             report the budget's own (sticky) reason instead of r. *)
          (try Guard.tick ~cost:(slice attempt) budget
           with Guard.Exhausted _ -> ());
          match Guard.state budget with
          | Some r' ->
              Telemetry.incr m_gave_up;
              Error r'
          | None -> go (attempt + 1)
        end
  in
  go 0
