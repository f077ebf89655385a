open Conddep_chase

(* The terminal chase of Section 5.1: FD and IND operations until
   fixpoint, on the canonical schedule of [Chase.fd_fixpoint] and
   [Chase.Ind_cursor].  No cindtool path runs a chase to termination
   (RandomChecking interleaves CFD_Checking with the IND cursor itself);
   the chase tests use this loop as their reference. *)

type outcome =
  | Terminal of Template.t  (** the chase result chase(D, Σ) *)
  | Undefined of string  (** chase undefined; carries the reason *)
  | Exhausted of Guard.reason
      (** [config.max_steps] ([Guard.Fuel]) or the ambient budget stopped
          the chase before a fixpoint *)

let m_runs = Telemetry.counter "chase.runs" ~doc:"full chase invocations"

(* Relations are bounded by [config.threshold] (chase_I's T of Section
   5.2).  At most [config.max_steps] IND steps; each iteration also polls
   the ambient budget's clock. *)
let run ~(config : Chase.config) ~rng (compiled : Chase.compiled) db =
  Telemetry.incr m_runs;
  let cursor =
    Chase.Ind_cursor.create ~threshold:config.threshold ~pool_size:config.pool_size
      compiled.cinds
  in
  let rec go db steps =
    Guard.check ();
    match Chase.fd_fixpoint compiled.cfds db with
    | Error why -> Undefined why
    | Ok db -> (
        match Chase.Ind_cursor.step cursor ~rng db with
        | Chase.Ind_unchanged -> Terminal db
        | Ind_overflow why -> Undefined why
        | Ind_changed _ when steps >= config.max_steps -> Exhausted Guard.Fuel
        | Ind_changed db' -> go db' (steps + 1))
  in
  try go db 0 with Guard.Exhausted r -> Exhausted r

(* The FD fixpoint without [Chase.fd_fixpoint]'s clean-CFD memo: every
   CFD is rescanned on every pass, the first one whose [fd_step] changes
   the template applied, until none does.  The memo-agreement property
   of test_chase holds the memoised loop to this one. *)
let fd_fixpoint cfds db =
  let rec go db = function
    | [] -> Ok db
    | cfd :: rest -> (
        match Chase.fd_step cfd db with
        | Chase.Fd_unchanged -> go db rest
        | Chase.Fd_undefined why -> Error why
        | Chase.Fd_changed db' -> go db' cfds)
  in
  go db cfds
