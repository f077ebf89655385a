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

(* With [instantiated] set this is chase_I of Section 5.2 (bounded
   relations, constants for finite-domain fields).  At most
   [config.max_steps] IND steps; each iteration also polls the ambient
   budget's clock. *)
let run ?(instantiated = false) ~(config : Chase.config) ~rng schema
    (compiled : Chase.compiled) db =
  Telemetry.incr m_runs;
  let pool = Pool.make ~n:config.pool_size in
  let cursor =
    Chase.Ind_cursor.create ~instantiated ~threshold:config.threshold pool schema
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
