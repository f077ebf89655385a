open Conddep_relational
open Conddep_core

(* Algorithm Checking (Fig 9): preProcessing first; when it has no
   definitive answer, run RandomChecking on each remaining weakly connected
   component of the reduced dependency graph, compiled by the graph.  The
   component's constraints include the non-triggering CFDs accumulated
   during preProcessing, so a component witness extends to a witness for
   all of Σ by leaving every other relation empty — which RandomChecking
   verifies against the whole Σ before answering. *)

type result =
  | Consistent of Database.t
  | Inconsistent
  | Unknown of Guard.reason

let m_calls = Telemetry.counter "checking.calls" ~doc:"top-level Checking invocations"
let m_consistent = Telemetry.counter "checking.results_consistent" ~doc:"Checking answers with a verified witness"
let m_inconsistent = Telemetry.counter "checking.results_inconsistent" ~doc:"Checking answers: dependency graph emptied"
let m_unknown = Telemetry.counter "checking.results_unknown" ~doc:"Checking answers: undetermined"
let m_components_tried = Telemetry.counter "checking.components_tried" ~doc:"weakly connected components run through RandomChecking"

(* One pipeline run on a copy of [rng], so the caller's generator is
   never advanced: preProcessing (with [backend], chase by default), then
   RandomChecking on each component it leaves. *)
let check ?backend ?config ?k ?k_cfd ~rng schema (sigma : Sigma.nf) =
  Telemetry.incr m_calls;
  Telemetry.with_span "checking.check" @@ fun () ->
  let rng = Rng.copy rng in
  let result =
    try
      match Preprocessing.run ?backend ?k_cfd ~rng schema sigma with
      | Preprocessing.Consistent db -> Consistent db
      | Preprocessing.Inconsistent -> Inconsistent
      | Preprocessing.Unknown components ->
          (* [Guard.Fuel] is the ordinary "K / K_CFD caps ran out"
             answer; a component cut short by the deadline reports that
             reason instead — first one wins. *)
          let rec try_components reason = function
            | [] -> Unknown reason
            | component :: rest -> (
                Guard.check ();
                Telemetry.incr m_components_tried;
                match
                  Random_checking.check ?config ?k ?k_cfd ~component ~rng schema
                    sigma
                with
                | Random_checking.Consistent db -> Consistent db
                | Random_checking.Unknown r ->
                    let reason =
                      match reason with Guard.Fuel -> r | _ -> reason
                    in
                    try_components reason rest)
          in
          try_components Guard.Fuel components
    with Guard.Exhausted r -> Unknown r
  in
  (match result with
  | Consistent _ -> Telemetry.incr m_consistent
  | Inconsistent -> Telemetry.incr m_inconsistent
  | Unknown _ -> Telemetry.incr m_unknown);
  result
