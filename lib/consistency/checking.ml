open Conddep_relational
open Conddep_core

(* Algorithm Checking (Fig 9): preProcessing first; when it has no
   definitive answer, run RandomChecking on each remaining weakly connected
   component of the reduced dependency graph.  The component's constraints
   include the non-triggering CFDs accumulated during preProcessing, so a
   component witness extends to a witness for all of Σ by leaving every
   other relation empty — which we verify before answering. *)

type result =
  | Consistent of Database.t
  | Inconsistent
  | Unknown of Guard.reason

let m_calls = Telemetry.counter "checking.calls" ~doc:"top-level Checking invocations"
let m_consistent = Telemetry.counter "checking.results_consistent" ~doc:"Checking answers with a verified witness"
let m_inconsistent = Telemetry.counter "checking.results_inconsistent" ~doc:"Checking answers: dependency graph emptied"
let m_unknown = Telemetry.counter "checking.results_unknown" ~doc:"Checking answers: undetermined"
let m_components_tried = Telemetry.counter "checking.components_tried" ~doc:"weakly connected components run through RandomChecking"

(* One full pipeline: preProcessing (with [backend], chase by default)
   and per-component RandomChecking. *)
let pipeline ?backend ?config ?k ?k_cfd ~rng schema (sigma : Sigma.nf) =
  try
    match Preprocessing.run ?backend ?k_cfd ~rng schema sigma with
    | Preprocessing.Consistent db -> Consistent db
    | Preprocessing.Inconsistent -> Inconsistent
    | Preprocessing.Unknown components ->
        (* [Guard.Fuel] is the ordinary "K / K_CFD caps ran out"
           answer; a component cut short for a sharper reason (deadline,
           memory) reports that reason instead — first one wins. *)
        let rec try_components reason = function
          | [] -> Unknown reason
          | (members, component_sigma) :: rest -> (
              Guard.check ();
              Telemetry.incr m_components_tried;
              match
                Random_checking.check ?config ?k ?k_cfd ~seed_rels:members ~rng
                  schema component_sigma
              with
              | Random_checking.Consistent db when Sigma.nf_holds db sigma ->
                  Consistent db
              | Random_checking.Consistent _ -> try_components reason rest
              | Random_checking.Unknown r ->
                  let reason =
                    match reason with Guard.Fuel -> r | _ -> reason
                  in
                  try_components reason rest)
        in
        try_components Guard.Fuel components
  with Guard.Exhausted r -> Unknown r

(* One pipeline run on a copy of [rng], so the caller's generator is
   never advanced. *)
let check ?backend ?config ?k ?k_cfd ~rng schema (sigma : Sigma.nf) =
  Telemetry.incr m_calls;
  Telemetry.with_span "checking.check" @@ fun () ->
  let result =
    pipeline ?backend ?config ?k ?k_cfd ~rng:(Rng.copy rng) schema sigma
  in
  (match result with
  | Consistent _ -> Telemetry.incr m_consistent
  | Inconsistent -> Telemetry.incr m_inconsistent
  | Unknown _ -> Telemetry.incr m_unknown);
  result

let to_bool = function Consistent _ -> true | Inconsistent | Unknown _ -> false
