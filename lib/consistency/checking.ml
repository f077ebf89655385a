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

let () = Guard.register_probe "checking.check"

let m_calls = Telemetry.counter "checking.calls" ~doc:"top-level Checking invocations"
let m_consistent = Telemetry.counter "checking.results_consistent" ~doc:"Checking answers with a verified witness"
let m_inconsistent = Telemetry.counter "checking.results_inconsistent" ~doc:"Checking answers: dependency graph emptied"
let m_unknown = Telemetry.counter "checking.results_unknown" ~doc:"Checking answers: budgets exhausted"
let m_components_tried = Telemetry.counter "checking.components_tried" ~doc:"weakly connected components run through RandomChecking"

(* One full pipeline: preProcessing (with [backend], chase by default)
   and per-component RandomChecking. *)
let pipeline ?backend ~budget ?config ?k ?k_cfd ~rng schema
    (sigma : Sigma.nf) =
  try
    Guard.probe ~budget "checking.check";
    match Preprocessing.run ?backend ~budget ?k_cfd ~rng schema sigma with
    | Preprocessing.Consistent db -> Consistent db
    | Preprocessing.Inconsistent -> Inconsistent
    | Preprocessing.Unknown components ->
        (* [Guard.Fuel] is the ordinary "budgets K / K_CFD exhausted"
           answer; a component cut short for a sharper reason (deadline,
           fault, ...) reports that reason instead — first one wins. *)
        let rec try_components reason = function
          | [] -> Unknown reason
          | (members, component_sigma) :: rest -> (
              Guard.check budget;
              Telemetry.incr m_components_tried;
              match
                Random_checking.check ~budget ?config ?k ?k_cfd
                  ~seed_rels:members ~rng schema component_sigma
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

(* One path: [Supervise.with_retry] around one pipeline run.  Transient
   failures (injected faults, a local allocation ceiling — never
   deterministic heuristic give-ups, which re-run identically) are
   retried; every attempt replays a copy of the entry generator, so a
   fault-free re-run yields the bit-identical verdict the fault-free run
   would have produced. *)
let check ?backend ?budget ?config ?k ?k_cfd ?policy ?recorder
    ~rng schema (sigma : Sigma.nf) =
  Telemetry.incr m_calls;
  (* Checking consults all of Σ (preProcessing walks the full dependency
     graph), so the read set is Σ itself plus every relation it mentions,
     recorded up front. *)
  (match recorder with
  | None -> ()
  | Some _ ->
      List.iter
        (fun (c : Cind.nf) ->
          Read_set.record_cind recorder c;
          Read_set.record_rel recorder c.Cind.nf_lhs;
          Read_set.record_rel recorder c.Cind.nf_rhs)
        sigma.Sigma.ncinds;
      List.iter
        (fun (f : Cfd.nf) ->
          Read_set.record_cfd recorder f;
          Read_set.record_rel recorder f.Cfd.nf_rel)
        sigma.Sigma.ncfds);
  let budget = Guard.resolve budget in
  Telemetry.with_span "checking.check" @@ fun () ->
  let rng0 = Rng.copy rng in
  let result =
    match
      Supervise.with_retry ?policy ~rng ~budget (fun ~attempt:_ ->
          match
            pipeline ?backend ~budget ?config ?k ?k_cfd ~rng:(Rng.copy rng0)
              schema sigma
          with
          | Unknown r when Supervise.transient ~shared:budget r ->
              Supervise.Transient r
          | v -> Supervise.Done v)
    with
    | Ok v -> v
    | Error r -> Unknown r
  in
  (match result with
  | Consistent _ -> Telemetry.incr m_consistent
  | Inconsistent -> Telemetry.incr m_inconsistent
  | Unknown _ -> Telemetry.incr m_unknown);
  result

let to_bool = function Consistent _ -> true | Inconsistent | Unknown _ -> false

(* Warm the global interner with the schema's symbols once per batch, so
   the per-item Depgraph / Preprocessing passes hit a populated table
   instead of each paying the first-touch insertions. *)
let intern_schema schema =
  List.iter
    (fun rel ->
      ignore (Interner.symbol rel);
      List.iter
        (fun a -> ignore (Interner.symbol a))
        (Schema.attr_names (Db_schema.find schema rel)))
    (Db_schema.rel_names schema)

(* Batch entry point: one schema, N dependency sets.  Item i is [check]
   on generator i of [Rng.split_n rng N], so batch results are
   bit-identical to N independent [check] calls.  What the batch shares:
   the policy/budget resolution and the interner warm-up above; the items
   run one after another. *)
let check_many ?backend ?budget ?config ?k ?k_cfd ?policy ~rng schema
    (sigmas : Sigma.nf list) =
  let budget = Guard.resolve budget in
  let policy = Supervise.Policy.resolve policy in
  Telemetry.with_span "checking.check_many" @@ fun () ->
  intern_schema schema;
  List.map2
    (fun rng_i sigma_i ->
      check ?backend ~budget ?config ?k ?k_cfd ~policy ~rng:rng_i schema
        sigma_i)
    (Rng.split_n rng (List.length sigmas))
    sigmas
