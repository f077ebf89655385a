open Conddep_relational
open Conddep_core
open Conddep_chase

(* Algorithm preProcessing (Fig 7): reduce the dependency graph by local
   CFD-consistency analysis.

   For each vertex R in topological order (targets first): if CFD(R) is
   consistent and its witness tuple τ(R) triggers no CIND, Σ is consistent
   — the database { τ(R) } with all other relations empty is a witness.
   If CFD(R) is inconsistent, R must be empty in every model, so R is
   deleted after the non-triggering CFDs CIND(Rj, R)⊥ are added to every
   predecessor Rj, denying the tuples that would require a partner in R;
   affected predecessors are re-queued.  Finally indegree-0 vertices are
   pruned (they may be empty without impact).  An empty graph means every
   relation is forced empty — Σ is inconsistent.

   One departure from Fig 7, which deletes R on any CFD_Checking failure:
   R is deleted only on a refutation.  When the chase backend gives up
   (K_CFD valuations ran out), R is settled by the complete SAT encoding
   instead, so an emptied graph — and the [Inconsistent] answer — always
   rests on refutations. *)

type result =
  | Consistent of Database.t
  | Inconsistent
  | Unknown of (string list * Sigma.nf) list
      (* weakly connected components with their (extended) constraints *)

let m_runs = Telemetry.counter "checking.preprocess.runs" ~doc:"preProcessing invocations"
let m_sccs = Telemetry.counter "checking.preprocess.sccs" ~doc:"strongly connected components in the dependency graphs processed"
let m_pruned_inconsistent = Telemetry.counter "checking.preprocess.pruned_inconsistent" ~doc:"vertices deleted because CFD(R) is inconsistent"
let m_settled_by_sat = Telemetry.counter "checking.preprocess.settled_by_sat" ~doc:"chase give-ups on CFD(R) settled by the SAT encoding"
let m_pruned_indegree0 = Telemetry.counter "checking.preprocess.pruned_indegree0" ~doc:"vertices pruned by the indegree-0 rule (Fig 7 line 13)"
let m_bot_cfds = Telemetry.counter "checking.preprocess.nontriggering_cfds" ~doc:"non-triggering CFDs CIND(Rj,R)_bot pushed to predecessors"
let m_components = Telemetry.counter "checking.preprocess.components" ~doc:"weakly connected components handed to RandomChecking"

(* The non-triggering CFDs CIND(Rj, R)⊥ for one CIND ψ from Rj to R:
   (Rj : Xp -> A, (tp[Xp] || c1)) and (Rj : Xp -> A, (tp[Xp] || c2)) with
   c1 <> c2, denying every Rj tuple that matches tp[Xp]. *)
let non_triggering schema (cind : Cind.nf) =
  let rj = Db_schema.find schema cind.Cind.nf_lhs in
  (* an attribute offering two distinct constants *)
  let pick_attr () =
    let viable attr =
      let dom = Attribute.domain attr in
      match Domain.cardinal dom with Some n -> n >= 2 | None -> true
    in
    List.find_opt viable (Schema.attrs rj)
  in
  match pick_attr () with
  | None -> [] (* all domains are singletons: denial impossible (pathological) *)
  | Some attr ->
      let dom = Attribute.domain attr in
      let c1 = Domain.fresh dom ~avoid:[] |> Option.get in
      let c2 = Domain.fresh dom ~avoid:[ c1 ] |> Option.get in
      let x = List.map fst cind.nf_xp in
      let tx = List.map (fun (_, v) -> Pattern.Const v) cind.nf_xp in
      let make c =
        {
          Cfd.nf_name = Printf.sprintf "%s_bot" cind.nf_name;
          nf_rel = cind.nf_lhs;
          nf_x = x;
          nf_a = Attribute.name attr;
          nf_tx = tx;
          nf_ta = Pattern.Const c;
        }
      in
      [ make c1; make c2 ]

(* Does the instantiated template tuple τ(R) trigger ψ?  Pattern-free CINDs
   (Xp = nil) are triggered by any tuple; otherwise every Xp field must
   hold the pattern constant (remaining variables denote fresh values that
   match no constant). *)
let tuple_triggers schema (cind : Cind.nf) (tau : Template.tuple) =
  let r = Db_schema.find schema cind.Cind.nf_lhs in
  List.for_all
    (fun (a, v) ->
      Template.cell_equal tau.(Schema.position r a) (Template.C v))
    cind.nf_xp

(* Concretize a single instantiated template tuple into a one-tuple witness
   database (all other relations empty). *)
let singleton_db schema ~rel ~avoid (tau : Template.tuple) =
  let db = Template.add (Template.empty schema) rel tau in
  Template.to_database ~avoid db

let run ?backend ?k_cfd ~rng schema (sigma : Sigma.nf) =
  Telemetry.incr m_runs;
  Telemetry.with_span "checking.preprocess" @@ fun () ->
  let g = Depgraph.make schema sigma in
  let sccs = Depgraph.sccs g in
  Telemetry.add m_sccs (List.length sccs);
  let avoid = Sigma.constant_values sigma in
  let queue = Queue.create () in
  let queued = Hashtbl.create 16 in
  let enqueue r =
    if not (Hashtbl.mem queued r) then begin
      Hashtbl.replace queued r ();
      Queue.push r queue
    end
  in
  let cinds_by_lhs = Hashtbl.create 16 in
  List.iter
    (fun (c : Cind.nf) ->
      Hashtbl.replace cinds_by_lhs c.Cind.nf_lhs
        (c :: Option.value ~default:[] (Hashtbl.find_opt cinds_by_lhs c.nf_lhs)))
    sigma.Sigma.ncinds;
  (* topo order = Tarjan's SCC emission order, flattened *)
  List.iter enqueue (List.concat sccs);
  (* relations whose non-triggering witness failed verification: not
     refuted, so the indegree-0 pass must leave them live *)
  let unverified = Hashtbl.create 4 in
  let outcome = ref None in
  while !outcome = None && not (Queue.is_empty queue) do
    let r = Queue.pop queue in
    Hashtbl.remove queued r;
    Hashtbl.remove unverified r;
    Guard.check ();
    if Depgraph.is_live g r then begin
      let cfds = Depgraph.cfd_set g r in
      let witness =
        match
          Cfd_checking.consistent_rel ?backend ~avoid ?k_cfd ~rng schema cfds
            ~rel:r
        with
        | Cfd_checking.Gave_up ->
            (* the K_CFD valuations ran out, which refutes nothing:
               settle r with the complete SAT encoding *)
            Telemetry.incr m_settled_by_sat;
            Cfd_checking.consistent_rel ~backend:Cfd_checking.Sat_backend
              ~avoid ~rng schema cfds ~rel:r
        | w -> w
      in
      match witness with
      | Cfd_checking.Tuple tau ->
          let triggering =
            Option.value ~default:[] (Hashtbl.find_opt cinds_by_lhs r)
            |> List.exists (fun c -> tuple_triggers schema c tau)
          in
          if not triggering then begin
            let db = singleton_db schema ~rel:r ~avoid tau in
            (* sanity: the one-tuple database must satisfy Σ *)
            if Sigma.nf_holds db sigma then outcome := Some (Consistent db)
            else Hashtbl.replace unverified r ()
          end
      | Cfd_checking.No_tuple | Cfd_checking.Gave_up ->
          (* CFD(r) refuted ([Gave_up] never comes back from the SAT
             backend): r must be empty. *)
          Telemetry.incr m_pruned_inconsistent;
          List.iter
            (fun rj ->
              let bots =
                List.concat_map (non_triggering schema)
                  (Depgraph.cinds_between g ~src:rj ~dst:r)
              in
              if bots <> [] then begin
                Telemetry.add m_bot_cfds (List.length bots);
                Depgraph.add_cfds g rj bots;
                enqueue rj
              end)
            (Depgraph.predecessors g r);
          Depgraph.remove g r
    end
  done;
  match !outcome with
  | Some r -> r
  | None ->
      (* prune indegree-0 vertices (single pass, as in Fig 7 line 13) *)
      let zero =
        List.filter
          (fun r ->
            Depgraph.indegree g r = 0 && not (Hashtbl.mem unverified r))
          (Depgraph.live g)
      in
      Telemetry.add m_pruned_indegree0 (List.length zero);
      List.iter (Depgraph.remove g) zero;
      if Depgraph.live g = [] then Inconsistent
      else begin
        let components = Depgraph.weak_components g in
        Telemetry.add m_components (List.length components);
        Unknown
          (List.map
             (fun members -> (members, Depgraph.component_sigma g members))
             components)
      end
