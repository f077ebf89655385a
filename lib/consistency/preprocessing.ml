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
  | Unknown of Depgraph.component list

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

let run ?(backend = Cfd_checking.Chase_backend) ?k_cfd ~rng schema
    (sigma : Sigma.nf) =
  Telemetry.incr m_runs;
  Telemetry.with_span "checking.preprocess" @@ fun () ->
  let g = Depgraph.make schema sigma in
  let sccs = Depgraph.sccs g in
  Telemetry.add m_sccs (List.length sccs);
  let avoid = Sigma.constant_values sigma in
  let n = Db_schema.cardinal schema in
  let queue = Queue.create () and queued = Array.make n false in
  let enqueue r =
    if not queued.(r) then begin
      queued.(r) <- true;
      Queue.push r queue
    end
  in
  (* topo order = Tarjan's SCC emission order, flattened *)
  List.iter (List.iter enqueue) sccs;
  (* relations whose non-triggering witness failed verification: not
     refuted, so the indegree-0 pass must leave them live *)
  let unverified = Array.make n false in
  let outcome = ref None in
  while !outcome = None && not (Queue.is_empty queue) do
    let r = Queue.pop queue in
    queued.(r) <- false;
    unverified.(r) <- false;
    Guard.check ();
    if Depgraph.is_live g r then begin
      let rel = Db_schema.name_at schema r in
      let sat () = Cfd_checking.sat_witness ~avoid schema (Depgraph.cfds g r) ~rel in
      let witness =
        match backend with
        | Cfd_checking.Sat_backend -> sat ()
        | Chase_backend -> (
            match
              Cfd_checking.chase_witness ?k_cfd ~avoid ~rng schema
                (Depgraph.compiled_cfds g r) ~rel
            with
            | Cfd_checking.Gave_up ->
                (* the K_CFD valuations ran out, which refutes nothing:
                   settle r with the complete SAT encoding *)
                Telemetry.incr m_settled_by_sat;
                sat ()
            | w -> w)
      in
      match witness with
      | Cfd_checking.Tuple tau ->
          if not (Depgraph.triggers g r tau) then begin
            (* the one-tuple database { τ(R) }, which must satisfy Σ *)
            let db = Template.to_database ~avoid (Template.add_at (Template.empty schema) r tau) in
            if Sigma.nf_holds db sigma then outcome := Some (Consistent db)
            else unverified.(r) <- true
          end
      | Cfd_checking.No_tuple | Cfd_checking.Gave_up ->
          (* CFD(r) refuted ([Gave_up] never comes back from the SAT
             backend): r must be empty. *)
          Telemetry.incr m_pruned_inconsistent;
          List.iter
            (fun (rj, label) ->
              let bots = List.concat_map (non_triggering schema) label in
              if bots <> [] then begin
                Telemetry.add m_bot_cfds (List.length bots);
                Depgraph.push_cfds g rj bots;
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
          (fun r -> Depgraph.predecessors g r = [] && not unverified.(r))
          (Depgraph.live g)
      in
      Telemetry.add m_pruned_indegree0 (List.length zero);
      List.iter (Depgraph.remove g) zero;
      if Depgraph.live g = [] then Inconsistent
      else begin
        let components = Depgraph.components g ~avoid in
        Telemetry.add m_components (List.length components);
        Unknown components
      end
