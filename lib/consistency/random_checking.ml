open Conddep_relational
open Conddep_core
open Conddep_chase

(* Algorithm RandomChecking (Fig 5), in the improved form the paper
   implemented (end of Section 5.2): start from a single-tuple template in
   a random relation and run the chase bounded by T, invoking CFD_Checking
   every time an IND step adds a tuple, so that constant bindings imposed
   by CFDs instantiate variables before random valuations are drawn.  Up to
   K runs are attempted; a run fails when CFD_Checking fails or a relation
   exceeds the threshold T.

   Soundness (Theorem 5.1): a [Consistent] answer always carries a concrete
   witness database, and we verify Σ against it before answering.  When
   Checking hands over one component, the chase sees only the component's
   constraints, but the witness is verified against the whole Σ, once. *)

type result =
  | Consistent of Database.t
  | Unknown of Guard.reason

let m_runs = Telemetry.counter "checking.random.runs" ~doc:"RandomChecking chase runs attempted (at most K per call)"
let m_successes = Telemetry.counter "checking.random.successes" ~doc:"RandomChecking runs ending in a verified witness"

let chase_run ~config ~k_cfd ~avoid ~rng ~cfds (compiled : Chase.compiled) db =
  (* IND steps fill unknown fields with pool *variables*, finite-domain
     ones included: the interleaved CFD_Checking then chooses their values
     consistently, retrying up to K_CFD valuations — the improvement at the
     end of Section 5.2.  Baking random constants in at creation time would
     make almost every run die on the first CFD clash.

     The round-robin cursor resumes after the last applied CIND instead
     of restarting from the head of the (shuffled) list; each IND step
     rescans the template CFD_Checking handed back. *)
  let cinds = Rng.shuffle rng compiled.Chase.cinds in
  let cursor =
    Chase.Ind_cursor.create ~threshold:config.Chase.threshold
      ~pool_size:config.Chase.pool_size cinds
  in
  let rec loop db steps =
    if steps > config.Chase.max_steps then begin
      Guard.reraise_if_spent ();
      None
    end
    else begin
      Guard.tick ();
      match
        Cfd_checking.check_template ~k_cfd ~avoid ~rng cfds db
      with
      | None -> None
      | Some db -> (
          match Chase.Ind_cursor.step cursor ~rng db with
          | Chase.Ind_changed db' -> loop db' (steps + 1)
          | Chase.Ind_unchanged -> Some db (* chase_I terminal *)
          | Chase.Ind_overflow _ -> None)
    end
  in
  loop db 0

let check ?(config = Chase.default_config) ?(k = 20) ?(k_cfd = 100) ?component
    ~rng schema (sigma : Sigma.nf) =
  try
    (* chase the component; verify against the whole Σ *)
    let { Depgraph.members = seed_rels; compiled; avoid } =
      match component with
      | Some c -> c
      | None ->
          {
            Depgraph.members = Db_schema.rel_names schema;
            compiled = Chase.compile schema sigma;
            avoid = Sigma.constant_values sigma;
          }
    in
    if seed_rels = [] then Unknown Guard.Fuel
    else begin
      let cfds = Cfd_checking.cfds compiled.Chase.cfds in
      (* One run on its own split of [rng]: [Some db] for a verified
         witness, [None] when the run failed on its own local limits.
         The ambient budget governs every run, so its deadline or fuel
         raises [Guard.Exhausted] out of the loop and answers Unknown. *)
      let attempt () =
        let run_rng = Rng.split rng in
        Telemetry.incr m_runs;
        match
          let rel = Rng.pick run_rng seed_rels in
          let db = Chase.seed_tuple schema ~rel in
          Telemetry.with_span "checking.random_run" @@ fun () ->
          chase_run ~config ~k_cfd ~avoid ~rng:run_rng ~cfds compiled db
        with
        | Some terminal ->
            let concrete = Template.to_database ~avoid terminal in
            if (not (Database.is_empty concrete)) && Sigma.nf_holds concrete sigma
            then begin
              Telemetry.incr m_successes;
              Some concrete
            end
            else None
        | None -> None
      in
      let rec runs i =
        if i >= k then begin
          (* K runs spent: the heuristic gave up on its own cap. *)
          Guard.reraise_if_spent ();
          Unknown Guard.Fuel
        end
        else match attempt () with Some db -> Consistent db | None -> runs (i + 1)
      in
      runs 0
    end
  with Guard.Exhausted r -> Unknown r
