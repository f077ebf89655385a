open Conddep_relational
open Conddep_core
open Conddep_chase

(* Algorithm RandomChecking (Fig 5), in the improved form the paper
   implemented (end of Section 5.2): start from a single-tuple template in
   a random relation and run the instantiated chase, invoking CFD_Checking
   every time an IND step adds a tuple, so that constant bindings imposed
   by CFDs instantiate variables before random valuations are drawn.  Up to
   K runs are attempted; a run fails when CFD_Checking fails or a relation
   exceeds the threshold T.

   Soundness (Theorem 5.1): a [Consistent] answer always carries a concrete
   witness database, and we re-verify Σ against it before answering. *)

type result =
  | Consistent of Database.t
  | Unknown of Guard.reason

let () = Guard.register_probe "checking.random"

let m_runs = Telemetry.counter "checking.random.runs" ~doc:"RandomChecking chase runs attempted (K budget consumed)"
let m_successes = Telemetry.counter "checking.random.successes" ~doc:"RandomChecking runs ending in a verified witness"

let chase_run ~budget ~config ~k_cfd ~avoid ~rng schema
    (compiled : Chase.compiled) db =
  let pool = Pool.make ~n:config.Chase.pool_size in
  (* IND steps fill unknown fields with pool *variables* (instantiated:
     false): the interleaved CFD_Checking then chooses finite-domain values
     consistently, retrying up to K_CFD valuations — the improvement at the
     end of Section 5.2.  Baking random constants in at creation time would
     make almost every run die on the first CFD clash.

     The round-robin cursor resumes after the last applied CIND instead of
     restarting from the head of the (shuffled) list, and re-examines only
     tuples enqueued since the CIND was last checked, reseeding its
     worklists whenever CFD_Checking rewrote the template in between.
     Each run owns its cursor, and with it its witness index (the index
     is not domain-safe); CFD substitutions between IND steps are caught
     by the cursor's and the index's physical-identity staleness checks. *)
  let cinds = Rng.shuffle rng compiled.Chase.cinds in
  let cursor =
    Chase.Ind_cursor.create ~instantiated:false ~threshold:config.Chase.threshold pool
      schema cinds
  in
  let rec loop db steps =
    if steps > config.Chase.max_steps then begin
      Guard.reraise_if_spent budget;
      None
    end
    else begin
      Guard.tick budget;
      match
        Cfd_checking.check_template ~budget ~k_cfd ~avoid ~rng
          compiled.Chase.cfds db
      with
      | None -> None
      | Some db -> (
          match Chase.Ind_cursor.step ~budget cursor ~rng db with
          | Chase.Ind_cursor.Step_applied { db = db'; _ } -> loop db' (steps + 1)
          | Chase.Ind_cursor.Step_none -> Some db (* chase_I terminal *)
          | Chase.Ind_cursor.Step_overflow _ -> None)
    end
  in
  loop db 0

let check ?budget ?(config = Chase.default_config) ?(k = 20) ?(k_cfd = 100)
    ?seed_rels ?jobs ~rng schema (sigma : Sigma.nf) =
  let budget = Guard.resolve budget in
  let jobs =
    match jobs with Some j -> max 1 j | None -> Parallel.default_jobs ()
  in
  try
    Guard.probe ~budget "checking.random";
    let compiled = Chase.compile schema sigma in
    let avoid =
      List.map (fun (_, _, v) -> v) (Sigma.constants sigma)
      |> List.sort_uniq Value.compare
    in
    let seed_rels =
      match seed_rels with Some rels -> rels | None -> Db_schema.rel_names schema
    in
    if seed_rels = [] then Unknown Guard.Fuel
    else begin
      (* One run.  In first-success terms (least run index wins):
         - [Some (Ok db)]   — verified witness: stop, answer Consistent;
         - [Some (Error r)] — the child budget's deadline / fuel pool /
           parent cancellation ran dry, or a fault fired: these are the
           shared limits, so stop and answer Unknown;
         - [None]           — the run failed on its own local limits (or
           was cancelled because a lower run stopped): keep trying. *)
      let attempt run_rng tok =
        let child = Guard.child ~cancel:tok budget in
        Telemetry.incr m_runs;
        match
          let rel = Rng.pick run_rng seed_rels in
          let db = Chase.seed_tuple schema ~rel in
          Telemetry.with_span "checking.random_run" @@ fun () ->
          chase_run ~budget:child ~config ~k_cfd ~avoid ~rng:run_rng
            schema compiled db
        with
        | Some terminal ->
            let concrete = Template.to_database ~avoid terminal in
            if (not (Database.is_empty concrete)) && Sigma.nf_holds concrete sigma
            then begin
              Telemetry.incr m_successes;
              Some (Ok concrete)
            end
            else None
        | None -> None
        | exception Guard.Exhausted Guard.Cancelled when Guard.is_cancelled tok
          ->
            None
        | exception Guard.Exhausted r -> Some (Error r)
      in
      (* Run i draws the i-th split of a copy of [rng], pulled lazily in
         run order, and the least-indexed stopping run wins — so the
         verdict and witness are the sequential loop's at any jobs
         count.  Afterwards [rng] is left where that loop leaves it: one
         split per run, through the stopping one. *)
      let runs = Rng.copy rng in
      let outcome =
        Parallel.first_success ~jobs k (fun () -> Rng.split runs) attempt
      in
      let used = match outcome with Some (i, _) -> i + 1 | None -> k in
      for _ = 1 to used do
        ignore (Rng.split rng)
      done;
      match outcome with
      | Some (_, Ok db) -> Consistent db
      | Some (_, Error r) -> Unknown r
      | None ->
          (* K exhausted: the heuristic gave up on its own step budget. *)
          Guard.reraise_if_spent budget;
          Unknown Guard.Fuel
    end
  with Guard.Exhausted r -> Unknown r

let to_bool = function Consistent _ -> true | Unknown _ -> false
