open Conddep_relational
open Conddep_core
open Conddep_chase

(* Procedure CFD_Checking (Sections 5.2–5.3): given a database template,
   chase with the CFDs of Σ only — instantiating variables forced by
   constant bindings — then try random valuations of the remaining
   finite-domain variables.  Succeeds with a template in which every
   finite-domain variable holds a constant, iff one is found within K_CFD
   attempts.

   Two implementations, compared in Fig 10(a):
   - [Chase]: the bounded chase described above (incomplete for small
     K_CFD — the accuracy experiment of Fig 10(b));
   - [Sat]: reduction of the single-tuple CSP to CNF, decided by the
     complete CDCL solver (stands in for SAT4j). *)

type backend =
  | Chase_backend
  | Sat_backend

let m_calls = Telemetry.counter "checking.cfd.calls" ~doc:"CFD_Checking invocations (both backends)"
let m_kcfd_retries = Telemetry.counter "checking.cfd.kcfd_retries" ~doc:"random valuations drawn by the chase backend (at most K_CFD per call)"
let m_chase_calls = Telemetry.counter "checking.cfd.chase_backend_calls" ~doc:"single-relation checks routed to the chase backend"
let m_sat_calls = Telemetry.counter "checking.cfd.sat_backend_calls" ~doc:"single-relation checks routed to the SAT backend"

(* --- chase-based CFD_Checking on an arbitrary template --- *)

type template_outcome =
  | Instantiated of Template.t
  | Contradiction
  | Out_of_valuations (* the K_CFD valuations ran out *)

(* A compiled CFD list and the constants its conclusions demand of each
   column, grouped by column when a valuation first needs them, instead
   of a scan per variable per K_CFD attempt.  RandomChecking hands the
   same list to every IND step of a component, so it groups them once. *)
type cfds = { compiled : Chase.compiled_cfd list; demanded : (int * int, Value.t) Hashtbl.t Lazy.t }

let cfds compiled =
  {
    compiled;
    demanded =
      lazy
        (let tbl = Hashtbl.create 16 in
         (* [find_all] lists a key's bindings newest first *)
         List.iter
           (fun (key, v) -> Hashtbl.add tbl key v)
           (List.rev (Chase.conclusion_constants compiled));
         tbl);
  }

let check_template_outcome ?(k_cfd = 100) ?(avoid = []) ~rng cfds db =
  Telemetry.incr m_calls;
  match Chase.fd_fixpoint cfds.compiled db with
  | Error _ ->
      (* The initial fixpoint only propagates bindings forced by the
         input template itself, so a contradiction here refutes every
         instantiation — a definitive "no", unlike the heuristic
         give-ups below. *)
      Contradiction
  | Ok db -> (
      match Template.finite_variables db with
      | [] -> Instantiated db
      | _ ->
          let demanded = Lazy.force cfds.demanded in
          let prefer (col : Template.column) = Hashtbl.find_all demanded (col.rel_pos, col.pos) in
          let rec attempts k =
            if k <= 0 then begin
              Guard.reraise_if_spent ();
              Out_of_valuations
            end
            else
              let () = Telemetry.incr m_kcfd_retries in
              let candidate = Chase.instantiate_finite_vars ~prefer ~avoid rng db in
              match Chase.fd_fixpoint cfds.compiled candidate with
              | Ok done_db when Template.finite_variables done_db = [] ->
                  Instantiated done_db
              | Ok _ | Error _ -> attempts (k - 1)
          in
          attempts k_cfd)

let check_template ?k_cfd ?avoid ~rng cfds db =
  match check_template_outcome ?k_cfd ?avoid ~rng cfds db with
  | Instantiated db -> Some db
  | Contradiction | Out_of_valuations -> None

(* --- SAT-based CFD_Checking --- *)

(* Complete single-tuple consistency: the CNF encoding of
   [Cfd_consistency], one variable per named constant and per unnamed
   representative of each attribute. *)
let consistent_rel_sat ?avoid schema cfds ~rel = Cfd_consistency.witness_tuple ?avoid schema ~rel cfds

(* Uniform front-end on the single-tuple problem: a satisfying template
   tuple with finite-domain fields concrete, a definitive refutation, or
   a heuristic give-up.  The three-way answer lets facades distinguish
   "no single tuple exists" (a No) from "K_CFD ran out" (an Unknown) —
   the chase backend's initial forced-propagation fixpoint deriving a
   contradiction is just as definitive as an Unsat from SAT. *)
type witness =
  | Tuple of Template.tuple
  | No_tuple
  | Gave_up

(* The two backends on CFD(rel): the chase backend takes the CFDs
   compiled, the SAT backend as they are. *)
let chase_witness ?k_cfd ?avoid ~rng schema compiled ~rel =
  Telemetry.incr m_chase_calls;
  match check_template_outcome ?k_cfd ?avoid ~rng (cfds compiled) (Chase.seed_tuple schema ~rel) with
  | Contradiction -> No_tuple
  | Out_of_valuations -> Gave_up
  | Instantiated db -> (
      match Template.tuples_at db (snd (Db_schema.find_indexed schema rel)) with
      | [ t ] -> Tuple t
      | _ -> assert false)

let sat_witness ?avoid schema cfds ~rel =
  Telemetry.incr m_sat_calls;
  match consistent_rel_sat ?avoid schema cfds ~rel with
  | None -> No_tuple
  | Some tuple ->
      Tuple (Array.map (fun v -> Template.C v) (Array.of_list (Tuple.to_list tuple)))

let consistent_rel ?(backend = Chase_backend) ?k_cfd ~rng schema cfds ~rel =
  let cfds_on_rel = List.filter (fun nf -> String.equal nf.Cfd.nf_rel rel) cfds in
  match backend with
  | Chase_backend ->
      chase_witness ?k_cfd ~rng schema
        (List.map (Chase.compile_cfd schema) cfds_on_rel)
        ~rel
  | Sat_backend -> sat_witness schema cfds_on_rel ~rel
