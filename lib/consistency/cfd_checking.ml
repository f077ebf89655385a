open Conddep_relational
open Conddep_core
open Conddep_chase
open Conddep_sat

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

let check_template_outcome ?(k_cfd = 100) ?(avoid = []) ~rng compiled_cfds db =
  Telemetry.incr m_calls;
  match Chase.fd_fixpoint compiled_cfds db with
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
          (* Group the demanded constants by (relation, attribute) once,
             instead of a scan per variable per K_CFD attempt. *)
          let demanded =
            Chase.conclusion_constants (Template.schema db) compiled_cfds
          in
          let demanded_tbl = Hashtbl.create 16 in
          List.iter
            (fun (key, v) ->
              Hashtbl.replace demanded_tbl key
                (v :: Option.value ~default:[] (Hashtbl.find_opt demanded_tbl key)))
            demanded;
          Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) demanded_tbl;
          let prefer rel attr =
            Option.value ~default:[] (Hashtbl.find_opt demanded_tbl (rel, attr))
          in
          let rec attempts k =
            if k <= 0 then begin
              Guard.reraise_if_spent ();
              Out_of_valuations
            end
            else
              let () = Telemetry.incr m_kcfd_retries in
              let candidate = Chase.instantiate_finite_vars ~prefer ~avoid rng db in
              match Chase.fd_fixpoint compiled_cfds candidate with
              | Ok done_db when Template.finite_variables done_db = [] ->
                  Instantiated done_db
              | Ok _ | Error _ -> attempts (k - 1)
          in
          attempts k_cfd)

let check_template ?k_cfd ?avoid ~rng compiled_cfds db =
  match check_template_outcome ?k_cfd ?avoid ~rng compiled_cfds db with
  | Instantiated db -> Some db
  | Contradiction | Out_of_valuations -> None

(* --- SAT-based CFD_Checking --- *)

(* Per-attribute candidate values: the constants CFD(R) names on the
   attribute, plus one unnamed representative.  An unnamed value occurs in
   no clause, so any one of them stands for all the others and the
   encoding stays equisatisfiable with the whole domain.  The
   representative is the first domain value outside the named constants
   and [avoid] (for an infinite domain, a fresh value), or else the first
   unnamed one; a finite attribute whose every value is named gets none.
   [avoid] carries the constants of the wider Σ (e.g. CIND patterns), so
   that where the domain allows, the representative matches no pattern
   elsewhere.  CFD(R) is validated, so a named constant lies in the
   domain. *)
let sat_candidates ~avoid cfds rel_schema =
  let named = Array.make (Schema.arity rel_schema) [] in
  List.iter
    (fun nf ->
      List.iter
        (fun (a, v) ->
          let pos = Schema.position rel_schema a in
          named.(pos) <- v :: named.(pos))
        (Cfd.nf_constants nf))
    cfds;
  Array.mapi
    (fun pos attr ->
      let consts = List.sort_uniq Value.compare named.(pos) in
      let dom = Attribute.domain attr in
      let unnamed =
        match Domain.fresh dom ~avoid:(consts @ avoid) with
        | Some _ as v -> v
        | None -> Domain.fresh dom ~avoid:consts
      in
      Array.of_list (consts @ Option.to_list unnamed))
    (Array.of_list (Schema.attrs rel_schema))

(* Encode single-tuple satisfiability of CFD(R) as CNF:
   one boolean per (attribute, candidate), exactly-one per attribute, and
   per CFD (X -> A, (tx || a)) the clause ¬tx[X1] ∨ ... ∨ x_{A,a}.  Every
   constant of CFD(R) is a candidate of its attribute, so each clause
   names existing variables. *)
let encode ~avoid cfds rel_schema =
  let cands = sat_candidates ~avoid cfds rel_schema in
  let arity = Schema.arity rel_schema in
  let offsets = Array.make arity 0 in
  let num_vars = ref 0 in
  Array.iteri
    (fun i c ->
      offsets.(i) <- !num_vars;
      num_vars := !num_vars + Array.length c)
    cands;
  let var_of pos idx = offsets.(pos) + idx + 1 in
  let var_of_value attr v =
    let pos = Schema.position rel_schema attr in
    let c = cands.(pos) in
    let rec go i = if Value.equal c.(i) v then var_of pos i else go (i + 1) in
    go 0
  in
  let clauses = ref [] in
  (* exactly-one per attribute *)
  for pos = 0 to arity - 1 do
    let n = Array.length cands.(pos) in
    clauses := List.init n (fun i -> var_of pos i) :: !clauses;
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        clauses := [ -var_of pos i; -var_of pos j ] :: !clauses
      done
    done
  done;
  (* CFD constraints; a wildcard RHS is met by any single tuple *)
  List.iter
    (fun nf ->
      match nf.Cfd.nf_ta with
      | Pattern.Wildcard -> ()
      | Pattern.Const a ->
          let negs =
            List.fold_left2
              (fun acc attr p ->
                match p with
                | Pattern.Wildcard -> acc
                | Pattern.Const v -> -var_of_value attr v :: acc)
              [] nf.nf_x nf.nf_tx
          in
          clauses := (var_of_value nf.nf_a a :: negs) :: !clauses)
    cfds;
  (Cnf.make ~num_vars:!num_vars !clauses, cands, var_of)

(* Decide CFD(R) on a single tuple; [cfds] holds CFD(R) alone. *)
let sat_tuple ~avoid rel_schema cfds =
  let cnf, cands, var_of =
    Telemetry.with_span "sat.encode" (fun () -> encode ~avoid cfds rel_schema)
  in
  match Solver.solve cnf with
  | Solver.Unknown r ->
      (* [None] means "definitely inconsistent" to callers (preProcessing
         prunes the relation on it) — an undetermined SAT answer must never
         be collapsed into it. *)
      raise (Guard.Exhausted r)
  | Solver.Unsat -> None
  | Solver.Sat model ->
      let values =
        Array.mapi
          (fun pos c ->
            let rec find i = if model.(var_of pos i) then c.(i) else find (i + 1) in
            find 0)
          cands
      in
      Some (Tuple.make (Array.to_list values))

let consistent_rel_sat ?(avoid = []) schema cfds ~rel =
  sat_tuple ~avoid (Db_schema.find schema rel)
    (List.filter (fun nf -> String.equal nf.Cfd.nf_rel rel) cfds)

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

let consistent_rel ?(backend = Chase_backend) ?avoid ?k_cfd ~rng schema cfds
    ~rel =
  let cfds_on_rel = List.filter (fun nf -> String.equal nf.Cfd.nf_rel rel) cfds in
  match backend with
  | Chase_backend -> (
      Telemetry.incr m_chase_calls;
      let compiled = List.map (Chase.compile_cfd schema) cfds_on_rel in
      match
        check_template_outcome ?k_cfd ?avoid ~rng compiled
          (Chase.seed_tuple schema ~rel)
      with
      | Contradiction -> No_tuple
      | Out_of_valuations -> Gave_up
      | Instantiated db -> (
          match Template.tuples db rel with [ t ] -> Tuple t | _ -> assert false))
  | Sat_backend -> (
      Telemetry.incr m_sat_calls;
      match
        sat_tuple ~avoid:(Option.value avoid ~default:[])
          (Db_schema.find schema rel) cfds_on_rel
      with
      | None -> No_tuple
      | Some tuple ->
          Tuple
            (Array.map (fun v -> Template.C v) (Array.of_list (Tuple.to_list tuple))))
