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
     complete DPLL solver (stands in for SAT4j). *)

type backend =
  | Chase_backend
  | Sat_backend

let m_calls = Telemetry.counter "checking.cfd.calls" ~doc:"CFD_Checking invocations (both backends)"
let m_kcfd_retries = Telemetry.counter "checking.cfd.kcfd_retries" ~doc:"random valuations drawn by the chase backend (K_CFD budget consumed)"
let m_chase_calls = Telemetry.counter "checking.cfd.chase_backend_calls" ~doc:"single-relation checks routed to the chase backend"
let m_sat_calls = Telemetry.counter "checking.cfd.sat_backend_calls" ~doc:"single-relation checks routed to the SAT backend"

(* --- chase-based CFD_Checking on an arbitrary template --- *)

type template_outcome =
  | Instantiated of Template.t
  | Contradiction
  | Exhausted_k

let check_template_outcome ?budget ?(k_cfd = 100) ?(avoid = []) ~rng
    compiled_cfds db =
  Telemetry.incr m_calls;
  let budget = Guard.resolve budget in
  (* Local exhaustion of the fd-fixpoint's step fuel counts as a failed
     attempt (the heuristic gives up, as with K_CFD); exhaustion of the
     shared budget must surface to the caller. *)
  match Chase.fd_fixpoint ~budget compiled_cfds db with
  | Chase.Exhausted r when Guard.recoverable ~shared:budget r -> Exhausted_k
  | Chase.Exhausted r -> raise (Guard.Exhausted r)
  | Chase.Undefined _ ->
      (* The initial fixpoint only propagates bindings forced by the
         input template itself, so a contradiction here refutes every
         instantiation — a definitive "no", unlike the heuristic
         give-ups below. *)
      Contradiction
  | Chase.Terminal db -> (
      match Template.finite_variables db with
      | [] -> Instantiated db
      | _ ->
          (* Group the demanded constants by interned (relation, attribute)
             once, instead of a string-comparing scan per variable per
             K_CFD attempt. *)
          let demanded =
            Chase.conclusion_constants (Template.schema db) compiled_cfds
          in
          let demanded_tbl = Hashtbl.create 16 in
          List.iter
            (fun ((r, a), v) ->
              let key = (Interner.symbol r, Interner.symbol a) in
              Hashtbl.replace demanded_tbl key
                (v :: Option.value ~default:[] (Hashtbl.find_opt demanded_tbl key)))
            demanded;
          Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) demanded_tbl;
          let prefer rel attr =
            Option.value ~default:[]
              (Hashtbl.find_opt demanded_tbl (Interner.symbol rel, Interner.symbol attr))
          in
          let rec attempts k =
            if k <= 0 then begin
              Guard.reraise_if_spent budget;
              Exhausted_k
            end
            else
              let () = Telemetry.incr m_kcfd_retries in
              let candidate = Chase.instantiate_finite_vars ~prefer ~avoid rng db in
              match Chase.fd_fixpoint ~budget compiled_cfds candidate with
              | Chase.Terminal done_db when Template.finite_variables done_db = [] ->
                  Instantiated done_db
              | Chase.Terminal _ | Chase.Undefined _ -> attempts (k - 1)
              | Chase.Exhausted r when Guard.recoverable ~shared:budget r ->
                  attempts (k - 1)
              | Chase.Exhausted r -> raise (Guard.Exhausted r)
          in
          attempts k_cfd)

let check_template ?budget ?k_cfd ?avoid ~rng compiled_cfds db =
  match
    check_template_outcome ?budget ?k_cfd ?avoid ~rng compiled_cfds db
  with
  | Instantiated db -> Some db
  | Contradiction | Exhausted_k -> None

(* Single-relation consistency via the chase backend: start from the
   single-tuple template τ(R). *)
let consistent_rel_chase ?budget ?k_cfd ?avoid ~rng schema cfds ~rel =
  let compiled = List.map (Chase.compile_cfd schema) cfds in
  check_template ?budget ?k_cfd ?avoid ~rng compiled
    (Chase.seed_tuple schema ~rel)

(* --- SAT-based CFD_Checking --- *)

(* Per-attribute candidate values: the finite domain, or the constants on
   that attribute plus one fresh value.  [avoid] carries constants from the
   wider Σ (e.g. CIND patterns) that the fresh value must dodge, so that a
   "fresh" field never accidentally triggers a pattern elsewhere. *)
let sat_candidates ~avoid cfds rel_schema =
  Array.map
    (fun attr ->
      let name = Attribute.name attr in
      match Domain.values (Attribute.domain attr) with
      | Some vs -> Array.of_list vs
      | None ->
          let consts =
            List.concat_map
              (fun nf ->
                List.filter_map
                  (fun (a, v) -> if String.equal a name then Some v else None)
                  (Cfd.nf_constants nf))
              cfds
            |> List.sort_uniq Value.compare
          in
          let fresh = Domain.fresh (Attribute.domain attr) ~avoid:(consts @ avoid) in
          Array.of_list (consts @ Option.to_list fresh))
    (Array.of_list (Schema.attrs rel_schema))

(* Encode single-tuple satisfiability of CFD(R) as CNF:
   one boolean per (attribute, candidate), exactly-one per attribute, and
   per CFD (X -> A, (tx || a)) the clause ¬tx[X1] ∨ ... ∨ x_{A,a}. *)
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
  let index_of pos v =
    let c = cands.(pos) in
    let rec go i = if i >= Array.length c then None else if Value.equal c.(i) v then Some i else go (i + 1) in
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
  (* CFD constraints *)
  List.iter
    (fun nf ->
      match nf.Cfd.nf_ta with
      | Pattern.Wildcard -> () (* trivially satisfied by a single tuple *)
      | Pattern.Const a -> (
          let apos = Schema.position rel_schema nf.nf_a in
          match index_of apos a with
          | None -> () (* constant not representable: cannot be required, so the
                          tableau row can never be satisfied — but then neither
                          can the premise force anything; drop conservatively *)
          | Some aidx ->
              let rec build acc = function
                | [] -> Some acc
                | (attr, Pattern.Wildcard) :: rest ->
                    ignore attr;
                    build acc rest
                | (attr, Pattern.Const v) :: rest -> (
                    let pos = Schema.position rel_schema attr in
                    match index_of pos v with
                    | None -> None (* premise unsatisfiable: clause trivially true *)
                    | Some idx -> build (-var_of pos idx :: acc) rest)
              in
              match build [] (List.combine nf.nf_x nf.nf_tx) with
              | None -> ()
              | Some negs -> clauses := (var_of apos aidx :: negs) :: !clauses))
    cfds;
  (Cnf.make ~num_vars:!num_vars !clauses, cands, var_of)

let consistent_rel_sat ?budget ?(avoid = []) schema cfds ~rel =
  let rel_schema = Db_schema.find schema rel in
  let cfds = List.filter (fun nf -> String.equal nf.Cfd.nf_rel rel) cfds in
  let cnf, cands, var_of = encode ~avoid cfds rel_schema in
  match Solver.solve ?budget cnf with
  | Solver.Unknown r ->
      (* [None] means "definitely inconsistent" to callers (preProcessing
         prunes the relation on it) — an undetermined SAT answer must never
         be collapsed into it. *)
      raise (Guard.Exhausted r)
  | Solver.Unsat -> None
  | Solver.Sat model ->
      let arity = Schema.arity rel_schema in
      let values =
        List.init arity (fun pos ->
            let n = Array.length cands.(pos) in
            let rec find i = if i >= n then assert false else if model.(var_of pos i) then cands.(pos).(i) else find (i + 1) in
            find 0)
      in
      Some (Tuple.make values)

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

let consistent_rel ?(backend = Chase_backend) ?budget ?avoid ?k_cfd ~rng
    schema cfds ~rel =
  let cfds_on_rel = List.filter (fun nf -> String.equal nf.Cfd.nf_rel rel) cfds in
  match backend with
  | Chase_backend -> (
      Telemetry.incr m_chase_calls;
      let compiled = List.map (Chase.compile_cfd schema) cfds_on_rel in
      match
        check_template_outcome ?budget ?k_cfd ?avoid ~rng compiled
          (Chase.seed_tuple schema ~rel)
      with
      | Contradiction -> No_tuple
      | Exhausted_k -> Gave_up
      | Instantiated db -> (
          match Template.tuples db rel with [ t ] -> Tuple t | _ -> assert false))
  | Sat_backend -> (
      Telemetry.incr m_sat_calls;
      match consistent_rel_sat ?budget ?avoid schema cfds ~rel with
      | None -> No_tuple
      | Some tuple ->
          Tuple
            (Array.map (fun v -> Template.C v) (Array.of_list (Tuple.to_list tuple))))
