open Conddep_relational

(* Exact decision procedure for CIND implication (Σ |= ψ), Theorems 3.4 and
   3.5.

   The procedure decides semantically whether a counterexample model exists:
   an instance satisfying Σ, containing a generic tuple t1 that triggers ψ,
   but containing no witness tuple for ψ.  Tuples are abstracted to *shapes*
   whose fields are:

     - [Mark j]  — the (fresh, pairwise-distinct) value of t1[X_j];
     - [Cst v]   — a concrete constant;
     - [Anon]    — a fresh value distinct from every constant and mark.

   Within a single shape all [Anon] fields denote pairwise-distinct values
   (tuple creation only copies from distinct positions), and anonymous
   values never flow into tested positions, so shapes are a sound and
   complete abstraction: pattern tests only compare against constants, the
   witness test only against marks and constants.

   A counterexample exists iff some set S of shapes is (a) witness-free,
   (b) contains a start shape for t1, and (c) closed: for every s ∈ S and
   every σ ∈ Σ applicable to s, some s' ∈ S satisfies σ's inclusion
   requirement on s.  Free finite-domain fields of created tuples are
   chosen by the counterexample builder, so closure is an AND (over σ) of
   an OR (over choices) — the alternation that makes the general problem
   EXPTIME-complete.  We compute the greatest fixpoint of the induced
   operator on the reachable shape space.  Without finite-domain attributes
   every creation is deterministic and the analysis degenerates into plain
   reachability, mirroring the PSPACE result of Theorem 3.5. *)

exception Budget_exceeded

type field =
  | Mark of int
  | Cst of Value.t
  | Anon

let field_equal f g =
  match f, g with
  | Mark i, Mark j -> i = j
  | Cst v, Cst w -> Value.equal v w
  | Anon, Anon -> true
  | (Mark _ | Cst _ | Anon), _ -> false

type state = { srel : string; fields : field array }

let state_equal s t =
  String.equal s.srel t.srel
  && Array.length s.fields = Array.length t.fields
  && Array.for_all2 field_equal s.fields t.fields

let state_hash s = Hashtbl.hash (s.srel, Array.to_list s.fields)

module State_tbl = Hashtbl.Make (struct
  type t = state

  let equal = state_equal
  let hash = state_hash
end)

(* A compiled CIND of Σ: attribute references resolved to positions.
   [c_nf] keeps the source normal form so read-set recording can report
   which members of Σ the search actually resolved with. *)
type compiled = {
  c_nf : Cind.nf;
  c_lhs : string;
  c_rhs : string;
  c_rhs_arity : int;
  c_xp : (int * Value.t) list; (* trigger tests on the LHS *)
  c_copy : (int * int) list; (* (lhs position of X_i, rhs position of Y_i) *)
  c_yp : (int * Value.t) list; (* constants forced on the RHS *)
  c_free_finite : (int * Value.t list) list; (* builder-chosen RHS fields *)
  c_free_infinite : int list;
}

let compile schema (nf : Cind.nf) =
  let r1 = Db_schema.find schema nf.Cind.nf_lhs in
  let r2 = Db_schema.find schema nf.nf_rhs in
  let xp = List.map (fun (a, v) -> (Schema.position r1 a, v)) nf.nf_xp in
  let copy =
    List.map2
      (fun a b -> (Schema.position r1 a, Schema.position r2 b))
      nf.nf_x nf.nf_y
  in
  let yp = List.map (fun (b, v) -> (Schema.position r2 b, v)) nf.nf_yp in
  let determined =
    List.map snd copy @ List.map fst yp
  in
  let free_finite = ref [] and free_infinite = ref [] in
  List.iteri
    (fun pos attr ->
      if not (List.mem pos determined) then
        match Domain.values (Attribute.domain attr) with
        | Some vs -> free_finite := (pos, vs) :: !free_finite
        | None -> free_infinite := pos :: !free_infinite)
    (Schema.attrs r2);
  {
    c_nf = nf;
    c_lhs = nf.nf_lhs;
    c_rhs = nf.nf_rhs;
    c_rhs_arity = Schema.arity r2;
    c_xp = xp;
    c_copy = copy;
    c_yp = yp;
    c_free_finite = !free_finite;
    c_free_infinite = !free_infinite;
  }

let applicable c s =
  String.equal c.c_lhs s.srel
  && List.for_all (fun (pos, v) -> field_equal s.fields.(pos) (Cst v)) c.c_xp

(* The inclusion requirement σ places on s: fields a witness must carry. *)
let requirement c s =
  List.map (fun (xpos, ypos) -> (ypos, s.fields.(xpos))) c.c_copy
  @ List.map (fun (pos, v) -> (pos, Cst v)) c.c_yp

let satisfies_requirement rhs req s' =
  String.equal s'.srel rhs
  && List.for_all (fun (pos, f) -> field_equal s'.fields.(pos) f) req

(* All shapes the builder may create to discharge σ on s: the required
   fields are fixed, free infinite fields are fresh, free finite fields
   range over their domains (the first free field varies slowest).  The
   product is enumerated lazily: it can be exponential in the number of
   free fields, and the search must reach its [Guard.tick] and
   [max_states] checks after each child rather than after building them
   all. *)
let children c s =
  let base = Array.make c.c_rhs_arity Anon in
  List.iter (fun (pos, f) -> base.(pos) <- f) (requirement c s);
  let rec expand fields = function
    | [] -> Seq.return { srel = c.c_rhs; fields }
    | (pos, vs) :: rest ->
        Seq.flat_map
          (fun v ->
            let f = Array.copy fields in
            f.(pos) <- Cst v;
            expand f rest)
          (List.to_seq vs)
  in
  expand base c.c_free_finite

(* Enumerate t1's start shapes: marks (or finite-domain choices) on ψ's X,
   ψ's Xp constants, and fresh (or chosen) values elsewhere.  Each start
   shape comes with the field values of t1[X], needed by the witness test. *)
let start_shapes schema (psi : Cind.nf) ~budget =
  let r1 = Db_schema.find schema psi.Cind.nf_lhs in
  let arity = Schema.arity r1 in
  let x_positions = List.map (Schema.position r1) psi.nf_x in
  let xp = List.map (fun (a, v) -> (Schema.position r1 a, v)) psi.nf_xp in
  let slots =
    List.init arity (fun pos ->
        let attr = Schema.attr r1 pos in
        match List.find_index (fun p -> p = pos) x_positions with
        | Some j -> (
            match Domain.values (Attribute.domain attr) with
            | Some vs -> List.map (fun v -> (pos, Cst v, Some (j, Cst v))) vs
            | None -> [ (pos, Mark j, Some (j, Mark j)) ])
        | None -> (
            match List.assoc_opt pos xp with
            | Some v -> [ (pos, Cst v, None) ]
            | None -> (
                match Domain.values (Attribute.domain attr) with
                | Some vs -> List.map (fun v -> (pos, Cst v, None)) vs
                | None -> [ (pos, Anon, None) ])))
  in
  let count = List.fold_left (fun acc l -> acc * List.length l) 1 slots in
  if count > budget then raise Budget_exceeded;
  (* straightforward cartesian product over the slots *)
  let rec go prefixes = function
    | [] -> List.map List.rev prefixes
    | slot :: rest ->
        go (List.concat_map (fun p -> List.map (fun c -> c :: p) slot) prefixes) rest
  in
  let combos = go [ [] ] slots in
  List.map
    (fun combo ->
      let fields = Array.make arity Anon in
      let xvals = Array.make (List.length psi.nf_x) Anon in
      List.iter
        (fun (pos, f, xinfo) ->
          fields.(pos) <- f;
          match xinfo with Some (j, xf) -> xvals.(j) <- xf | None -> ())
        combo;
      ({ srel = psi.nf_lhs; fields }, xvals))
    combos

(* Witness test for a given start: a shape of ψ's RHS relation agreeing
   with t1[X] on Y and with ψ's Yp constants. *)
let is_witness schema (psi : Cind.nf) ~xvals =
  let r2 = Db_schema.find schema psi.Cind.nf_rhs in
  let y_positions = List.map (Schema.position r2) psi.nf_y in
  let yp = List.map (fun (b, v) -> (Schema.position r2 b, v)) psi.nf_yp in
  fun s ->
    String.equal s.srel psi.nf_rhs
    && List.for_all2
         (fun pos j -> field_equal s.fields.(pos) xvals.(j))
         y_positions
         (List.init (Array.length xvals) Fun.id)
    && List.for_all (fun (pos, v) -> field_equal s.fields.(pos) (Cst v)) yp

(* Does a counterexample model exist from this start shape?  Greatest
   fixpoint over the reachable shape space.  The shared budget is ticked
   per explored shape (reachability) and per scanned state (fixpoint), and
   polled without spending fuel per already-visited child, so a deadline
   cuts even an exponentially exploding search promptly. *)
let counterexample_from schema compiled psi ~budget ~max_states ~recorder
    (start, xvals) =
  let witness = is_witness schema psi ~xvals in
  let visited = State_tbl.create 256 in
  let queue = Queue.create () in
  let push s =
    if State_tbl.mem visited s then Guard.tick ~cost:0 budget
    else begin
      Guard.tick budget;
      (* The read set: every relation whose shapes the search explores,
         and (below) every CIND found applicable to one of them.  A CIND
         whose LHS relation never appears among the explored shapes can
         neither create children nor constrain the fixpoint, so edits to
         it cannot change this derivation. *)
      Read_set.record_rel recorder s.srel;
      State_tbl.replace visited s ();
      if State_tbl.length visited > max_states then raise Budget_exceeded;
      Queue.push s queue
    end
  in
  push start;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    List.iter
      (fun c ->
        if applicable c s then begin
          Read_set.record_cind recorder c.c_nf;
          Seq.iter push (children c s)
        end)
      compiled
  done;
  (* alive = candidate members of a witness-free closed set *)
  let alive = State_tbl.create (State_tbl.length visited) in
  State_tbl.iter (fun s () -> if not (witness s) then State_tbl.replace alive s ()) visited;
  let requirement_met c s =
    let req = requirement c s in
    State_tbl.fold
      (fun s' () found -> found || satisfies_requirement c.c_rhs req s')
      alive false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let dead = ref [] in
    State_tbl.iter
      (fun s () ->
        Guard.tick budget;
        if
          List.exists (fun c -> applicable c s && not (requirement_met c s)) compiled
        then dead := s :: !dead)
      alive;
    if !dead <> [] then begin
      changed := true;
      List.iter (State_tbl.remove alive) !dead
    end
  done;
  State_tbl.mem alive start

(* --- three-valued interface ------------------------------------------------ *)

type outcome = Implied | Not_implied | Undetermined of Guard.reason

let pp_outcome ppf = function
  | Implied -> Fmt.string ppf "implied"
  | Not_implied -> Fmt.string ppf "not implied"
  | Undetermined r -> Fmt.pf ppf "undetermined (%s)" (Guard.reason_to_string r)

(* The core decision against an already-canonicalised, already-compiled Σ
   — the shareable part of the work; [implies_many] compiles once and
   runs this per goal.  [Budget_exceeded] (the local [max_states] cap) is
   the procedure's own give-up, reported as [Undetermined Fuel]. *)
let decide_compiled_core ~budget ~max_states ~recorder schema compiled psi =
  match
    let psi = Cind.canon_nf psi in
    let starts = start_shapes schema psi ~budget:max_states in
    List.exists
      (counterexample_from schema compiled psi ~budget ~max_states ~recorder)
      starts
  with
  | true -> Not_implied
  | false -> Implied
  | exception Budget_exceeded -> Undetermined Guard.Fuel
  | exception Guard.Exhausted r -> Undetermined r

(* Public form for callers that hold a compiled Σ across many goals (the
   incremental session's warm-start cache); spans like [decide]. *)
let decide_compiled ?budget ?(max_states = 50_000) ?recorder schema compiled
    psi =
  Telemetry.with_span "implication.implies" @@ fun () ->
  decide_compiled_core ~budget:(Guard.resolve budget) ~max_states ~recorder
    schema compiled psi

let decide ?budget ?(max_states = 50_000) schema ~sigma psi =
  Telemetry.with_span "implication.implies" @@ fun () ->
  let compiled = List.map (compile schema) (List.map Cind.canon_nf sigma) in
  decide_compiled_core ~budget:(Guard.resolve budget) ~max_states
    ~recorder:None schema compiled psi

let implies_many ?budget ?(max_states = 50_000) schema ~sigma goals =
  Telemetry.with_span "implication.implies_many" @@ fun () ->
  let budget = Guard.resolve budget in
  (* The shared pass: Σ is canonicalised and compiled exactly once for
     the whole batch. *)
  let compiled = List.map (compile schema) (List.map Cind.canon_nf sigma) in
  List.map
    (decide_compiled_core ~budget ~max_states ~recorder:None schema compiled)
    goals

(* --- finite-domain-free restriction ---------------------------------------- *)

let check_infinite schema ~sigma psi =
  let attrs_infinite rel names =
    let r = Db_schema.find schema rel in
    List.for_all (fun a -> not (Domain.is_finite (Schema.domain_of r a))) names
  in
  let check (nf : Cind.nf) =
    attrs_infinite nf.Cind.nf_lhs (nf.nf_x @ List.map fst nf.nf_xp)
    && attrs_infinite nf.nf_rhs (nf.nf_y @ List.map fst nf.nf_yp)
    &&
    (* creation must not touch finite fields either *)
    attrs_infinite nf.nf_rhs
      (let r2 = Db_schema.find schema nf.nf_rhs in
       Schema.attr_names r2)
    && attrs_infinite nf.nf_lhs
         (let r1 = Db_schema.find schema nf.nf_lhs in
          Schema.attr_names r1)
  in
  if not (List.for_all check (psi :: sigma)) then
    invalid_arg
      "Implication.decide_infinite: constraints involve finite-domain attributes"

let decide_infinite ?budget ?max_states schema ~sigma psi =
  check_infinite schema ~sigma psi;
  decide ?budget ?max_states schema ~sigma psi
