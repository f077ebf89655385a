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
   reachability, mirroring the PSPACE result of Theorem 3.5; [witness_path]
   finds such a path, which [Proof_search] replays as a proof. *)

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

(* Fold every field into one int without allocating, then mix: a mark
   contributes its index, a constant its [Value.hash], [Anon] a fixed
   constant.  [Hashtbl.hash] alone reads only ~10 meaningful words, so
   shapes that differ past those collide. *)
let fields_hash h fields =
  let rec go h i =
    if i = Array.length fields then Hashtbl.hash h
    else
      let f =
        match fields.(i) with Mark j -> j | Cst v -> Value.hash v | Anon -> 0x2f5b
      in
      go ((h * 31) + f) (i + 1)
  in
  go h 0

let state_hash s = fields_hash (Hashtbl.hash s.srel) s.fields

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
  c_req : int array; (* RHS positions a requirement names: Y, then Yp *)
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
    c_req = Array.of_list determined;
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

(* Buckets of the fixpoint: a shape of c's RHS relation meets
   [requirement c s] iff its fields at [c_req] equal the requirement's
   fields, in the same order. *)
let bucket_key c s' = Array.map (fun pos -> s'.fields.(pos)) c.c_req
let requirement_key c s = Array.of_list (List.map snd (requirement c s))

module Bucket_tbl = Hashtbl.Make (struct
  type t = int * field array (* CIND index, required fields *)

  let equal (i, k) (j, l) = i = j && Array.for_all2 field_equal k l
  let hash (i, k) = fields_hash i k
end)

type bucket = { mutable live : int; mutable dependants : int list }

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
let start_shapes schema (psi : Cind.nf) ~max_states =
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
  if count > max_states then raise Budget_exceeded;
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

let m_shapes =
  Telemetry.counter "implication.shapes"
    ~doc:"shapes explored by exact CIND implication"

(* Does a counterexample model exist from this start shape?  Explore the
   reachable shape space breadth-first, numbering each shape (the start is
   0), then compute its greatest fixpoint by counting, after Liu & Smolka
   (ICALP 1998).  A shape depends on the bucket its requirement under
   each applicable CIND c names: c and the required fields.  A bucket
   keeps a live count of the non-witness shapes of c's RHS relation with
   those fields at c's required positions.  A shape dies when it is a
   witness or one of its buckets empties; a death decrements the buckets
   the shape is counted in, and a count reaching 0 kills that bucket's
   dependants.  Each shape dies at most once and each bucket empties at
   most once, so the fixpoint is linear in the shape graph (shapes × |Σ|).
   The ambient budget is ticked per explored shape, per shape seeded and
   per kill, and polled without spending fuel per already-visited child,
   so a deadline cuts even an exponentially exploding search promptly. *)
let counterexample_from schema compiled psi ~max_states ~recorder
    (start, xvals) =
  let visited = State_tbl.create 256 in
  let queue = Queue.create () in
  let push s =
    if State_tbl.mem visited s then Guard.tick ~cost:0 ()
    else begin
      Guard.tick ();
      (* The read set: every relation whose shapes the search explores,
         and (below) every CIND found applicable to one of them.  A CIND
         whose LHS relation never appears among the explored shapes can
         neither create children nor constrain the fixpoint, so edits to
         it cannot change this derivation. *)
      Read_set.record_rel recorder s.srel;
      State_tbl.replace visited s (State_tbl.length visited);
      Telemetry.incr m_shapes;
      if State_tbl.length visited > max_states then raise Budget_exceeded;
      Queue.push s queue
    end
  in
  Telemetry.with_span "implication.explore" (fun () ->
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
      done);
  Telemetry.with_span "implication.fixpoint" @@ fun () ->
  let n = State_tbl.length visited in
  let shapes = Array.make n start in
  State_tbl.iter (fun s i -> shapes.(i) <- s) visited;
  let witness = is_witness schema psi ~xvals in
  let compiled = Array.of_list compiled in
  let buckets = Bucket_tbl.create n in
  let bucket key =
    match Bucket_tbl.find_opt buckets key with
    | Some b -> b
    | None ->
        let b = { live = 0; dependants = [] } in
        Bucket_tbl.add buckets key b;
        b
  in
  (* dead.(i): shape i belongs to no witness-free closed set.  A witness
     is dead from the start and depends on nothing. *)
  let dead = Array.make n false in
  let used = Array.make (Array.length compiled) false in
  Array.iteri
    (fun i s ->
      Guard.tick ();
      if witness s then dead.(i) <- true
      else
        Array.iteri
          (fun ci c ->
            if applicable c s then begin
              used.(ci) <- true;
              let b = bucket (ci, requirement_key c s) in
              b.dependants <- i :: b.dependants
            end)
          compiled)
    shapes;
  (* Count the live shapes of each bucket some requirement names; the
     other shapes of c's RHS relation meet no requirement. *)
  let counted_in = Array.make n [] in
  Array.iteri
    (fun ci c ->
      if used.(ci) then
        Array.iteri
          (fun i s ->
            if (not dead.(i)) && String.equal c.c_rhs s.srel then
              match Bucket_tbl.find_opt buckets (ci, bucket_key c s) with
              | Some b ->
                  b.live <- b.live + 1;
                  counted_in.(i) <- b :: counted_in.(i)
              | None -> ())
          shapes)
    compiled;
  let work = ref [] in
  let kill i =
    if not dead.(i) then begin
      Guard.tick ();
      dead.(i) <- true;
      work := i :: !work
    end
  in
  Bucket_tbl.iter (fun _ b -> if b.live = 0 then List.iter kill b.dependants) buckets;
  let rec drain () =
    match !work with
    | i :: rest when not dead.(0) ->
        work := rest;
        List.iter
          (fun b ->
            b.live <- b.live - 1;
            if b.live = 0 then List.iter kill b.dependants)
          counted_in.(i);
        drain ()
    | _ -> ()
  in
  drain ();
  not dead.(0)

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
let decide_compiled_core ~max_states ~recorder schema compiled psi =
  match
    let psi = Cind.canon_nf psi in
    let starts = start_shapes schema psi ~max_states in
    List.exists
      (counterexample_from schema compiled psi ~max_states ~recorder)
      starts
  with
  | true -> Not_implied
  | false -> Implied
  | exception Budget_exceeded -> Undetermined Guard.Fuel
  | exception Guard.Exhausted r -> Undetermined r

(* Public form for callers that hold a compiled Σ across many goals (the
   incremental session's warm-start cache); spans like [decide]. *)
let decide_compiled ?(max_states = 50_000) ?recorder schema compiled psi =
  Telemetry.with_span "implication.implies" @@ fun () ->
  decide_compiled_core ~max_states ~recorder schema compiled psi

let decide ?(max_states = 50_000) schema ~sigma psi =
  Telemetry.with_span "implication.implies" @@ fun () ->
  let compiled = List.map (compile schema) (List.map Cind.canon_nf sigma) in
  decide_compiled_core ~max_states ~recorder:None schema compiled psi

let implies_many ?(max_states = 50_000) schema ~sigma goals =
  Telemetry.with_span "implication.implies_many" @@ fun () ->
  (* The shared pass: Σ is canonicalised and compiled exactly once for
     the whole batch. *)
  let compiled = List.map (compile schema) (List.map Cind.canon_nf sigma) in
  List.map
    (decide_compiled_core ~max_states ~recorder:None schema compiled)
    goals

(* --- a path to a witness (Theorem 3.5) ------------------------------------- *)

(* Breadth-first from ψ's first start shape, stopping at the first child
   that is a witness.  Unlike [counterexample_from], the start shape costs
   no tick and the [max_states] check precedes the insert. *)
let witness_path ?(max_states = 50_000) schema ~sigma psi =
  let psi = Cind.canon_nf psi in
  let compiled = List.map (compile schema) (List.map Cind.canon_nf sigma) in
  let start, xvals = List.hd (start_shapes schema psi ~max_states) in
  let witness = is_witness schema psi ~xvals in
  let visited = State_tbl.create 256 in
  let queue = Queue.create () in
  let exception Found of (Cind.nf * state) list in
  let visit path s =
    if State_tbl.mem visited s then Guard.tick ~cost:0 ()
    else begin
      Guard.tick ();
      if State_tbl.length visited > max_states then raise Budget_exceeded;
      State_tbl.replace visited s ();
      if witness s then raise (Found (List.rev path));
      Queue.push (s, path) queue
    end
  in
  if witness start then Some []
  else begin
    State_tbl.replace visited start ();
    Queue.push (start, []) queue;
    try
      while not (Queue.is_empty queue) do
        let s, path = Queue.pop queue in
        List.iter
          (fun c ->
            if applicable c s then
              Seq.iter (visit ((c.c_nf, s) :: path)) (children c s))
          compiled
      done;
      None
    with Found path -> Some path
  end
