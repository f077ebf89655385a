open Conddep_relational
open Conddep_core

(* Exact CFD consistency by a whole-domain single-tuple search, the
   oracle the CNF encoding of [Cfd_consistency] is tested against.  It
   shares no code with the encoder: its candidates are whole finite
   domains, and it searches by backtracking with unit propagation.

   A set of CFDs on relation R is satisfiable by a nonempty instance iff it
   is satisfiable by a single-tuple instance: CFD satisfaction is preserved
   under sub-instances, so any tuple of a satisfying instance is itself a
   one-tuple witness.  Consistency therefore reduces to a constraint-
   satisfaction problem over one tuple — NP-complete with finite domains
   (Example 3.2), quadratic without (Table 2).

   Candidate values per attribute: the whole domain when finite; otherwise
   the constants Σ mentions on that attribute plus one fresh value (a tuple
   can always dodge patterns on an infinite domain). *)

exception Budget_exceeded

(* [fresh] fresh values per infinite-domain attribute: one lets a single
   tuple dodge every pattern; implication's pairs need two, so that the
   tuples can agree or differ off the patterns. *)
let candidates ~fresh sigma rel_schema =
  Array.map
    (fun attr ->
      let name = Attribute.name attr in
      match Domain.values (Attribute.domain attr) with
      | Some vs -> vs
      | None ->
          let consts =
            List.concat_map
              (fun nf ->
                List.filter_map
                  (fun (a, v) -> if String.equal a name then Some v else None)
                  (Cfd.nf_constants nf))
              sigma
            |> List.sort_uniq Value.compare
          in
          List.fold_left
            (fun vs _ -> vs @ Option.to_list (Domain.fresh (Attribute.domain attr) ~avoid:vs))
            consts (List.init fresh Fun.id))
    (Array.of_list (Schema.attrs rel_schema))

(* One compiled normal-form CFD: positions instead of names. *)
type compiled = { k_tx : (int * Pattern.cell) list; k_a : int; k_ta : Pattern.cell }

let compile rel_schema (nf : Cfd.nf) =
  {
    k_tx =
      List.map2 (fun a c -> (Schema.position rel_schema a, c)) nf.Cfd.nf_x nf.nf_tx;
    k_a = Schema.position rel_schema nf.nf_a;
    k_ta = nf.nf_ta;
  }

(* A single tuple t satisfies (X -> A, tp) iff t[X] ≍ tp[X] implies
   t[A] ≍ tp[A] (the pair (t, t) trivially agrees everywhere). *)
let tuple_ok compiled (assignment : Value.t option array) =
  List.for_all
    (fun k ->
      let lhs_status =
        (* true: matches; false: fails; unknown if any cell unassigned *)
        List.fold_left
          (fun acc (pos, cell) ->
            match acc, assignment.(pos) with
            | Some false, _ -> Some false
            | _, None -> None
            | Some true, Some v -> if Pattern.match_cell v cell then Some true else Some false
            | None, Some _ -> None)
          (Some true) k.k_tx
      in
      match lhs_status with
      | Some false | None -> true (* not (yet) triggered: no constraint *)
      | Some true -> (
          match k.k_ta, assignment.(k.k_a) with
          | Pattern.Wildcard, _ -> true
          | Pattern.Const _, None -> true (* propagation will force it *)
          | Pattern.Const c, Some v -> Value.equal v c))
    compiled

(* Unit propagation: a triggered CFD with a constant RHS forces its
   attribute.  Returns [None] on contradiction. *)
let propagate compiled (assignment : Value.t option array) =
  let changed = ref true in
  let ok = ref true in
  while !ok && !changed do
    changed := false;
    List.iter
      (fun k ->
        let triggered =
          List.for_all
            (fun (pos, cell) ->
              match assignment.(pos) with
              | Some v -> Pattern.match_cell v cell
              | None -> false)
            k.k_tx
        in
        if triggered then
          match k.k_ta with
          | Pattern.Wildcard -> ()
          | Pattern.Const c -> (
              match assignment.(k.k_a) with
              | None ->
                  assignment.(k.k_a) <- Some c;
                  changed := true
              | Some v -> if not (Value.equal v c) then ok := false))
      compiled
  done;
  !ok

let witness_tuple ?(max_nodes = 2_000_000) schema ~rel sigma =
  let rel_schema = Db_schema.find schema rel in
  let sigma = List.filter (fun nf -> String.equal nf.Cfd.nf_rel rel) sigma in
  let cands = candidates ~fresh:1 sigma rel_schema in
  let compiled = List.map (compile rel_schema) sigma in
  let arity = Schema.arity rel_schema in
  let nodes = ref 0 in
  let rec search (assignment : Value.t option array) =
    incr nodes;
    if !nodes > max_nodes then raise Budget_exceeded;
    Guard.tick ();
    let snapshot = Array.copy assignment in
    if not (propagate compiled assignment) then begin
      Array.blit snapshot 0 assignment 0 arity;
      None
    end
    else if not (tuple_ok compiled assignment) then begin
      Array.blit snapshot 0 assignment 0 arity;
      None
    end
    else
      let rec next_unassigned i =
        if i >= arity then None else if assignment.(i) = None then Some i else next_unassigned (i + 1)
      in
      match next_unassigned 0 with
      | None -> Some (Tuple.make (List.map Option.get (Array.to_list assignment)))
      | Some pos ->
          let rec try_values = function
            | [] ->
                Array.blit snapshot 0 assignment 0 arity;
                None
            | v :: vs -> (
                assignment.(pos) <- Some v;
                match search assignment with
                | Some _ as r -> r
                | None ->
                    assignment.(pos) <- None;
                    try_values vs)
          in
          try_values cands.(pos)
  in
  search (Array.make arity None)

let consistent_rel ?max_nodes schema ~rel sigma =
  Option.is_some (witness_tuple ?max_nodes schema ~rel sigma)

(* A CFD-only Σ over a whole schema is consistent iff some relation can be
   nonempty: empty relations vacuously satisfy their CFDs, and CFDs never
   relate distinct relations. *)
let consistent ?max_nodes schema sigma =
  List.exists
    (fun r -> consistent_rel ?max_nodes schema ~rel:(Schema.name r) sigma)
    (Db_schema.relations schema)

(* CFD implication by enumeration, sharing nothing with the CNF encoding
   of [Cfd_implication]: Σ ⊭ φ iff an instance of at most two tuples
   satisfies Σ and violates φ, so try every pair of tuples over whole
   finite domains and, on infinite attributes, over the constants of Σ
   and φ plus two fresh values, checking Σ and φ on the pair's instance
   with [Cfd.nf_violations]. *)
let implies schema ~sigma (phi : Cfd.nf) =
  let rel = phi.Cfd.nf_rel in
  let sigma = List.filter (fun nf -> String.equal nf.Cfd.nf_rel rel) sigma in
  let cands = candidates ~fresh:2 (phi :: sigma) (Db_schema.find schema rel) in
  let tuples =
    Array.fold_right
      (fun vs suffixes -> List.concat_map (fun v -> List.map (fun s -> v :: s) suffixes) vs)
      cands [ [] ]
    |> List.map Tuple.make
  in
  let counterexample t1 t2 =
    let db =
      Database.add_tuple (Database.add_tuple (Database.empty schema) rel t1) rel t2
    in
    Cfd.nf_violations db phi <> []
    && List.for_all (fun nf -> Cfd.nf_violations db nf = []) sigma
  in
  let rec no_pair = function
    | [] -> true
    | t1 :: rest ->
        (not (List.exists (counterexample t1) (t1 :: rest))) && no_pair rest
  in
  no_pair tuples
