open Conddep_relational
open Conddep_sat

(* Exact consistency analysis for CFDs ([9]; reviewed in Section 4).

   A set of CFDs on relation R is satisfiable by a nonempty instance iff it
   is satisfiable by a single-tuple instance: CFD satisfaction is preserved
   under sub-instances, so any tuple of a satisfying instance is itself a
   one-tuple witness.  Consistency therefore reduces to the satisfiability
   of one tuple — NP-complete with finite domains (Example 3.2), quadratic
   without (Table 2) — which Section 5.2 encodes as CNF; the CDCL core
   decides it.  [Cfd_implication] solves two copies of the same
   encoding. *)

(* Per-attribute candidate values: the constants [cfds] name on the
   attribute, plus up to [unnamed] values they do not name.  An unnamed
   value occurs in no clause, so any one of them stands for all the others
   and the encoding stays equisatisfiable with the whole domain.  The
   first unnamed value is the first domain value outside the named
   constants and [avoid] (for an infinite domain, a fresh value), or else
   the first unnamed one; each further one also differs from those before
   it, and a finite attribute runs out when its domain does.  [avoid]
   carries the constants of the wider Σ (e.g. CIND patterns), so that
   where the domain allows, the unnamed value matches no pattern
   elsewhere.  Validated CFDs name only domain values. *)
let candidates ~unnamed ~avoid cfds rel_schema =
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
      let rec unnamed_values taken n =
        if n = 0 then []
        else
          let next =
            match Domain.fresh dom ~avoid:(taken @ avoid) with
            | Some _ as v -> v
            | None -> Domain.fresh dom ~avoid:taken
          in
          match next with
          | Some v -> v :: unnamed_values (v :: taken) (n - 1)
          | None -> []
      in
      Array.of_list (consts @ unnamed_values consts unnamed))
    (Array.of_list (Schema.attrs rel_schema))

type vars = { rel_schema : Schema.t; cands : Value.t array array; offsets : int array; width : int }

let vars ~unnamed ~avoid cfds rel_schema =
  let cands = candidates ~unnamed ~avoid cfds rel_schema in
  let offsets = Array.make (Array.length cands) 0 in
  let width = ref 0 in
  Array.iteri
    (fun i c ->
      offsets.(i) <- !width;
      width := !width + Array.length c)
    cands;
  { rel_schema; cands; offsets; width = !width }

let var v ~tuple pos i = (tuple * v.width) + v.offsets.(pos) + i + 1

let value_var v ~tuple attr value =
  let pos = Schema.position v.rel_schema attr in
  let c = v.cands.(pos) in
  let rec go i = if Value.equal c.(i) value then var v ~tuple pos i else go (i + 1) in
  go 0

(* One tuple's clauses: exactly one candidate per attribute, and per CFD
   (X -> A, (tx || a)) the clause ¬tx[X1] ∨ ... ∨ x_{A,a}.  Every constant
   of the CFDs is a candidate of its attribute, so each clause names
   existing variables. *)
let tuple_clauses v ~tuple cfds clauses =
  let clauses = ref clauses in
  Array.iteri
    (fun pos c ->
      let n = Array.length c in
      clauses := List.init n (fun i -> var v ~tuple pos i) :: !clauses;
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          clauses := [ -var v ~tuple pos i; -var v ~tuple pos j ] :: !clauses
        done
      done)
    v.cands;
  (* a wildcard RHS is met by any single tuple *)
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
                | Pattern.Const c -> -value_var v ~tuple attr c :: acc)
              [] nf.nf_x nf.nf_tx
          in
          clauses := (value_var v ~tuple nf.nf_a a :: negs) :: !clauses)
    cfds;
  !clauses

let decode v model ~tuple =
  Tuple.make
    (Array.to_list
       (Array.mapi
          (fun pos c ->
            let rec find i = if model.(var v ~tuple pos i) then c.(i) else find (i + 1) in
            find 0)
          v.cands))

let witness_tuple ?(avoid = []) schema ~rel sigma =
  let rel_schema = Db_schema.find schema rel in
  let cfds = List.filter (fun nf -> String.equal nf.Cfd.nf_rel rel) sigma in
  let cnf, v =
    Telemetry.with_span "sat.encode" (fun () ->
        let v = vars ~unnamed:1 ~avoid cfds rel_schema in
        (Cnf.make ~num_vars:v.width (tuple_clauses v ~tuple:0 cfds []), v))
  in
  match Solver.solve cnf with
  | Solver.Unknown r ->
      (* [None] means "definitely inconsistent" to callers (preProcessing
         prunes the relation on it) — an undetermined SAT answer must never
         be collapsed into it. *)
      raise (Guard.Exhausted r)
  | Solver.Unsat -> None
  | Solver.Sat model -> Some (decode v model ~tuple:0)

let consistent_rel schema ~rel sigma = Option.is_some (witness_tuple schema ~rel sigma)
