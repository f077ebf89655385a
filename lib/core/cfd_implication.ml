open Conddep_relational
open Conddep_sat

(* Exact CFD implication (coNP-complete, [9]; Table 1).

   Σ ⊭ φ iff some model of Σ violates φ; since a violation involves at most
   two tuples and CFD satisfaction is closed under sub-instances, Σ ⊭ φ iff
   there is a TWO-tuple instance of φ's relation satisfying Σ's CFDs on
   that relation and violating φ.  (Σ's CFDs on other relations are
   satisfied by leaving those relations empty.)  The pair is two copies of
   [Cfd_consistency]'s single-tuple encoding, solved together by the CDCL
   core: Unsat proves the implication.

   Candidates are the constants φ and CFD(R) name plus two unnamed values
   per attribute.  A value that no CFD names matches no pattern, so only
   whether the two tuples agree on it matters, and two unnamed values
   realise both cases; a finite domain with fewer unnamed values allows no
   more pairs. *)

let decide schema ~sigma (phi : Cfd.nf) =
  Telemetry.with_span "cfd_implication.implies" @@ fun () ->
  let rel_schema = Db_schema.find schema phi.nf_rel in
  let sigma = List.filter (fun nf -> String.equal nf.Cfd.nf_rel phi.nf_rel) sigma in
  let v = Cfd_consistency.vars ~unnamed:2 ~avoid:[] (phi :: sigma) rel_schema in
  let t tuple attr c = Cfd_consistency.value_var v ~tuple attr c in
  (* e_B, true iff t1[B] = t2[B] *)
  let eq_at pos = (2 * v.width) + pos + 1 in
  let eq attr = eq_at (Schema.position rel_schema attr) in
  let equality =
    List.concat
      (List.mapi
         (fun pos c ->
           let e = eq_at pos in
           List.concat
             (List.init (Array.length c) (fun i ->
                  let x1 = Cfd_consistency.var v ~tuple:0 pos i
                  and x2 = Cfd_consistency.var v ~tuple:1 pos i in
                  [ [ -e; -x1; x2 ]; [ -x1; -x2; e ] ])))
         (Array.to_list v.cands))
  in
  (* the literals whose disjunction says t1[X] = t2[X] ≍ tp[X] fails *)
  let lhs_fails (nf : Cfd.nf) =
    List.concat
      (List.map2
         (fun b cell ->
           match cell with
           | Pattern.Wildcard -> [ -eq b ]
           | Pattern.Const c -> [ -t 0 b c; -t 1 b c ])
         nf.nf_x nf.nf_tx)
  in
  (* A wildcard-RHS CFD of Σ on the pair; a constant RHS needs no clause
     here, since each tuple's own clause forces it. *)
  let cross =
    List.filter_map
      (fun nf ->
        match nf.Cfd.nf_ta with
        | Pattern.Wildcard -> Some (eq nf.nf_a :: lhs_fails nf)
        | Pattern.Const _ -> None)
      sigma
  in
  let violated =
    match phi.nf_ta with
    | Pattern.Wildcard -> [ -eq phi.nf_a ]
    | Pattern.Const a -> [ -t 0 phi.nf_a a; -t 1 phi.nf_a a ]
  in
  let goal = violated :: List.map (fun l -> [ -l ]) (lhs_fails phi) in
  let clauses =
    Cfd_consistency.tuple_clauses v ~tuple:0 sigma
      (Cfd_consistency.tuple_clauses v ~tuple:1 sigma (equality @ cross @ goal))
  in
  match
    Solver.solve (Cnf.make ~num_vars:((2 * v.width) + Schema.arity rel_schema) clauses)
  with
  | Solver.Unsat -> Implication.Implied
  | Solver.Sat _ -> Implication.Not_implied
  | Solver.Unknown r -> Implication.Undetermined r
