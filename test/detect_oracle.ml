open Conddep_relational
open Conddep_core
open Conddep_cleaning

(* The reference violation detector, chosen for being obviously correct
   rather than fast: every pair of tuples per CFD ([Cfd.nf_violations]) and
   the relational anti-join per CIND (the SQL detection query of [9]).
   Differential tests hold [Fast_detect] to it list for list, order
   included, and [Repair]'s loops to the ones below. *)

(* Triggering LHS tuples minus those with a partner in the
   pattern-restricted RHS relation, ascending. *)
let cind_violations db (nf : Cind.nf) =
  let schema = Database.schema db in
  let r1 = Db_schema.find schema nf.Cind.nf_lhs in
  let r2 = Db_schema.find schema nf.nf_rhs in
  let select r cells rel =
    Algebra.select_pattern r (List.map fst cells)
      (List.map (fun (_, v) -> Pattern.Const v) cells)
      rel
  in
  let triggering = select r1 nf.nf_xp (Database.relation db nf.nf_lhs) in
  let restricted = select r2 nf.nf_yp (Database.relation db nf.nf_rhs) in
  let lpos = List.map (Schema.position r1) nf.nf_x in
  let rpos = List.map (Schema.position r2) nf.nf_y in
  Relation.tuples (Algebra.anti_join triggering ~lpos restricted ~rpos)

let detect db (sigma : Sigma.nf) =
  List.concat_map
    (fun nf ->
      List.map
        (fun (t1, t2) ->
          Violation.Cfd_violation
            { constraint_name = nf.Cfd.nf_name; rel = nf.nf_rel; nf; t1; t2 })
        (Cfd.nf_violations db nf))
    sigma.Sigma.ncfds
  @ List.concat_map
      (fun nf ->
        List.map
          (fun tuple ->
            Violation.Cind_violation
              { constraint_name = nf.Cind.nf_name; lhs = nf.nf_lhs; rhs = nf.nf_rhs; nf; tuple })
          (cind_violations db nf))
      sigma.Sigma.ncinds

let is_clean db sigma = detect db sigma = []

(* Violation lists equal element by element, order included.  Tuples are
   abstract, so they are compared with [Tuple.equal], not [=];
   [nf] physically, since every detector copies it out of the same Σ. *)
let same_violations =
  List.equal (fun a b ->
      match (a, b) with
      | Violation.Cfd_violation a, Violation.Cfd_violation b ->
          a.nf == b.nf && Tuple.equal a.t1 b.t1 && Tuple.equal a.t2 b.t2
      | Cind_violation a, Cind_violation b -> a.nf == b.nf && Tuple.equal a.tuple b.tuple
      | _ -> false)

(* [Repair.repair] and [Repair.repair_min_cost] spelled out over this
   detector: test for cleanliness, then detect again and fix in order. *)
let repair ?(max_rounds = 5) schema sigma db =
  let fix db v = List.fold_left Repair.apply db (Repair.suggest schema v) in
  let rec go db round =
    if round >= max_rounds || is_clean db sigma then db
    else go (List.fold_left fix db (detect db sigma)) (round + 1)
  in
  go db 0

let repair_min_cost ?(max_rounds = 5) ?(costs = Repair.default_costs) schema sigma db =
  let plan_cost plan = List.fold_left (fun acc a -> acc + Repair.cost costs a) 0 plan in
  let fix (db, spent) v =
    match
      List.sort
        (fun p q -> Int.compare (plan_cost p) (plan_cost q))
        (List.filter (fun p -> p <> []) (Repair.alternatives schema v))
    with
    | [] -> (db, spent)
    | plan :: _ -> (List.fold_left Repair.apply db plan, spent + plan_cost plan)
  in
  let rec go db total round =
    if round >= max_rounds || is_clean db sigma then (db, total)
    else
      let db, total = List.fold_left fix (db, total) (detect db sigma) in
      go db total (round + 1)
  in
  go db 0 0
