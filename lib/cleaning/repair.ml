open Conddep_relational
open Conddep_core

(* Repair suggestions for detected violations, in the spirit of the
   value-modification repairs of Bohannon et al. [8] (cited by the paper as
   the standard constraint-repair setting):

   - a single-tuple CFD violation (t matches tp[X] but t[A] ≠ a) is fixed
     by updating t[A] to the pattern constant;
   - a pair violation on a wildcard RHS is fixed by copying t1[A] into t2;
   - a CIND violation is fixed by inserting the missing RHS tuple (its
     unconstrained fields filled by a caller-supplied default). *)

type action =
  | Update of { rel : string; tuple : Tuple.t; attr : string; value : Value.t }
  | Insert of { rel : string; tuple : Tuple.t }
  | Delete of { rel : string; tuple : Tuple.t }

let pp_action ppf = function
  | Update { rel; tuple; attr; value } ->
      Fmt.pf ppf "@[<h>update %s %a: set %s := %a@]" rel Tuple.pp tuple attr Value.pp
        value
  | Insert { rel; tuple } -> Fmt.pf ppf "@[<h>insert %a into %s@]" Tuple.pp tuple rel
  | Delete { rel; tuple } -> Fmt.pf ppf "@[<h>delete %a from %s@]" Tuple.pp tuple rel

(* Default values for the fields a CIND repair cannot derive. *)
let default_field attr =
  match Domain.values (Attribute.domain attr) with
  | Some (v :: _) -> v
  | _ -> Value.Str "?"

let suggest schema violation =
  match violation with
  | Violation.Cfd_violation { rel; nf; t1; t2; _ } -> (
      let r = Db_schema.find schema rel in
      let apos = Schema.position r nf.Cfd.nf_a in
      match nf.nf_ta with
      | Pattern.Const a when not (Value.equal (Tuple.get t1 apos) a) ->
          [ Update { rel; tuple = t1; attr = nf.nf_a; value = a } ]
      | Pattern.Const a -> [ Update { rel; tuple = t2; attr = nf.nf_a; value = a } ]
      | Pattern.Wildcard ->
          (* equate the pair on A by copying the first tuple's value *)
          [ Update { rel; tuple = t2; attr = nf.nf_a; value = Tuple.get t1 apos } ])
  | Violation.Cind_violation { rhs; nf; tuple; _ } ->
      let r1 = Db_schema.find schema nf.Cind.nf_lhs in
      let r2 = Db_schema.find schema rhs in
      let fields =
        List.map
          (fun attr ->
            let name = Attribute.name attr in
            match List.assoc_opt name nf.nf_yp with
            | Some v -> v
            | None -> (
                (* copy through the embedded inclusion when possible *)
                match
                  List.find_opt (fun (_, b) -> String.equal b name)
                    (List.combine nf.nf_x nf.nf_y)
                with
                | Some (a, _) -> Tuple.get tuple (Schema.position r1 a)
                | None -> default_field attr))
          (Schema.attrs r2)
      in
      [ Insert { rel = rhs; tuple = Tuple.make fields } ]

let apply db action =
  match action with
  | Insert { rel; tuple } -> Database.add_tuple db rel tuple
  | Delete { rel; tuple } ->
      let r = Database.relation db rel in
      Database.set_relation db (Relation.filter (fun t -> not (Tuple.equal t tuple)) r)
  | Update { rel; tuple; attr; value } ->
      let r = Database.relation db rel in
      let pos = Schema.position (Relation.schema r) attr in
      let updated = Tuple.set tuple pos value in
      let without = Relation.filter (fun t -> not (Tuple.equal t tuple)) r in
      Database.set_relation db (Relation.add without updated)

(* One repair round: suggest and apply a fix for every violation, in
   detection order (a fix may touch a tuple an earlier fix already rewrote,
   so order matters).  Fixes can surface new violations, hence rounds. *)
let fix_all schema db violations =
  List.fold_left (fun db v -> List.fold_left apply db (suggest schema v)) db violations

(* Each round detects once: an empty violation list ends the loop. *)
let repair ?(max_rounds = 5) schema sigma db =
  let rec go db round =
    if round >= max_rounds then db
    else
      match Fast_detect.detect db sigma with
      | [] -> db
      | violations -> go (fix_all schema db violations) (round + 1)
  in
  go db 0

(* --- cost-based repair ----------------------------------------------------

   After the cost model of Bohannon et al. [8] (the repair framework the
   paper cites): every primitive action carries a cost, each violation
   offers alternative repair plans, and the cheapest plan is applied. *)

type cost_model = {
  update_cost : int; (* changing one field *)
  insert_cost : int; (* adding a missing partner tuple *)
  delete_cost : int; (* removing an offending tuple *)
}

(* [8]'s intuition: updates are preferred, deletions lose whole tuples. *)
let default_costs = { update_cost = 1; insert_cost = 3; delete_cost = 5 }

let cost model = function
  | Update _ -> model.update_cost
  | Insert _ -> model.insert_cost
  | Delete _ -> model.delete_cost

let plan_cost model plan = List.fold_left (fun acc a -> acc + cost model a) 0 plan

(* Alternative plans for one violation, each resolving it. *)
let alternatives schema violation =
  match violation with
  | Violation.Cfd_violation { rel; nf; t1; t2; _ } -> (
      let r = Db_schema.find schema rel in
      let apos = Schema.position r nf.Cfd.nf_a in
      match nf.nf_ta with
      | Pattern.Const a ->
          let fix t =
            if Value.equal (Tuple.get t apos) a then []
            else [ Update { rel; tuple = t; attr = nf.nf_a; value = a } ]
          in
          let updates = fix t1 @ if Tuple.equal t1 t2 then [] else fix t2 in
          [ updates; [ Delete { rel; tuple = t1 } ] ]
          @ if Tuple.equal t1 t2 then [] else [ [ Delete { rel; tuple = t2 } ] ]
      | Pattern.Wildcard ->
          [
            [ Update { rel; tuple = t2; attr = nf.nf_a; value = Tuple.get t1 apos } ];
            [ Update { rel; tuple = t1; attr = nf.nf_a; value = Tuple.get t2 apos } ];
            [ Delete { rel; tuple = t1 } ];
            [ Delete { rel; tuple = t2 } ];
          ])
  | Violation.Cind_violation { lhs; tuple; _ } ->
      [ suggest schema violation; [ Delete { rel = lhs; tuple } ] ]

(* Cheapest plan per violation, in detection order; returns the cost spent. *)
let fix_all_min_cost model schema db violations =
  List.fold_left
    (fun (db, total) v ->
      match
        List.sort
          (fun p q -> Int.compare (plan_cost model p) (plan_cost model q))
          (List.filter (fun p -> p <> []) (alternatives schema v))
      with
      | [] -> (db, total)
      | plan :: _ -> (List.fold_left apply db plan, total + plan_cost model plan))
    (db, 0) violations

let repair_min_cost ?(max_rounds = 5) ?(costs = default_costs) schema sigma db =
  let rec go db total round =
    if round >= max_rounds then (db, total)
    else
      match Fast_detect.detect db sigma with
      | [] -> (db, total)
      | violations ->
          let db, spent = fix_all_min_cost costs schema db violations in
          go db (total + spent) (round + 1)
  in
  go db 0 0
