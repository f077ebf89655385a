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

let pp_action ppf = function
  | Update { rel; tuple; attr; value } ->
      Fmt.pf ppf "@[<h>update %s %a: set %s := %a@]" rel Tuple.pp tuple attr Value.pp
        value
  | Insert { rel; tuple } -> Fmt.pf ppf "@[<h>insert %a into %s@]" Tuple.pp tuple rel

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
  | Update { rel; tuple; attr; value } ->
      let r = Database.relation db rel in
      let pos = Schema.position (Relation.schema r) attr in
      let updated = Tuple.set tuple pos value in
      let without = Relation.filter (fun t -> not (Tuple.equal t tuple)) r in
      Database.set_relation db (Relation.add without updated)

(* Is every tuple of [v] still in [db]?  An earlier fix of the same round
   may have rewritten one, and a fix of the stale violation would write
   back a copy of that tuple or copy its old value. *)
let current db = function
  | Violation.Cfd_violation { rel; t1; t2; _ } ->
      let r = Database.relation db rel in
      Relation.mem r t1 && Relation.mem r t2
  | Violation.Cind_violation { lhs; tuple; _ } -> Relation.mem (Database.relation db lhs) tuple

(* One repair round: suggest and apply a fix for every violation that is
   still current, in detection order.  Fixes can surface new violations,
   and a skipped one is detected again, hence rounds. *)
let fix_all schema db violations =
  List.fold_left
    (fun db v -> if current db v then List.fold_left apply db (suggest schema v) else db)
    db violations

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
