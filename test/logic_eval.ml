open Conddep_relational
open Conddep_core
open Logic

(* Guarded evaluation of the first-order readings that [Logic] builds:
   the oracle the FO-readings tests compare [Cind.nf_holds] and
   [Cfd.nf_holds] against.  It shares no code with the satisfaction
   scans of lib/. *)

(* Environments bind variables to values. *)
module Env = Map.Make (String)

let eval_term env = function
  | Const v -> Some v
  | Var x -> Env.find_opt x env

(* Bind the quantified variables of a guard atom R(t̄) to one of R's
   tuples; [None] when the tuple contradicts already-bound terms. *)
let bind_guard env terms tuple =
  let rec go env terms values =
    match terms, values with
    | [], [] -> Some env
    | Var x :: ts, v :: vs -> (
        match Env.find_opt x env with
        | None -> go (Env.add x v env) ts vs
        | Some w -> if Value.equal v w then go env ts vs else None)
    | Const c :: ts, v :: vs -> if Value.equal c v then go env ts vs else None
    | _, _ -> None
  in
  go env terms (Tuple.to_list tuple)

(* Evaluation is guarded: every quantifier block in the formulas Logic
   builds starts with a relation atom over exactly the quantified
   variables, so quantifiers iterate over that relation's tuples rather
   than over a value domain. *)
let rec eval db env = function
  | Atom (Eq (t1, t2)) -> (
      match eval_term env t1, eval_term env t2 with
      | Some v1, Some v2 -> Value.equal v1 v2
      | _, _ -> false)
  | Atom (Rel (rel, terms)) -> (
      let r = Database.relation db rel in
      match List.map (eval_term env) terms with
      | values when List.for_all Option.is_some values ->
          Relation.mem r (Tuple.make (List.map Option.get values))
      | _ -> false)
  | And fs -> List.for_all (eval db env) fs
  | Implies (p, q) -> (not (eval db env p)) || eval db env q
  | Forall (vs, Implies (And (Atom (Rel (r1, ts1)) :: Atom (Rel (r2, ts2)) :: conds), concl))
    ->
      ignore vs;
      Relation.for_all
        (fun tu1 ->
          match bind_guard env ts1 tu1 with
          | None -> true
          | Some env ->
              Relation.for_all
                (fun tu2 ->
                  match bind_guard env ts2 tu2 with
                  | None -> true
                  | Some env ->
                      (not (List.for_all (eval db env) conds)) || eval db env concl)
                (Database.relation db r2))
        (Database.relation db r1)
  | Forall (vs, Implies (And (Atom (Rel (rel, terms)) :: conds), concl)) ->
      ignore vs;
      Relation.for_all
        (fun tuple ->
          match bind_guard env terms tuple with
          | None -> true
          | Some env ->
              (not (List.for_all (eval db env) conds)) || eval db env concl)
        (Database.relation db rel)
  | Exists (vs, And (Atom (Rel (rel, terms)) :: conds)) ->
      ignore vs;
      Relation.exists
        (fun tuple ->
          match bind_guard env terms tuple with
          | None -> false
          | Some env -> List.for_all (eval db env) conds)
        (Database.relation db rel)
  | Forall _ | Exists _ ->
      invalid_arg "Logic_eval.eval: unguarded quantifier (not produced by Logic)"

let holds db f = eval db Env.empty f
