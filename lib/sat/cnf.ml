(* CNF formulas over positive integer variables.  A literal is a nonzero
   integer: [v] is the positive literal of variable [v], [-v] its negation —
   the DIMACS convention. *)

type literal = int
type clause = literal list
type t = { num_vars : int; clauses : clause list }

let lit_var (l : literal) = abs l
let lit_sign (l : literal) = l > 0

let make ~num_vars clauses =
  if num_vars < 0 then invalid_arg "Cnf.make: negative variable count";
  List.iter
    (List.iter (fun l ->
         if l = 0 || abs l > num_vars then
           invalid_arg (Printf.sprintf "Cnf.make: literal %d out of range" l)))
    clauses;
  { num_vars; clauses }

let num_vars t = t.num_vars
let clauses t = t.clauses
let num_clauses t = List.length t.clauses

(* Evaluate under a total assignment (array of bools indexed by variable,
   index 0 unused). *)
let eval_clause assignment clause =
  List.exists (fun l -> assignment.(lit_var l) = lit_sign l) clause

let eval assignment t = List.for_all (eval_clause assignment) t.clauses

let pp ppf t =
  Fmt.pf ppf "@[<v>p cnf %d %d@,%a@]" t.num_vars (num_clauses t)
    Fmt.(list (append (list ~sep:sp int) (any " 0")))
    t.clauses
