(* Human-readable cleaning reports. *)

type t = {
  total_tuples : int;
  violations : Violation.t list;
}

let build db sigma =
  {
    total_tuples = Conddep_relational.Database.total_tuples db;
    violations = Fast_detect.detect db sigma;
  }

let count t = List.length t.violations

(* Violations grouped per constraint name. *)
let by_constraint t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let key = Violation.constraint_name v in
      Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key)))
    t.violations;
  Hashtbl.fold (fun k vs acc -> (k, List.rev vs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp ppf t =
  Fmt.pf ppf "@[<v>database: %d tuples; %d violation(s)@," t.total_tuples (count t);
  List.iter
    (fun (name, vs) ->
      Fmt.pf ppf "@[<v2>%s: %d violation(s)@,%a@]@," name (List.length vs)
        Fmt.(list ~sep:cut Violation.pp)
        vs)
    (by_constraint t);
  Fmt.pf ppf "@]"
