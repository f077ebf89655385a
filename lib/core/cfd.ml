open Conddep_relational

(* Conditional functional dependencies (Section 4, after [9]):
   a pair (R : X -> Y, Tp) where Tp is a pattern tableau over X ∪ Y. *)

type row = { rx : Pattern.cell list; ry : Pattern.cell list }

type t = {
  name : string;
  rel : string;
  x : string list;
  y : string list;
  rows : row list;
}

(* Normal form: a single pattern row and a single RHS attribute. *)
type nf = {
  nf_name : string;
  nf_rel : string;
  nf_x : string list;
  nf_a : string;
  nf_tx : Pattern.cell list;
  nf_ta : Pattern.cell;
}

let make ~name ~rel ~x ~y rows = { name; rel; x; y; rows }

(* Validation is a chain of direct checks, the first failure reported:
   it runs on every CFD of every parsed file, so the passing path
   allocates nothing. *)
let rec distinct = function [] -> true | a :: rest -> (not (List.mem a rest)) && distinct rest
let fail t fmt = Fmt.kstr (fun s -> Error (Fmt.str "CFD %s: %s" t.name s)) fmt

let check_cells t rel names cells =
  if List.compare_lengths names cells <> 0 then fail t "pattern row arity mismatch"
  else
    match Pattern.outside_domain rel names cells with
    | Some a -> fail t "pattern constant outside dom(%s)" a
    | None -> Ok ()

let rec check_rows t rel = function
  | [] -> Ok ()
  | { rx; ry } :: rest -> (
      match check_cells t rel t.x rx with
      | Error _ as e -> e
      | Ok () -> (
          match check_cells t rel t.y ry with
          | Error _ as e -> e
          | Ok () -> check_rows t rel rest))

let validate schema t =
  match Db_schema.find_opt schema t.rel with
  | None -> fail t "unknown relation %s" t.rel
  | Some rel -> (
      match Schema.first_unknown rel t.x, Schema.first_unknown rel t.y with
      | Some a, _ | None, Some a -> fail t "unknown attribute %s" a
      | None, None ->
          if not (distinct t.x && distinct t.y) then fail t "duplicate attributes in X or Y"
          else if t.y = [] then fail t "empty right-hand side"
          else if t.rows = [] then fail t "empty pattern tableau"
          else check_rows t rel t.rows)

(* Every CFD is equivalent to a set of normal-form CFDs: one per pattern row
   and RHS attribute. *)
let normalize t =
  List.concat_map
    (fun { rx; ry } ->
      List.map2
        (fun a ta ->
          {
            nf_name = t.name;
            nf_rel = t.rel;
            nf_x = t.x;
            nf_a = a;
            nf_tx = rx;
            nf_ta = ta;
          })
        t.y ry)
    t.rows

let nf_to_cfd nf =
  {
    name = nf.nf_name;
    rel = nf.nf_rel;
    x = nf.nf_x;
    y = [ nf.nf_a ];
    rows = [ { rx = nf.nf_tx; ry = [ nf.nf_ta ] } ];
  }

let validate_nf schema nf = validate schema (nf_to_cfd nf)

(* Satisfaction by a pair of tuples (possibly the same tuple twice). *)
let pair_satisfies_nf sch nf t1 t2 =
  let xpos = List.map (Schema.position sch) nf.nf_x in
  let apos = Schema.position sch nf.nf_a in
  let x1 = Tuple.proj t1 xpos and x2 = Tuple.proj t2 xpos in
  if List.equal Value.equal x1 x2 && Pattern.matches x1 nf.nf_tx then
    Value.equal (Tuple.get t1 apos) (Tuple.get t2 apos)
    && Pattern.match_cell (Tuple.get t1 apos) nf.nf_ta
  else true

let nf_violations db nf =
  let rel = Database.relation db nf.nf_rel in
  let sch = Relation.schema rel in
  let tuples = Relation.tuples rel in
  List.concat_map
    (fun t1 ->
      List.filter_map
        (fun t2 -> if pair_satisfies_nf sch nf t1 t2 then None else Some (t1, t2))
        tuples)
    tuples

let nf_holds db nf = nf_violations db nf = []

let violations db t =
  List.concat_map
    (fun nf -> List.map (fun pair -> (nf, pair)) (nf_violations db nf))
    (normalize t)

let holds db t = List.for_all (nf_holds db) (normalize t)

let nf_equal a b =
  String.equal a.nf_rel b.nf_rel
  && List.equal String.equal a.nf_x b.nf_x
  && String.equal a.nf_a b.nf_a
  && List.equal Pattern.cell_equal a.nf_tx b.nf_tx
  && Pattern.cell_equal a.nf_ta b.nf_ta

(* Constants appearing in the pattern tableau, paired with their attribute. *)
let nf_constants nf =
  let on_x =
    List.filter_map
      (fun (a, c) -> Option.map (fun v -> (a, v)) (Pattern.const_value c))
      (List.combine nf.nf_x nf.nf_tx)
  in
  match Pattern.const_value nf.nf_ta with
  | Some v -> (nf.nf_a, v) :: on_x
  | None -> on_x

let pp_nf ppf nf =
  Fmt.pf ppf "@[<h>%s: %s(%a -> %s, (%a || %a))@]" nf.nf_name nf.nf_rel
    Fmt.(list ~sep:comma string)
    nf.nf_x nf.nf_a Pattern.pp_cells nf.nf_tx Pattern.pp_cell nf.nf_ta

let pp_row ppf { rx; ry } =
  Fmt.pf ppf "(%a || %a)" Pattern.pp_cells rx Pattern.pp_cells ry

let pp ppf t =
  Fmt.pf ppf "@[<hv2>%s: %s(%a -> %a) with@ %a@]" t.name t.rel
    Fmt.(list ~sep:comma string)
    t.x
    Fmt.(list ~sep:comma string)
    t.y
    Fmt.(list ~sep:comma pp_row)
    t.rows
