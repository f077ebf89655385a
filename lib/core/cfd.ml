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
let rec mem_name a = function [] -> false | b :: rest -> String.equal a b || mem_name a rest
let rec distinct = function [] -> true | a :: rest -> (not (mem_name a rest)) && distinct rest
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
   and RHS attribute, built in order without intermediate lists. *)
let normalize t =
  let rec rows = function
    | [] -> []
    | { rx; ry } :: rest ->
        let rec attrs ys cells =
          match ys, cells with
          | [], [] -> rows rest
          | a :: ys, ta :: cells ->
              { nf_name = t.name; nf_rel = t.rel; nf_x = t.x; nf_a = a; nf_tx = rx; nf_ta = ta }
              :: attrs ys cells
          | _ -> invalid_arg "Cfd.normalize: pattern row arity mismatch"
        in
        attrs t.y ry
  in
  rows t.rows

let nf_to_cfd nf =
  {
    name = nf.nf_name;
    rel = nf.nf_rel;
    x = nf.nf_x;
    y = [ nf.nf_a ];
    rows = [ { rx = nf.nf_tx; ry = [ nf.nf_ta ] } ];
  }

(* --- satisfaction ----------------------------------------------------------

   The one satisfaction check: a hash-grouped scan, the in-memory analogue
   of the SQL detection queries of [9] that the paper's conclusion points
   to.  Group the relation by its X-projection: only tuples of one group
   can violate, and a pair (t1, t2) of a group matching tp[X] violates iff
   t1[A] ≠ t2[A], or tp[A] is a constant that t1[A] or t2[A] misses.  The
   pairs come out in the order of the pair scan, by ascending t1, then
   ascending t2: repair applies fixes in this order, so it is part of the
   contract.  Each check costs O(|R| + output), and nothing is built when
   R is empty: a one-tuple witness leaves most relations empty.  A
   relation of at most [direct_max] tuples, as witnesses hold, is checked
   pair by pair instead, in the same order: its two tables would cost more
   than the pairs. *)

let m_scanned = Telemetry.counter "detect.fast.tuples_scanned" ~doc:"tuples visited by the satisfaction scans (one pass per constraint)"
let m_violations = Telemetry.counter "detect.fast.violations" ~doc:"violations found by the satisfaction scans"

let direct_max = 2

(* t[X] ≍ tp[X], X given by its positions; false when they differ in
   length. *)
let rec matches_at t xpos cells =
  match xpos, cells with
  | [], [] -> true
  | i :: xpos, c :: cells -> Pattern.match_cell (Tuple.get t i) c && matches_at t xpos cells
  | _ -> false

let agree_at t1 t2 xpos = List.for_all (fun i -> Value.equal (Tuple.get t1 i) (Tuple.get t2 i)) xpos

(* The pair scan itself, on a small relation: [t1] ranges over the tuples
   matching tp[X], [t2] over those of t1's X-group, both in order. *)
let direct_violations rel xpos apos nf =
  let matching t = matches_at t xpos nf.nf_tx in
  Relation.fold
    (fun t1 acc ->
      if not (matching t1) then acc
      else
        let v = Tuple.get t1 apos in
        let misses = match nf.nf_ta with Pattern.Const a -> not (Value.equal v a) | Pattern.Wildcard -> false in
        Relation.fold
          (fun t2 acc ->
            if matching t2 && agree_at t1 t2 xpos && (misses || not (Value.equal v (Tuple.get t2 apos)))
            then begin
              Telemetry.incr m_violations;
              (t1, t2) :: acc
            end
            else acc)
          rel acc)
    rel []
  |> List.rev

(* An X-group's members in relation order with their A-values; [skip.(i)]
   is the least j > i whose A-value differs from member i's (or the group
   size), so a run of members sharing one A-value is crossed in one step. *)
type group = { members : Tuple.t array; a_values : Value.t array; skip : int array }

let make_group apos rev_members =
  let members = Array.of_list (List.rev rev_members) in
  let a_values = Array.map (fun t -> Tuple.get t apos) members in
  let n = Array.length members in
  let skip = Array.make n n in
  for i = n - 2 downto 0 do
    skip.(i) <- (if Value.equal a_values.(i + 1) a_values.(i) then skip.(i + 1) else i + 1)
  done;
  { members; a_values; skip }

(* [f] on the members whose A-value differs from [v], in order, in
   O(1 + answer) steps: every jump lands on such a member or the end. *)
let iter_differing g v f =
  let n = Array.length g.members in
  let rec go j =
    if j < n then
      if Value.equal g.a_values.(j) v then go g.skip.(j)
      else begin
        f g.members.(j);
        go (j + 1)
      end
  in
  go 0

let table_violations rel n xpos apos nf =
  (* one pass: the tuples matching tp[X] (reversed), and each X-group's
     members (reversed) *)
  let pending = Value.List_tbl.create n in
  let matching =
    Relation.fold
      (fun t acc ->
        let key = Tuple.proj t xpos in
        if Pattern.matches key nf.nf_tx then begin
          Value.List_tbl.replace pending key
            (t :: Option.value ~default:[] (Value.List_tbl.find_opt pending key));
          (t, key) :: acc
        end
        else acc)
      rel []
  in
  let groups = Value.List_tbl.create (Value.List_tbl.length pending) in
  Value.List_tbl.iter (fun key rev -> Value.List_tbl.replace groups key (make_group apos rev)) pending;
  (* walk the matching tuples in order: t1 pairs with every t2 of its
     group that violates with it *)
  List.fold_left
    (fun acc (t1, key) ->
      let g = Value.List_tbl.find groups key in
      let v = Tuple.get t1 apos in
      let out = ref acc in
      let emit t2 =
        Telemetry.incr m_violations;
        out := (t1, t2) :: !out
      in
      (match nf.nf_ta with
      | Pattern.Const a when not (Value.equal v a) -> Array.iter emit g.members
      | _ -> iter_differing g v emit);
      !out)
    [] (List.rev matching)
  |> List.rev

let nf_violations db nf =
  let rel = Database.relation db nf.nf_rel in
  let n = Relation.cardinal rel in
  Telemetry.add m_scanned n;
  if n = 0 then []
  else
    let sch = Relation.schema rel in
    let xpos = List.map (Schema.position sch) nf.nf_x in
    let apos = Schema.position sch nf.nf_a in
    if n <= direct_max then direct_violations rel xpos apos nf
    else table_violations rel n xpos apos nf

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
