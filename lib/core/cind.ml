open Conddep_relational

(* Conditional inclusion dependencies (Section 2):
   ψ = (R1[X; Xp] ⊆ R2[Y; Yp], Tp) where R1[X] ⊆ R2[Y] is the embedded IND
   and Tp binds data values on the pattern attributes Xp, Yp. *)

type row = {
  cx : Pattern.cell list; (* over X; must equal [cy] (tp[X] = tp[Y]) *)
  cxp : Pattern.cell list; (* over Xp *)
  cy : Pattern.cell list; (* over Y *)
  cyp : Pattern.cell list; (* over Yp *)
}

type t = {
  name : string;
  lhs : string; (* R1 *)
  rhs : string; (* R2 *)
  x : string list;
  xp : string list;
  y : string list;
  yp : string list;
  rows : row list;
}

(* Normal form (Section 3): a single pattern tuple whose cells are constants
   exactly on the pattern attributes.  We fuse attributes with their
   constants, so the wildcard cells on X/Y need no representation. *)
type nf = {
  nf_name : string;
  nf_lhs : string;
  nf_rhs : string;
  nf_x : string list;
  nf_y : string list;
  nf_xp : (string * Value.t) list;
  nf_yp : (string * Value.t) list;
}

let make ~name ~lhs ~rhs ~x ~xp ~y ~yp rows = { name; lhs; rhs; x; xp; y; yp; rows }

(* Validation is a chain of direct checks, the first failure reported:
   it runs on every CIND of every parsed file, so the passing path
   allocates nothing. *)
let rec distinct = function [] -> true | a :: rest -> (not (List.mem a rest)) && distinct rest
let rec disjoint a b = match a with [] -> true | x :: rest -> (not (List.mem x b)) && disjoint rest b
let fail t fmt = Fmt.kstr (fun s -> Error (Fmt.str "CIND %s: %s" t.name s)) fmt

(* The first (A_i, B_i) of X and Y, equally long, with dom(A_i) not
   contained in dom(B_i): the paper's standing assumption is that it is. *)
let rec uncontained r1 r2 xs ys =
  match xs, ys with
  | a :: xs, b :: ys ->
      if Domain.subset (Schema.domain_of r1 a) (Schema.domain_of r2 b) then uncontained r1 r2 xs ys
      else Some (a, b)
  | _ -> None

let check_cells t rel names cells =
  if List.compare_lengths names cells <> 0 then fail t "pattern row arity mismatch"
  else
    match Pattern.outside_domain rel names cells with
    | Some a -> fail t "pattern constant outside dom(%s)" a
    | None -> Ok ()

let rec check_rows t r1 r2 = function
  | [] -> Ok ()
  | row :: rest -> (
      match check_cells t r1 t.x row.cx with
      | Error _ as e -> e
      | Ok () -> (
          match check_cells t r1 t.xp row.cxp with
          | Error _ as e -> e
          | Ok () -> (
              match check_cells t r2 t.y row.cy with
              | Error _ as e -> e
              | Ok () -> (
                  match check_cells t r2 t.yp row.cyp with
                  | Error _ as e -> e
                  | Ok () ->
                      if List.equal Pattern.cell_equal row.cx row.cy then check_rows t r1 r2 rest
                      else fail t "tp[X] must equal tp[Y]"))))

let validate schema t =
  match Db_schema.find_opt schema t.lhs, Db_schema.find_opt schema t.rhs with
  | None, _ -> fail t "unknown relation %s" t.lhs
  | _, None -> fail t "unknown relation %s" t.rhs
  | Some r1, Some r2 -> (
      let unknown r l l' =
        match Schema.first_unknown r l with None -> Schema.first_unknown r l' | found -> found
      in
      match unknown r1 t.x t.xp, unknown r2 t.y t.yp with
      | Some a, _ -> fail t "unknown attribute %s in %s" a t.lhs
      | _, Some a -> fail t "unknown attribute %s in %s" a t.rhs
      | None, None -> (
          if not (distinct t.x && distinct t.xp && disjoint t.x t.xp) then
            fail t "X and Xp must be duplicate-free and disjoint"
          else if not (distinct t.y && distinct t.yp && disjoint t.y t.yp) then
            fail t "Y and Yp must be duplicate-free and disjoint"
          else if List.compare_lengths t.x t.y <> 0 then fail t "X and Y have different lengths"
          else
            match uncontained r1 r2 t.x t.y with
            | Some (a, b) -> fail t "dom(%s) is not contained in dom(%s)" a b
            | None ->
                if t.rows = [] then fail t "empty pattern tableau" else check_rows t r1 r2 t.rows))

(* Prop 3.1: rewrite into an equivalent set of normal-form CINDs, of total
   size linear in the input.  Per pattern row: (1) one CIND per row;
   (2) drop wildcard pattern attributes (they pose no constraint);
   (3) move constant-bound pairs (Ai, Bi) from X/Y into Xp/Yp. *)
let normalize t =
  List.map
    (fun row ->
      let keep_consts names cells =
        List.filter_map
          (fun (a, c) -> Option.map (fun v -> (a, v)) (Pattern.const_value c))
          (List.combine names cells)
      in
      let xp = keep_consts t.xp row.cxp in
      let yp = keep_consts t.yp row.cyp in
      let moved =
        List.filter_map
          (fun ((a, b), c) -> Option.map (fun v -> (a, b, v)) (Pattern.const_value c))
          (List.combine (List.combine t.x t.y) row.cx)
      in
      let kept =
        List.filter_map
          (fun ((a, b), c) ->
            match c with Pattern.Wildcard -> Some (a, b) | Pattern.Const _ -> None)
          (List.combine (List.combine t.x t.y) row.cx)
      in
      {
        nf_name = t.name;
        nf_lhs = t.lhs;
        nf_rhs = t.rhs;
        nf_x = List.map fst kept;
        nf_y = List.map snd kept;
        nf_xp = xp @ List.map (fun (a, _, v) -> (a, v)) moved;
        nf_yp = yp @ List.map (fun (_, b, v) -> (b, v)) moved;
      })
    t.rows

let nf_to_cind nf =
  {
    name = nf.nf_name;
    lhs = nf.nf_lhs;
    rhs = nf.nf_rhs;
    x = nf.nf_x;
    xp = List.map fst nf.nf_xp;
    y = nf.nf_y;
    yp = List.map fst nf.nf_yp;
    rows =
      [
        {
          cx = List.map (fun _ -> Pattern.Wildcard) nf.nf_x;
          cxp = List.map (fun (_, v) -> Pattern.Const v) nf.nf_xp;
          cy = List.map (fun _ -> Pattern.Wildcard) nf.nf_y;
          cyp = List.map (fun (_, v) -> Pattern.Const v) nf.nf_yp;
        };
      ];
  }

let validate_nf schema nf = validate schema (nf_to_cind nf)

(* --- satisfaction ----------------------------------------------------------

   The one satisfaction check, on a normal form: index the RHS tuples
   that carry tp[Yp] by their Y-projection, then probe once per LHS tuple
   that carries tp[Xp].  The misses come out ascending, at a cost of
   O(|R1| + |R2|), and nothing is built when R1 is empty.  A CIND with
   several rows is checked row by row through [normalize]. *)

let m_scanned = Telemetry.counter "detect.fast.tuples_scanned" ~doc:"tuples visited by the satisfaction scans (one pass per constraint)"
let m_probes = Telemetry.counter "detect.fast.index_probes" ~doc:"hash-index lookups (CIND witness probes)"
let m_violations = Telemetry.counter "detect.fast.violations" ~doc:"violations found by the satisfaction scans"

let carries pattern t = List.for_all (fun (pos, v) -> Value.equal (Tuple.get t pos) v) pattern

let nf_violations db nf =
  let lhs = Database.relation db nf.nf_lhs and rhs = Database.relation db nf.nf_rhs in
  Telemetry.add m_scanned (Relation.cardinal rhs + Relation.cardinal lhs);
  if Relation.is_empty lhs then []
  else begin
    let r1 = Relation.schema lhs and r2 = Relation.schema rhs in
    let xp = List.map (fun (a, v) -> (Schema.position r1 a, v)) nf.nf_xp in
    let yp = List.map (fun (b, v) -> (Schema.position r2 b, v)) nf.nf_yp in
    let xpos = List.map (Schema.position r1) nf.nf_x in
    let ypos = List.map (Schema.position r2) nf.nf_y in
    let index = Value.List_tbl.create (Relation.cardinal rhs) in
    Relation.iter
      (fun t -> if carries yp t then Value.List_tbl.replace index (Tuple.proj t ypos) ())
      rhs;
    Relation.fold
      (fun t acc ->
        if carries xp t then begin
          Telemetry.incr m_probes;
          if Value.List_tbl.mem index (Tuple.proj t xpos) then acc
          else begin
            Telemetry.incr m_violations;
            t :: acc
          end
        end
        else acc)
      lhs []
    |> List.rev
  end

let nf_holds db nf = nf_violations db nf = []

let violations db t =
  List.concat
    (List.map2
       (fun row nf -> List.map (fun tuple -> (row, tuple)) (nf_violations db nf))
       t.rows (normalize t))

let holds db t = List.for_all (nf_holds db) (normalize t)

(* Canonical form: pattern bindings sorted by attribute name.  The pattern
   portions Xp and Yp are order-insensitive (rule CIND2 permutes them
   freely), so canonicalizing quotients out those permutations and makes
   syntactic comparison meaningful. *)
let canon_nf nf =
  let sort = List.sort (fun (a, _) (b, _) -> String.compare a b) in
  { nf with nf_xp = sort nf.nf_xp; nf_yp = sort nf.nf_yp }

let nf_equal a b =
  String.equal a.nf_lhs b.nf_lhs
  && String.equal a.nf_rhs b.nf_rhs
  && List.equal String.equal a.nf_x b.nf_x
  && List.equal String.equal a.nf_y b.nf_y
  && List.equal
       (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && Value.equal v1 v2)
       a.nf_xp b.nf_xp
  && List.equal
       (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && Value.equal v1 v2)
       a.nf_yp b.nf_yp

let nf_constants nf =
  List.map (fun (a, v) -> (nf.nf_lhs, a, v)) nf.nf_xp
  @ List.map (fun (b, v) -> (nf.nf_rhs, b, v)) nf.nf_yp

let pp_binding ppf (a, v) = Fmt.pf ppf "%s=%a" a Value.pp v

let pp_nf ppf nf =
  Fmt.pf ppf "@[<h>%s: %s[%a; %a] <= %s[%a; %a]@]" nf.nf_name nf.nf_lhs
    Fmt.(list ~sep:comma string)
    nf.nf_x
    Fmt.(list ~sep:comma pp_binding)
    nf.nf_xp nf.nf_rhs
    Fmt.(list ~sep:comma string)
    nf.nf_y
    Fmt.(list ~sep:comma pp_binding)
    nf.nf_yp

let pp_row ppf row =
  Fmt.pf ppf "(%a; %a || %a; %a)" Pattern.pp_cells row.cx Pattern.pp_cells row.cxp
    Pattern.pp_cells row.cy Pattern.pp_cells row.cyp

let pp ppf t =
  Fmt.pf ppf "@[<hv2>%s: %s[%a; %a] <= %s[%a; %a] with@ %a@]" t.name t.lhs
    Fmt.(list ~sep:comma string)
    t.x
    Fmt.(list ~sep:comma string)
    t.xp t.rhs
    Fmt.(list ~sep:comma string)
    t.y
    Fmt.(list ~sep:comma string)
    t.yp
    Fmt.(list ~sep:comma pp_row)
    t.rows
