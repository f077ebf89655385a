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

let distinct l = List.length (List.sort_uniq String.compare l) = List.length l
let disjoint a b = not (List.exists (fun x -> List.mem x b) a)

let validate schema t =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Fmt.kstr (fun s -> Error (Fmt.str "CIND %s: %s" t.name s)) fmt in
  let* r1 =
    match Db_schema.find_opt schema t.lhs with
    | Some r -> Ok r
    | None -> err "unknown relation %s" t.lhs
  in
  let* r2 =
    match Db_schema.find_opt schema t.rhs with
    | Some r -> Ok r
    | None -> err "unknown relation %s" t.rhs
  in
  let* () =
    match
      ( List.find_opt (fun a -> not (Schema.mem_attr r1 a)) (t.x @ t.xp),
        List.find_opt (fun a -> not (Schema.mem_attr r2 a)) (t.y @ t.yp) )
    with
    | Some a, _ -> err "unknown attribute %s in %s" a t.lhs
    | _, Some a -> err "unknown attribute %s in %s" a t.rhs
    | None, None -> Ok ()
  in
  let* () =
    if distinct t.x && distinct t.xp && disjoint t.x t.xp then Ok ()
    else err "X and Xp must be duplicate-free and disjoint"
  in
  let* () =
    if distinct t.y && distinct t.yp && disjoint t.y t.yp then Ok ()
    else err "Y and Yp must be duplicate-free and disjoint"
  in
  let* () =
    if List.length t.x = List.length t.y then Ok ()
    else err "X and Y have different lengths"
  in
  let* () =
    (* dom(Ai) ⊆ dom(Bi), the paper's standing assumption. *)
    match
      List.find_opt
        (fun (a, b) ->
          not (Domain.subset (Schema.domain_of r1 a) (Schema.domain_of r2 b)))
        (List.combine t.x t.y)
    with
    | Some (a, b) -> err "dom(%s) is not contained in dom(%s)" a b
    | None -> Ok ()
  in
  let check_cells rel names cells =
    if List.length names <> List.length cells then err "pattern row arity mismatch"
    else
      match
        List.find_opt
          (fun (a, c) ->
            match c with
            | Pattern.Wildcard -> false
            | Pattern.Const v -> not (Domain.mem (Schema.domain_of rel a) v))
          (List.combine names cells)
      with
      | Some (a, _) -> err "pattern constant outside dom(%s)" a
      | None -> Ok ()
  in
  let rec check_rows = function
    | [] -> Ok ()
    | row :: rest ->
        let* () = check_cells r1 t.x row.cx in
        let* () = check_cells r1 t.xp row.cxp in
        let* () = check_cells r2 t.y row.cy in
        let* () = check_cells r2 t.yp row.cyp in
        let* () =
          if List.equal Pattern.cell_equal row.cx row.cy then Ok ()
          else err "tp[X] must equal tp[Y]"
        in
        check_rows rest
  in
  let* () = if t.rows = [] then err "empty pattern tableau" else Ok () in
  check_rows t.rows

(* Does tuple [t1] of the LHS relation trigger pattern row [row]?  I.e.
   t1[X, Xp] ≍ tp[X, Xp]. *)
let row_triggers sch1 t row ~t1 =
  let xpos = List.map (Schema.position sch1) t.x in
  let xppos = List.map (Schema.position sch1) t.xp in
  Pattern.matches (Tuple.proj t1 xpos) row.cx
  && Pattern.matches (Tuple.proj t1 xppos) row.cxp

(* Does tuple [t2] of the RHS relation witness row [row] for [t1]? *)
let row_witness sch1 sch2 t row ~t1 ~t2 =
  let xpos = List.map (Schema.position sch1) t.x in
  let ypos = List.map (Schema.position sch2) t.y in
  let yppos = List.map (Schema.position sch2) t.yp in
  List.equal Value.equal (Tuple.proj t1 xpos) (Tuple.proj t2 ypos)
  && Pattern.matches (Tuple.proj t2 yppos) row.cyp

let violations db t =
  let rel1 = Database.relation db t.lhs and rel2 = Database.relation db t.rhs in
  let sch1 = Relation.schema rel1 and sch2 = Relation.schema rel2 in
  List.concat_map
    (fun row ->
      Relation.fold
        (fun t1 acc ->
          if
            row_triggers sch1 t row ~t1
            && not (Relation.exists (fun t2 -> row_witness sch1 sch2 t row ~t1 ~t2) rel2)
          then (row, t1) :: acc
          else acc)
        rel1 [])
    t.rows

let holds db t = violations db t = []

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

let nf_holds db nf = holds db (nf_to_cind nf)
let nf_violations db nf = List.map snd (violations db (nf_to_cind nf))

(* Whether a LHS tuple triggers the normal-form CIND: t1[Xp] = tp[Xp]. *)
let nf_triggers sch1 nf ~t1 =
  List.for_all
    (fun (a, v) -> Value.equal (Tuple.get t1 (Schema.position sch1 a)) v)
    nf.nf_xp

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
