open Conddep_relational
open Conddep_core

(* Violation detection by hash grouping — the in-memory analogue of the SQL
   detection queries of [9] that the paper's conclusion points to:

   - CFD (X -> A, tp): group the relation by its X-projection; only tuples
     of the same group can violate, and a pair (t1, t2) of a group matching
     tp[X] violates iff t1[A] ≠ t2[A], or tp[A] is a constant that t1[A] or
     t2[A] misses.
   - CIND: index the RHS relation by its (pattern-restricted) Y-projection;
     each triggering LHS tuple costs one lookup.

   Violations come out in the order of the pair-scan specification (a
   pairwise oracle in the test suite checks it list for list): Σ order, CFDs
   before CINDs; a CFD's pairs by ascending t1, then t2; a CIND's tuples
   ascending.  Repair applies fixes in this order, so it is part of the
   contract.  Each constraint costs O(|R| + output). *)

let m_scanned = Telemetry.counter "detect.fast.tuples_scanned" ~doc:"tuples visited by the hash-grouped detector (one pass per constraint)"
let m_probes = Telemetry.counter "detect.fast.index_probes" ~doc:"hash-index lookups (CIND witness probes)"
let m_violations = Telemetry.counter "detect.fast.violations" ~doc:"violations reported by the hash-grouped detector"

module Key = struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash = Hashtbl.hash
end

module Key_tbl = Hashtbl.Make (Key)

(* --- CFDs ----------------------------------------------------------------- *)

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

let cfd_violations db (nf : Cfd.nf) =
  let rel = Database.relation db nf.Cfd.nf_rel in
  let sch = Relation.schema rel in
  let xpos = List.map (Schema.position sch) nf.nf_x in
  let apos = Schema.position sch nf.nf_a in
  Telemetry.add m_scanned (Relation.cardinal rel);
  (* one pass: the tuples matching tp[X] (reversed), and each X-group's
     members (reversed) *)
  let pending = Key_tbl.create 64 in
  let matching =
    Relation.fold
      (fun t acc ->
        let key = Tuple.proj t xpos in
        if Pattern.matches key nf.nf_tx then begin
          Key_tbl.replace pending key
            (t :: Option.value ~default:[] (Key_tbl.find_opt pending key));
          (t, key) :: acc
        end
        else acc)
      rel []
  in
  let groups = Key_tbl.create (Key_tbl.length pending) in
  Key_tbl.iter (fun key rev -> Key_tbl.replace groups key (make_group apos rev)) pending;
  (* walk the relation again: t1 pairs with every t2 of its group that
     violates with it *)
  List.fold_left
    (fun acc (t1, key) ->
      let g = Key_tbl.find groups key in
      let v = Tuple.get t1 apos in
      let out = ref acc in
      let emit t2 = out := (t1, t2) :: !out in
      (match nf.nf_ta with
      | Pattern.Const a when not (Value.equal v a) -> Array.iter emit g.members
      | _ -> iter_differing g v emit);
      !out)
    [] (List.rev matching)
  |> List.rev

(* --- CINDs ---------------------------------------------------------------- *)

let cind_violations db (nf : Cind.nf) =
  let schema = Database.schema db in
  let r1 = Db_schema.find schema nf.Cind.nf_lhs in
  let r2 = Db_schema.find schema nf.nf_rhs in
  let lhs_rel = Database.relation db nf.nf_lhs in
  let rhs_rel = Database.relation db nf.nf_rhs in
  let xppos = List.map (fun (a, v) -> (Schema.position r1 a, v)) nf.nf_xp in
  let yppos = List.map (fun (b, v) -> (Schema.position r2 b, v)) nf.nf_yp in
  let xpos = List.map (Schema.position r1) nf.nf_x in
  let ypos = List.map (Schema.position r2) nf.nf_y in
  (* index the pattern-restricted RHS by Y-projection *)
  Telemetry.add m_scanned (Relation.cardinal rhs_rel + Relation.cardinal lhs_rel);
  let index = Key_tbl.create 256 in
  Relation.iter
    (fun t ->
      if List.for_all (fun (pos, v) -> Value.equal (Tuple.get t pos) v) yppos then
        Key_tbl.replace index (Tuple.proj t ypos) ())
    rhs_rel;
  Relation.fold
    (fun t acc ->
      let triggers =
        List.for_all (fun (pos, v) -> Value.equal (Tuple.get t pos) v) xppos
      in
      if triggers then begin
        Telemetry.incr m_probes;
        if not (Key_tbl.mem index (Tuple.proj t xpos)) then t :: acc else acc
      end
      else acc)
    lhs_rel []
  |> List.rev

(* --- whole constraint sets ------------------------------------------------- *)

let detect db (sigma : Sigma.nf) =
  Telemetry.with_span "detect.fast" @@ fun () ->
  let all =
    List.concat_map
      (fun nf ->
        List.map
          (fun (t1, t2) ->
            Violation.Cfd_violation
              { constraint_name = nf.Cfd.nf_name; rel = nf.nf_rel; nf; t1; t2 })
          (cfd_violations db nf))
      sigma.Sigma.ncfds
    @ List.concat_map
        (fun nf ->
          List.map
            (fun tuple ->
              Violation.Cind_violation
                {
                  constraint_name = nf.Cind.nf_name;
                  lhs = nf.nf_lhs;
                  rhs = nf.nf_rhs;
                  nf;
                  tuple;
                })
            (cind_violations db nf))
        sigma.Sigma.ncinds
  in
  Telemetry.add m_violations (List.length all);
  all

let is_clean db sigma = detect db sigma = []
