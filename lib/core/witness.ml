open Conddep_relational

(* Theorem 3.2: any set of CINDs is consistent.  The constructive proof
   builds, for each attribute, an active domain made of constants of Σ plus
   (at most) one extra domain value, and takes each relation instance to be
   the cross product of its attributes' active domains.

   To keep the witness small we compute *constraint-aware* active domains:
   each (relation, attribute) pair starts with the Σ-constants mentioned on
   it plus one fresh value, and the pools are then propagated along the
   embedded inclusions (activedom(Bi) ⊇ activedom(Ai) for every CIND pair
   (Ai, Bi)) until fixpoint.  This preserves exactly the invariant the
   cross-product construction needs: every value a LHS tuple can carry on X
   is available on the RHS's Y, and every Yp constant is in its pool. *)

exception Too_large of int

module Key = struct
  type t = string * string (* relation, attribute *)

  let equal (r1, a1) (r2, a2) = String.equal r1 r2 && String.equal a1 a2
  let hash = Hashtbl.hash
end

module Tbl = Hashtbl.Make (Key)

(* The per-(relation, attribute) active domains. *)
let active_domains schema sigma =
  let consts = List.concat_map Cind.nf_constants sigma in
  let all_consts = List.sort_uniq Value.compare (List.map (fun (_, _, v) -> v) consts) in
  let pools = Tbl.create 64 in
  List.iter
    (fun rel ->
      List.iter
        (fun attr ->
          let name = Attribute.name attr in
          let own =
            List.filter_map
              (fun (r, a, v) ->
                if String.equal r (Schema.name rel) && String.equal a name then Some v
                else None)
              consts
          in
          let fresh = Domain.fresh (Attribute.domain attr) ~avoid:all_consts in
          let base =
            List.sort_uniq Value.compare (own @ Option.to_list fresh)
          in
          (* a finite domain fully covered by constants still yields a
             nonempty pool via its first member *)
          let base =
            if base <> [] then base
            else
              match Domain.values (Attribute.domain attr) with
              | Some (v :: _) -> [ v ]
              | _ -> assert false
          in
          Tbl.replace pools (Schema.name rel, name) base)
        (Schema.attrs rel))
    (Db_schema.relations schema);
  (* propagate along embedded inclusions to fixpoint *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (nf : Cind.nf) ->
        List.iter2
          (fun a b ->
            let src = Tbl.find pools (nf.Cind.nf_lhs, a) in
            let dst = Tbl.find pools (nf.nf_rhs, b) in
            let merged = List.sort_uniq Value.compare (src @ dst) in
            if List.length merged <> List.length dst then begin
              Tbl.replace pools (nf.nf_rhs, b) merged;
              changed := true
            end)
          nf.nf_x nf.nf_y)
      sigma
  done;
  pools

let pool_of pools rel attr =
  match Tbl.find_opt pools (rel, attr) with Some vs -> vs | None -> assert false

let cross_product schema_rel doms =
  let rec go acc = function
    | [] -> List.map List.rev acc
    | dom :: rest ->
        go (List.concat_map (fun prefix -> List.map (fun v -> v :: prefix) dom) acc) rest
  in
  let rows = go [ [] ] doms in
  Relation.of_list schema_rel (List.map Tuple.make rows)

let database ?(max_tuples = 100_000) schema sigma =
  let pools = active_domains schema sigma in
  let size =
    List.fold_left
      (fun acc rel ->
        acc
        + List.fold_left
            (fun prod attr ->
              prod * List.length (pool_of pools (Schema.name rel) (Attribute.name attr)))
            1 (Schema.attrs rel))
      0 (Db_schema.relations schema)
  in
  if size > max_tuples then raise (Too_large size);
  List.fold_left
    (fun db rel ->
      let doms =
        List.map
          (fun attr -> pool_of pools (Schema.name rel) (Attribute.name attr))
          (Schema.attrs rel)
      in
      Database.set_relation db (cross_product rel doms))
    (Database.empty schema)
    (Db_schema.relations schema)
