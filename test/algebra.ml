open Conddep_relational

(* A small relational-algebra evaluator over [Relation] instances.  The
   reference violation detector ([Detect_oracle]) phrases CIND detection
   as a select/anti-join query with it, in the spirit of the SQL-based
   detection of Bohannon et al. [9] that the paper's conclusion refers
   to. *)

(* Tuples whose projection on the named attributes matches the pattern. *)
let select_pattern schema names cells rel =
  let positions = List.map (Schema.position schema) names in
  Relation.filter (fun t -> Pattern.matches (Tuple.proj t positions) cells) rel

(* Duplicate-eliminating projection; the result schema is renamed. *)
let project rel names =
  let schema = Relation.schema rel in
  let positions = List.map (Schema.position schema) names in
  let attrs = List.map (Schema.attr schema) positions in
  let out_schema = Schema.make (Schema.name schema ^ "#proj") attrs in
  Relation.fold
    (fun t acc -> Relation.add acc (Tuple.make (Tuple.proj t positions)))
    rel (Relation.empty out_schema)

(* Natural join on the attributes the two schemas share by name. *)
let join left right =
  let ls = Relation.schema left and rs = Relation.schema right in
  let shared =
    List.filter (fun a -> Schema.mem_attr rs (Attribute.name a)) (Schema.attrs ls)
  in
  let shared_names = List.map Attribute.name shared in
  let lpos = List.map (Schema.position ls) shared_names in
  let rpos = List.map (Schema.position rs) shared_names in
  let right_only =
    List.filter (fun a -> not (List.mem (Attribute.name a) shared_names)) (Schema.attrs rs)
  in
  let right_only_pos =
    List.map (fun a -> Schema.position rs (Attribute.name a)) right_only
  in
  let out_schema =
    Schema.make
      (Schema.name ls ^ "#join#" ^ Schema.name rs)
      (Schema.attrs ls @ right_only)
  in
  Relation.fold
    (fun tl acc ->
      Relation.fold
        (fun tr acc ->
          if List.equal Value.equal (Tuple.proj tl lpos) (Tuple.proj tr rpos) then
            Relation.add acc
              (Tuple.make (Tuple.to_list tl @ Tuple.proj tr right_only_pos))
          else acc)
        right acc)
    left (Relation.empty out_schema)

(* Semi-join: tuples of [left] with at least one join partner in [right]
   under an explicit position correspondence. *)
let semi_join left ~lpos right ~rpos =
  Relation.filter
    (fun tl ->
      Relation.exists
        (fun tr -> List.equal Value.equal (Tuple.proj tl lpos) (Tuple.proj tr rpos))
        right)
    left

(* Anti-join: tuples of [left] with no partner — the core of inclusion
   violation detection. *)
let anti_join left ~lpos right ~rpos =
  Relation.filter
    (fun tl ->
      not
        (Relation.exists
           (fun tr -> List.equal Value.equal (Tuple.proj tl lpos) (Tuple.proj tr rpos))
           right))
    left
