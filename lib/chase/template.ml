open Conddep_relational

(* Database templates for the extended chase of Section 5.1: tuples whose
   fields are either constants or variables drawn from the bounded pools
   var[A].  The paper's total order places every variable below every
   constant; variables are ordered lexicographically.

   Representation notes: each relation carries, next to its tuple list, a
   persistent set of integer-encoded tuple keys and a cached cardinal, so
   [add] and [cardinal] are O(arity · log n) instead of O(arity · n) scans
   — [add] sits on the chase's hottest path.  The template additionally
   tracks, per variable, the set of relations the variable occurs in, so
   a substitution only rewrites the relations (and within them, the
   tuples) that actually contain the variable. *)

type var = { vrel : string; vattr : string; vidx : int }

type cell =
  | V of var
  | C of Value.t

let var_compare a b =
  match String.compare a.vrel b.vrel with
  | 0 -> (
      match String.compare a.vattr b.vattr with
      | 0 -> Int.compare a.vidx b.vidx
      | c -> c)
  | c -> c

(* The paper's order: v < a for any variable v and constant a; constants
   are mutually unordered, but a total order is convenient and harmless. *)
let cell_compare c1 c2 =
  match c1, c2 with
  | V a, V b -> var_compare a b
  | V _, C _ -> -1
  | C _, V _ -> 1
  | C a, C b -> Value.compare a b

let cell_equal c1 c2 = cell_compare c1 c2 = 0

(* ≍ against a pattern cell: constants match equal constants and '_';
   variables match only '_' (v ≠ a and v 6≍ a). *)
let cell_matches_pattern cell pat =
  match cell, pat with
  | _, Pattern.Wildcard -> true
  | C v, Pattern.Const c -> Value.equal v c
  | V _, Pattern.Const _ -> false

let cell_is_var = function V _ -> true | C _ -> false

let pp_var ppf v = Fmt.pf ppf "%s.%s#%d" v.vrel v.vattr v.vidx

let pp_cell ppf = function V v -> pp_var ppf v | C value -> Value.pp ppf value

type tuple = cell array

let tuple_compare (a : tuple) (b : tuple) =
  let n = Array.length a and m = Array.length b in
  if n <> m then Int.compare n m
  else
    let rec go i =
      if i >= n then 0
      else match cell_compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
    in
    go 0

let pp_tuple ppf (t : tuple) =
  Fmt.pf ppf "(%a)" Fmt.(list ~sep:comma pp_cell) (Array.to_list t)

module String_map = Map.Make (String)
module String_set = Set.Make (String)
module Var_map = Map.Make (struct
  type t = var

  let compare = var_compare
end)

(* --- integer tuple keys ------------------------------------------------------
   A tuple is encoded as a flat int list, cell by cell: constants as
   [0; value-id] (global interner), variables as [1; rel-id; attr-id; idx]
   (symbol interner).  The per-cell tags make the concatenation prefix-free,
   so the encoding is injective and key equality is tuple equality. *)

module Key = struct
  type t = int list

  let rec compare a b =
    match a, b with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: a, y :: b -> ( match Int.compare x y with 0 -> compare a b | c -> c)
end

module Key_set = Set.Make (Key)

let key_of_tuple (t : tuple) : Key.t =
  Array.fold_right
    (fun cell acc ->
      match cell with
      | C v -> 0 :: Interner.id v :: acc
      | V { vrel; vattr; vidx } ->
          1 :: Interner.symbol vrel :: Interner.symbol vattr :: vidx :: acc)
    t []

type rel_store = {
  rs_tuples : tuple list;
  rs_keys : Key_set.t;
  rs_count : int;
}

let empty_store = { rs_tuples = []; rs_keys = Key_set.empty; rs_count = 0 }

type t = {
  schema : Db_schema.t;
  rels : rel_store String_map.t;
  occs : String_set.t Var_map.t; (* var -> relations it (may) occur in *)
}

let empty schema =
  {
    schema;
    rels =
      List.fold_left
        (fun acc r -> String_map.add (Schema.name r) empty_store acc)
        String_map.empty (Db_schema.relations schema);
    occs = Var_map.empty;
  }

let schema t = t.schema

let store t rel =
  match String_map.find_opt rel t.rels with
  | Some rs -> rs
  | None -> invalid_arg (Printf.sprintf "Template.tuples: no relation %S" rel)

let tuples t rel = (store t rel).rs_tuples
let cardinal t rel = (store t rel).rs_count
let total t = String_map.fold (fun _ rs acc -> acc + rs.rs_count) t.rels 0

(* Record every variable of [tuple] as (possibly) occurring in [rel]. *)
let note_occurrences occs rel (tuple : tuple) =
  Array.fold_left
    (fun occs cell ->
      match cell with
      | C _ -> occs
      | V v ->
          let rels = Option.value ~default:String_set.empty (Var_map.find_opt v occs) in
          if String_set.mem rel rels then occs
          else Var_map.add v (String_set.add rel rels) occs)
    occs tuple

let add t rel tuple =
  let rs = store t rel in
  let key = key_of_tuple tuple in
  if Key_set.mem key rs.rs_keys then t
  else
    let rs =
      {
        rs_tuples = tuple :: rs.rs_tuples;
        rs_keys = Key_set.add key rs.rs_keys;
        rs_count = rs.rs_count + 1;
      }
    in
    {
      t with
      rels = String_map.add rel rs t.rels;
      occs = note_occurrences t.occs rel tuple;
    }

(* --- substitution ------------------------------------------------------------
   Global substitution of one variable by a cell — the chase FD operation
   identifies values, and a variable denotes the same value everywhere.

   Only the relations recorded in [occs] for the variable are visited, and
   within them only the tuples that actually contain the variable are
   rewritten; every other tuple (and every other relation's store) is
   shared physically with the input template.  The occurrence map is an
   over-approximation (a merged-away tuple's other variables keep their
   entry), which costs at most a wasted scan later, never a missed one.

   A template in which no tuple contains the variable is returned as is. *)

let tuple_contains var (tuple : tuple) =
  Array.exists
    (fun cell -> match cell with V v -> var_compare v var = 0 | C _ -> false)
    tuple

let subst t var by =
  match Var_map.find_opt var t.occs with
  | None -> t
  | Some rels_with_var ->
      let replace cell =
        match cell with V v when var_compare v var = 0 -> by | _ -> cell
      in
      let rewrite_rel rel t =
        let rs = store t rel in
        if not (List.exists (tuple_contains var) rs.rs_tuples) then t
        else begin
          (* Rewrite in list order; a rewritten tuple equal to any tuple
             already kept (or kept later untouched) is dropped — set
             semantics, first occurrence wins. *)
          let keys = ref rs.rs_keys in
          let rev_tuples =
            List.fold_left
              (fun acc tuple ->
                if not (tuple_contains var tuple) then tuple :: acc
                else begin
                  let tuple' = Array.map replace tuple in
                  keys := Key_set.remove (key_of_tuple tuple) !keys;
                  let key' = key_of_tuple tuple' in
                  if Key_set.mem key' !keys then acc (* merged away *)
                  else begin
                    keys := Key_set.add key' !keys;
                    tuple' :: acc
                  end
                end)
              [] rs.rs_tuples
          in
          let rs' =
            {
              rs_tuples = List.rev rev_tuples;
              rs_keys = !keys;
              rs_count = Key_set.cardinal !keys;
            }
          in
          { t with rels = String_map.add rel rs' t.rels }
        end
      in
      let t' = String_set.fold rewrite_rel rels_with_var t in
      if t' == t then t
      else begin
        (* Drop the substituted variable; record the replacement cell's
           variable (if any) as occurring wherever the old one did. *)
        let occs = Var_map.remove var t'.occs in
        let occs =
          match by with
          | C _ -> occs
          | V u ->
              let rels =
                Option.value ~default:String_set.empty (Var_map.find_opt u occs)
              in
              Var_map.add u (String_set.union rels rels_with_var) occs
        in
        { t' with occs }
      end

(* The constants currently present in one column of one relation. *)
let column_constants t ~rel ~attr =
  match Db_schema.find_opt t.schema rel with
  | None -> []
  | Some r -> (
      match Schema.position_opt r attr with
      | None -> []
      | Some pos ->
          List.filter_map
            (fun (tuple : tuple) ->
              match tuple.(pos) with C v -> Some v | V _ -> None)
            (tuples t rel)
          |> List.sort_uniq Value.compare)

let variables t =
  String_map.fold
    (fun _ rs acc ->
      List.fold_left
        (fun acc tuple ->
          Array.fold_left
            (fun acc cell ->
              match cell with
              | V v -> if List.exists (fun u -> var_compare u v = 0) acc then acc else v :: acc
              | C _ -> acc)
            acc tuple)
        acc rs.rs_tuples)
    t.rels []

(* Variables whose attribute has a finite domain — the set the paper's
   valuations Vfinattr range over. *)
let finite_variables t =
  List.filter
    (fun v ->
      match Db_schema.find_opt t.schema v.vrel with
      | None -> false
      | Some r -> (
          match Schema.position_opt r v.vattr with
          | None -> false
          | Some pos -> Attribute.is_finite (Schema.attr r pos)))
    (variables t)

(* Concretize: map every remaining variable to a value of its attribute's
   domain.  Infinite-domain variables get pairwise-distinct fresh values
   avoiding [avoid] (so they trigger no pattern); finite-domain variables
   take the first domain value not in [avoid], falling back to any domain
   value when the domain is exhausted. *)
let to_database ?(avoid = []) t =
  let vars = List.sort var_compare (variables t) in
  let assignment, _ =
    List.fold_left
      (fun (acc, used) v ->
        let r = Db_schema.find t.schema v.vrel in
        let dom = Schema.domain_of r v.vattr in
        let value =
          match Domain.fresh dom ~avoid:used with
          | Some value -> value
          | None -> (
              (* exhausted finite domain: reuse any member *)
              match Domain.values dom with
              | Some (value :: _) -> value
              | _ -> assert false)
        in
        ((v, value) :: acc, value :: used))
      ([], avoid) vars
  in
  let lookup v =
    match List.find_opt (fun (u, _) -> var_compare u v = 0) assignment with
    | Some (_, value) -> value
    | None -> assert false
  in
  String_map.fold
    (fun rel rs db ->
      List.fold_left
        (fun db tuple ->
          let concrete =
            Tuple.make
              (List.map (function C value -> value | V v -> lookup v) (Array.to_list tuple))
          in
          Database.add_tuple db rel concrete)
        db rs.rs_tuples)
    t.rels
    (Database.empty t.schema)

let pp ppf t =
  String_map.iter
    (fun rel rs ->
      if rs.rs_tuples <> [] then
        Fmt.pf ppf "@[<v2>%s:@ %a@]@." rel Fmt.(list ~sep:cut pp_tuple)
          (List.rev rs.rs_tuples))
    t.rels
