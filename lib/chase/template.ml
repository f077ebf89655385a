open Conddep_relational

(* Database templates for the extended chase of Section 5.1: tuples whose
   fields are either constants or variables drawn from the bounded pools
   var[A].  The paper's total order places every variable below every
   constant; variables are ordered lexicographically by relation name,
   attribute name and index.  A variable carries its column, resolved
   when the chase compiles a CIND or builds a seed tuple, so nothing
   below looks a name up.

   A template is its schema plus one tuple list per relation, newest
   tuple first, in an array indexed by the relation's position in name
   order ([Db_schema.find_indexed]), so iterating it follows the names as
   a map keyed by name would.  [add] and [subst] scan those lists:
   RandomChecking and CFD_Checking start from a one-tuple seed, and the
   chase keeps templates to a handful of tuples per relation (DESIGN.md
   §10).  Lists are never mutated, no tuple is mutated once added, and
   [subst] hands back every list it does not rewrite as it found it. *)

type column = { rel : string; attr : string; rel_pos : int; pos : int; domain : Domain.t }

let column r ~rel_pos pos =
  let a = Schema.attr r pos in
  { rel = Schema.name r; attr = Attribute.name a; rel_pos; pos; domain = Attribute.domain a }

type var = { col : column; vidx : int }

type cell =
  | V of var
  | C of Value.t

(* Relation positions follow name order, so comparing them compares the
   names; attribute positions follow declaration order, so attributes
   are compared by name. *)
let var_compare a b =
  match Int.compare a.col.rel_pos b.col.rel_pos with
  | 0 -> (
      match String.compare a.col.attr b.col.attr with
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

let pp_var ppf v = Fmt.pf ppf "%s.%s#%d" v.col.rel v.col.attr v.vidx

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

let tuple_equal a b = tuple_compare a b = 0

type t = {
  schema : Db_schema.t;
  rels : tuple list array; (* by position in name order; newest first *)
}

let empty schema = { schema; rels = Array.make (Db_schema.cardinal schema) [] }
let schema t = t.schema
let tuples_at t i = t.rels.(i)
let total t = Array.fold_left (fun acc tuples -> acc + List.length tuples) 0 t.rels

let add_at t i tuple =
  let tuples = t.rels.(i) in
  if List.exists (tuple_equal tuple) tuples then t
  else
    let rels = Array.copy t.rels in
    rels.(i) <- tuple :: tuples;
    { t with rels }

(* --- substitution ------------------------------------------------------------
   Global substitution of one variable by a cell — the chase FD operation
   identifies values, and a variable denotes the same value everywhere.

   Tuples are rewritten in list order and keep their positions.  A
   rewritten tuple equal to an untouched tuple, or to a rewritten tuple
   already kept, is dropped — set semantics, first occurrence wins. *)

let subst t var by =
  let is_var = function V v -> var_compare v var = 0 | C _ -> false in
  let contains (tuple : tuple) = Array.exists is_var tuple in
  let rewrite tuples =
    if not (List.exists contains tuples) then tuples
    else
      let untouched = List.filter (fun tuple -> not (contains tuple)) tuples in
      List.fold_left
        (fun kept tuple ->
          if not (contains tuple) then tuple :: kept
          else
            let tuple' = Array.map (fun cell -> if is_var cell then by else cell) tuple in
            if List.exists (tuple_equal tuple') kept || List.exists (tuple_equal tuple') untouched
            then kept
            else tuple' :: kept)
        [] tuples
      |> List.rev
  in
  { t with rels = Array.map rewrite t.rels }

let column_constants t col =
  List.filter_map
    (fun (tuple : tuple) -> match tuple.(col.pos) with C v -> Some v | V _ -> None)
    t.rels.(col.rel_pos)
  |> List.sort_uniq Value.compare

let variables t =
  Array.fold_left
    (fun acc tuples ->
      List.fold_left
        (fun acc tuple ->
          Array.fold_left
            (fun acc cell ->
              match cell with
              | V v -> if List.exists (fun u -> var_compare u v = 0) acc then acc else v :: acc
              | C _ -> acc)
            acc tuple)
        acc tuples)
    [] t.rels

(* Variables whose attribute has a finite domain — the set the paper's
   valuations Vfinattr range over. *)
let finite_variables t = List.filter (fun v -> Domain.is_finite v.col.domain) (variables t)

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
        let value =
          match Domain.fresh v.col.domain ~avoid:used with
          | Some value -> value
          | None -> (
              (* exhausted finite domain: reuse any member *)
              match Domain.values v.col.domain with
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
  let db = ref (Database.empty t.schema) in
  Array.iteri
    (fun i tuples ->
      let rel = Db_schema.name_at t.schema i in
      List.iter
        (fun tuple ->
          let concrete =
            Tuple.make
              (List.map (function C value -> value | V v -> lookup v) (Array.to_list tuple))
          in
          db := Database.add_tuple !db rel concrete)
        tuples)
    t.rels;
  !db

let pp ppf t =
  Array.iteri
    (fun i tuples ->
      if tuples <> [] then
        Fmt.pf ppf "@[<v2>%s:@ %a@]@." (Db_schema.name_at t.schema i)
          Fmt.(list ~sep:cut pp_tuple) (List.rev tuples))
    t.rels
