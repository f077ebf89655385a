(* Attribute domains.  The paper's static analyses hinge on whether an
   attribute's domain is finite (finattr) or infinite, so the distinction is
   first-class here. *)

type base =
  | Dint
  | Dstring

(* [values] sorted, duplicate-free and nonempty; [sorted] the same values
   as an array, for lookup by bisection. *)
type t =
  | Infinite of base
  | Finite of { values : Value.t list; sorted : Value.t array }

let int_inf = Infinite Dint
let string_inf = Infinite Dstring

let finite values =
  match List.sort_uniq Value.compare values with
  | [] -> invalid_arg "Domain.finite: empty domain"
  | vs -> Finite { values = vs; sorted = Array.of_list vs }

let bool_dom = finite [ Value.Bool false; Value.Bool true ]

let is_finite = function Infinite _ -> false | Finite _ -> true

let values = function Infinite _ -> None | Finite f -> Some f.values

let cardinal = function Infinite _ -> None | Finite f -> Some (Array.length f.sorted)

let base_mem base (v : Value.t) =
  match base, v with
  | Dint, Value.Int _ -> true
  | Dstring, Value.Str _ -> true
  | (Dint | Dstring), _ -> false

(* [v] among [sorted.(lo .. hi - 1)]. *)
let rec bisect sorted v lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let c = Value.compare v sorted.(mid) in
  c = 0 || if c < 0 then bisect sorted v lo mid else bisect sorted v (mid + 1) hi

let mem t v =
  match t with
  | Infinite base -> base_mem base v
  | Finite f -> bisect f.sorted v 0 (Array.length f.sorted)

(* Containment of two sorted, duplicate-free lists, by one merge. *)
let rec sorted_subset vs ws =
  match vs, ws with
  | [], _ -> true
  | _ :: _, [] -> false
  | v :: vs', w :: ws' ->
      let c = Value.compare v w in
      if c = 0 then sorted_subset vs' ws' else c > 0 && sorted_subset vs ws'

(* [subset d1 d2] over-approximates dom(d1) ⊆ dom(d2); it is exact for the
   domain shapes we construct.  The paper assumes dom(Ai) ⊆ dom(Bi) for the
   corresponding attributes of a CIND, and validation enforces it.  A
   domain shared by both attributes answers at once. *)
let subset d1 d2 =
  d1 == d2
  ||
  match d1, d2 with
  | Infinite b1, Infinite b2 -> b1 = b2
  | Infinite _, Finite _ -> false
  | Finite f, Infinite b -> List.for_all (base_mem b) f.values
  | Finite f1, Finite f2 -> sorted_subset f1.values f2.values

let fresh t ~avoid =
  match t with
  | Finite { values = vs; _ } -> List.find_opt (fun v -> not (List.exists (Value.equal v) avoid)) vs
  | Infinite Dint ->
      let max_avoided =
        List.fold_left
          (fun acc v -> match v with Value.Int i when i > acc -> i | _ -> acc)
          (-1) avoid
      in
      Some (Value.Int (max_avoided + 1))
  | Infinite Dstring ->
      let rec go i =
        let candidate = Value.Str (Printf.sprintf "#fresh%d" i) in
        if List.exists (Value.equal candidate) avoid then go (i + 1) else Some candidate
      in
      go 0

let pp_base ppf = function
  | Dint -> Fmt.string ppf "int"
  | Dstring -> Fmt.string ppf "string"

let pp ppf = function
  | Infinite b -> pp_base ppf b
  | Finite f -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma Value.pp) f.values

let equal d1 d2 =
  match d1, d2 with
  | Infinite b1, Infinite b2 -> b1 = b2
  | Finite f1, Finite f2 -> List.equal Value.equal f1.values f2.values
  | Infinite _, Finite _ | Finite _, Infinite _ -> false
