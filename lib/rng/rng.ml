(* A small deterministic PRNG (splitmix64) so that every experiment in the
   repository is reproducible from a seed, independent of the stdlib's
   Random state. *)

type t = { mutable state : int64 }

let make seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod n

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Bernoulli with probability [p] (in [0, 1]). *)
let chance t p = float_of_int (int t 1_000_000) < p *. 1_000_000.

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let split t = make (Int64.to_int (next_int64 t))

(* In index order, not List.init order: item i of a batch gets the i-th
   split whatever order the items are later consumed in. *)
let split_n t n =
  let rec go acc k = if k = 0 then List.rev acc else go (split t :: acc) (k - 1) in
  go [] n
