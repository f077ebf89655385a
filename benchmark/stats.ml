(* Order statistics over samples. *)

let sorted l = List.sort Float.compare l |> Array.of_list

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile l p =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let i = truncate h in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile l 0.5

(* Quartiles exactly as Python's [statistics.quantiles(l, n=4)] computes
   them (the default "exclusive" method), so spreads read the same here
   as in any Python check of the same results. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let sum l = List.fold_left ( +. ) 0. l
let mean l = match l with [] -> 0. | _ -> sum l /. float_of_int (List.length l)
let ratio a b = if b = 0. then 0. else a /. b
