(* Minimal covers (Section 8, future work): remove from Σ every constraint
   implied by the rest.  Implication of CINDs is EXPTIME-complete and that
   of CFDs coNP-complete, so the greedy removal below is exact but
   worst-case expensive.  CFD implication is a SAT call on a small CNF and
   always decides; a per-call cap on CIND implication ([max_states]) turns
   that half into the heuristic the paper anticipates — when a test hits
   its cap the constraint is conservatively kept. *)

let greedy ~implied items =
  let rec go kept = function
    | [] -> List.rev kept
    | x :: rest ->
        let others = List.rev_append kept rest in
        if implied others x then go kept rest else go (x :: kept) rest
  in
  go [] items

(* An [Undetermined] test keeps the constraint, but a spent ambient budget
   must still surface as the exhaustion it is — only Implication's own
   [max_states] cap is the heuristic give-up. *)
let keep_or_reraise = function
  | Implication.Implied -> true
  | Implication.Not_implied -> false
  | Implication.Undetermined _ ->
      Guard.reraise_if_spent ();
      false

let cind_cover schema sigma =
  let implied others psi =
    keep_or_reraise (Implication.decide ~max_states:20_000 schema ~sigma:others psi)
  in
  greedy ~implied sigma

let cfd_cover schema sigma =
  let implied others phi =
    keep_or_reraise (Cfd_implication.decide schema ~sigma:others phi)
  in
  greedy ~implied sigma

(* Drop exact syntactic duplicates first — cheap and always safe. *)
let dedup_cinds sigma =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest ->
        let x = Cind.canon_nf x in
        if List.exists (Cind.nf_equal x) acc then go acc rest else go (x :: acc) rest
  in
  go [] sigma

let dedup_cfds sigma =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest ->
        if List.exists (Cfd.nf_equal x) acc then go acc rest else go (x :: acc) rest
  in
  go [] sigma
