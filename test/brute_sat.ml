open Conddep_sat

(* Exhaustive reference solver, the oracle the CDCL core is tested
   against (exponential; small inputs only).  Beyond its capacity it
   answers Unknown — a typed degradation, matching the CDCL solver's
   contract — instead of raising. *)
let solve cnf =
  let n = Cnf.num_vars cnf in
  if n > 24 then Solver.Unknown Guard.Fuel
  else begin
    let assignment = Array.make (n + 1) false in
    let rec go v =
      if v > n then if Cnf.eval assignment cnf then Some (Array.copy assignment) else None
      else begin
        assignment.(v) <- false;
        match go (v + 1) with
        | Some _ as r -> r
        | None ->
            assignment.(v) <- true;
            go (v + 1)
      end
    in
    match go 1 with Some m -> Solver.Sat m | None -> Solver.Unsat
  end
