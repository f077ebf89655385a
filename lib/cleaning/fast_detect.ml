open Conddep_core

(* Violation detection over the satisfaction scans of the core
   ([Cfd.nf_violations], [Cind.nf_violations]).  Violations come out in
   the order of the pair-scan specification (a pairwise oracle in the test
   suite checks it list for list): Σ order, CFDs before CINDs; a CFD's
   pairs by ascending t1, then t2; a CIND's tuples ascending.  Repair
   applies fixes in this order, so it is part of the contract. *)

let detect db (sigma : Sigma.nf) =
  Telemetry.with_span "detect.fast" @@ fun () ->
  List.concat_map
    (fun nf ->
      List.map (fun (t1, t2) -> Violation.Cfd_violation { nf; t1; t2 }) (Cfd.nf_violations db nf))
    sigma.Sigma.ncfds
  @ List.concat_map
      (fun nf ->
        List.map (fun tuple -> Violation.Cind_violation { nf; tuple }) (Cind.nf_violations db nf))
      sigma.Sigma.ncinds

let is_clean = Sigma.nf_holds
