(* Deduplicating at record time keeps recorders O(distinct reads) even
   when a hot loop (the implication procedure records once per explored
   shape) hits the same dependency or relation millions of times. *)

type t = {
  r_cinds : (Cind.nf, unit) Hashtbl.t;
  r_rels : (string, unit) Hashtbl.t;
}

let create () = { r_cinds = Hashtbl.create 16; r_rels = Hashtbl.create 16 }

let record_cind t nf =
  match t with None -> () | Some t -> Hashtbl.replace t.r_cinds nf ()

let record_rel t rel =
  match t with None -> () | Some t -> Hashtbl.replace t.r_rels rel ()

let mem_cind t nf = Hashtbl.mem t.r_cinds nf
let mem_rel t rel = Hashtbl.mem t.r_rels rel
