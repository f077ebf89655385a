(* Mixed constraint sets Σ of CFDs and CINDs over a database schema. *)

type t = { cfds : Cfd.t list; cinds : Cind.t list }

type nf = { ncfds : Cfd.nf list; ncinds : Cind.nf list }

let make ?(cfds = []) ?(cinds = []) () = { cfds; cinds }

let union a b = { cfds = a.cfds @ b.cfds; cinds = a.cinds @ b.cinds }

let cardinality t = List.length t.cfds + List.length t.cinds

let validate schema t =
  let ( let* ) r f = Result.bind r f in
  let rec all f = function
    | [] -> Ok ()
    | x :: rest ->
        let* () = f x in
        all f rest
  in
  let* () = all (Cfd.validate schema) t.cfds in
  all (Cind.validate schema) t.cinds

let normalize t =
  {
    ncfds = List.concat_map Cfd.normalize t.cfds;
    ncinds = List.concat_map Cind.normalize t.cinds;
  }

let of_nf nf =
  {
    cfds = List.map Cfd.nf_to_cfd nf.ncfds;
    cinds = List.map Cind.nf_to_cind nf.ncinds;
  }

let holds db t =
  List.for_all (Cfd.holds db) t.cfds && List.for_all (Cind.holds db) t.cinds

let nf_holds db nf =
  List.for_all (Cfd.nf_holds db) nf.ncfds && List.for_all (Cind.nf_holds db) nf.ncinds

(* CFDs of Σ defined on relation R — the paper's CFD(R). *)
let cfds_on nf rel = List.filter (fun c -> String.equal c.Cfd.nf_rel rel) nf.ncfds

(* CINDs of Σ from Ri to Rj — the paper's CIND(Ri, Rj). *)
let cinds_between nf ~src ~dst =
  List.filter
    (fun c -> String.equal c.Cind.nf_lhs src && String.equal c.Cind.nf_rhs dst)
    nf.ncinds

(* All constants of Σ grouped per (relation, attribute). *)
let constants nf =
  List.concat_map
    (fun (c : Cfd.nf) ->
      List.map (fun (a, v) -> (c.Cfd.nf_rel, a, v)) (Cfd.nf_constants c))
    nf.ncfds
  @ List.concat_map Cind.nf_constants nf.ncinds

let pp ppf t =
  Fmt.pf ppf "@[<v>%a%a%a@]"
    Fmt.(list Cfd.pp)
    t.cfds
    Fmt.(if t.cfds <> [] && t.cinds <> [] then cut else nop)
    ()
    Fmt.(list Cind.pp)
    t.cinds

let pp_nf ppf nf =
  Fmt.pf ppf "@[<v>%a%a%a@]"
    Fmt.(list Cfd.pp_nf)
    nf.ncfds
    Fmt.(if nf.ncfds <> [] && nf.ncinds <> [] then cut else nop)
    ()
    Fmt.(list Cind.pp_nf)
    nf.ncinds
