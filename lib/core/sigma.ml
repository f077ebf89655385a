(* Mixed constraint sets Σ of CFDs and CINDs over a database schema. *)

type t = { cfds : Cfd.t list; cinds : Cind.t list }

type nf = { ncfds : Cfd.nf list; ncinds : Cind.nf list }

let make ?(cfds = []) ?(cinds = []) () = { cfds; cinds }

let union a b = { cfds = a.cfds @ b.cfds; cinds = a.cinds @ b.cinds }

let cardinality t = List.length t.cfds + List.length t.cinds

let validate schema t =
  let rec all validate = function
    | [] -> Ok ()
    | x :: rest -> ( match validate schema x with Ok () -> all validate rest | e -> e)
  in
  match all Cfd.validate t.cfds with Ok () -> all Cind.validate t.cinds | e -> e

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

(* Σ repeats few constants many times, so deduplicating through a table
   before sorting sorts far fewer values than [List.sort_uniq] would. *)
let constant_values nf =
  let seen = Hashtbl.create 64 in
  let add (_, v) = Hashtbl.replace seen v () in
  List.iter (fun c -> List.iter add (Cfd.nf_constants c)) nf.ncfds;
  List.iter
    (fun (c : Cind.nf) ->
      List.iter add c.nf_xp;
      List.iter add c.nf_yp)
    nf.ncinds;
  List.sort Conddep_relational.Value.compare
    (Hashtbl.fold (fun v () acc -> v :: acc) seen [])

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
