(* The session workload: an incremental Cind_session driven in process by
   a generated script in cindtool's session syntax.  A session's unit of
   work is one script line, which the [cindtool session] command does not
   expose per line. *)

open Conddep_relational
open Conddep_core
module Api = Cind_api

(* --- generation ------------------------------------------------------------ *)

type script = { file : string; setup : string list; pass : string list }

(* A session's Σ (|Σ| = 200), reserve constraints, goals and database,
   and the pass its script repeats.  Every pass leaves Σ as it found it
   and re-inserts the same tuples, so the work of one pass is the work of
   the next.  Σ has infinite domains only: with finite ones, a few
   implication goals per hundred cost a thousand times the others, and
   which ones a seed draws would decide the numbers. *)
let generate ~smoke ~dir ~index r =
  let rels = Gen.schema r { Pools.fig11_schema with Gen.finite_ratio = 0. } in
  let size = if smoke then 40 else 200 in
  let c = Gen.fig11 size in
  let cfds, cinds = Gen.sigma r c rels ~consistent:true in
  let reserve_cfds, reserve_cinds =
    let cfds, cinds = Gen.sigma r (Gen.fig11 (size / 10)) rels ~consistent:false in
    ( List.map (fun x -> { x with Gen.cfd_name = "reserve_" ^ x.Gen.cfd_name }) cfds,
      List.map (fun x -> { x with Gen.cind_name = "reserve_" ^ x.Gen.cind_name }) cinds )
  in
  let goals = List.init 10 (fun i -> Gen.gen_cind r c rels ~consistent:false (Printf.sprintf "goal%d" i)) in
  let row rel = List.map (fun a -> Gen.pick r (Gen.const_pool c a)) rel.Gen.attrs in
  let instances =
    List.map
      (fun rel -> (rel.Gen.rname, List.map Gen.witness rel.Gen.attrs :: List.init 20 (fun _ -> row rel)))
      rels
  in
  let file = Filename.concat dir (Printf.sprintf "session%d.cind" index) in
  Pools.write file
    (Gen.print_doc
       { Gen.rels; cfds = cfds @ reserve_cfds; cinds = cinds @ reserve_cinds @ goals; instances });
  let members = List.map (fun x -> x.Gen.cfd_name) cfds @ List.map (fun x -> x.Gen.cind_name) cinds in
  let reserve = List.map (fun x -> x.Gen.cfd_name) reserve_cfds @ List.map (fun x -> x.Gen.cind_name) reserve_cinds in
  let cind_names = List.map (fun x -> x.Gen.cind_name) cinds @ List.map (fun x -> x.Gen.cind_name) goals in
  (* 84 lines: 12 edits of Σ (6 pairs of an edit and its undoing), each
     followed by a check as a user re-checks after editing, 12 inserts and
     48 other queries: 71% queries, 29% edits.  Checks always recompute
     and make up a fifth of the queries, cache hits about two thirds, so
     the median and the 90th percentile each fall inside one group rather
     than between two. *)
  let scale = if smoke then 4 else 1 in
  let pairs = 6 / scale in
  let queries =
    List.concat
      [
        List.init (16 / scale) (fun _ -> "consistent " ^ (Gen.pick r rels).Gen.rname);
        List.init (16 / scale) (fun _ -> "implies " ^ Gen.pick r cind_names);
        List.init (16 / scale) (fun _ -> "holds");
      ]
  in
  let inserts =
    List.init (12 / scale) (fun _ ->
        let rel = Gen.pick r rels in
        "insert " ^ rel.Gen.rname ^ " " ^ String.concat "," (row rel))
  in
  (* edit pairs touch distinct constraints, so each undoes its own edit *)
  let members_left = ref (Gen.shuffle r members) and reserve_left = ref (Gen.shuffle r reserve) in
  let pair () =
    match (Gen.bool r, !members_left, !reserve_left) with
    | true, n :: rest, _ | false, n :: rest, [] ->
        members_left := rest;
        ("remove " ^ n, "add " ^ n)
    | _, _, n :: rest ->
        reserve_left := rest;
        ("add " ^ n, "remove " ^ n)
    | _, [], [] -> failwith "session: no constraint left to edit"
  in
  let edits = List.init pairs (fun _ -> pair ()) in
  (* each pair's label appears twice; its first edit comes first *)
  let labels = Gen.shuffle r (List.concat_map (fun i -> [ i; i ]) (List.init pairs Fun.id)) in
  let seen = Array.make pairs false in
  let edit_lines =
    List.map
      (fun i ->
        let first, second = List.nth edits i in
        let line = if seen.(i) then second else first in
        seen.(i) <- true;
        line)
      labels
  in
  (* shuffle the other lines, then thread the edits, each with its check,
     through them in order at random positions *)
  let singles = Gen.shuffle r (queries @ inserts) in
  let slots = Gen.shuffle r (List.init (List.length singles + List.length edit_lines) (fun i -> i < List.length edit_lines)) in
  let rec weave slots singles edits =
    match (slots, singles, edits) with
    | true :: slots, _, e :: edits -> e :: "check" :: weave slots singles edits
    | false :: slots, s :: singles, _ -> s :: weave slots singles edits
    | _ -> []
  in
  { file; setup = ("load " ^ file) :: List.map (fun n -> "add " ^ n) members; pass = weave slots singles edit_lines }

(* Independent sessions, as distinct users would hold: the numbers
   average over several Σ instead of resting on one. *)
let sessions = 24

let generate_all ~smoke ~dir r =
  List.init (if smoke then 2 else sessions) (fun index -> generate ~smoke ~dir ~index (Gen.split r))

(* --- interpreter -------------------------------------------------------------- *)

type state = {
  mutable session : Cind_session.t option;
  pool : (string, [ `Cind of Cind.nf list | `Cfd of Cfd.nf list ]) Hashtbl.t;
}

let fresh () = { session = None; pool = Hashtbl.create 256 }
let session st = Option.get st.session

type kind = Query of string | Edit of string

let kind line =
  match String.split_on_char ' ' line with
  | ("check" | "consistent" | "implies" | "holds") as w :: _ -> Query w
  | w :: _ -> Edit w
  | [] -> Edit ""

type answer = Verdict of Api.verdict | Holds of bool | Done

(* Implication of a multi-row CIND is the conjunction over its normal
   forms, as in cindtool. *)
let conj a b =
  match (a, b) with
  | Api.No, _ | _, Api.No -> Api.No
  | Api.Unknown r, _ | _, Api.Unknown r -> Api.Unknown r
  | Api.Yes _, Api.Yes _ -> Api.Yes None

let exec st line =
  match String.split_on_char ' ' line with
  | [ "load"; file ] ->
      let doc = Layers.load file in
      let s = Cind_session.create ~seed:Layers.check_seed doc.schema in
      List.iter (fun (c : Cind.t) -> Hashtbl.replace st.pool c.name (`Cind (Cind.normalize c))) doc.sigma.Sigma.cinds;
      List.iter (fun (c : Cfd.t) -> Hashtbl.replace st.pool c.name (`Cfd (Cfd.normalize c))) doc.sigma.Sigma.cfds;
      List.iter (fun (rel, tuples) -> Cind_session.insert_tuples s ~rel tuples) doc.instances;
      st.session <- Some s;
      Done
  | [ "add"; n ] ->
      (match Hashtbl.find st.pool n with
      | `Cind nfs -> List.iter (Cind_session.add_cind (session st)) nfs
      | `Cfd nfs -> List.iter (Cind_session.add_cfd (session st)) nfs);
      Done
  | [ "remove"; n ] ->
      (match Hashtbl.find st.pool n with
      | `Cind nfs -> List.iter (Cind_session.remove_cind (session st)) nfs
      | `Cfd nfs -> List.iter (Cind_session.remove_cfd (session st)) nfs);
      Done
  | [ "insert"; rel; values ] ->
      let values = String.split_on_char ',' values |> List.map (fun v -> Value.Str v) in
      Cind_session.insert_tuples (session st) ~rel [ Tuple.make values ];
      Done
  | [ "check" ] -> Verdict (Cind_session.check (session st))
  | [ "consistent"; rel ] -> Verdict (Cind_session.consistent (session st) ~rel)
  | [ "implies"; n ] -> (
      match Hashtbl.find st.pool n with
      | `Cind nfs ->
          Verdict (List.fold_left (fun acc nf -> conj acc (Cind_session.implies (session st) nf)) (Api.Yes None) nfs)
      | `Cfd _ -> failwith "implies: the goal must be a CIND")
  | [ "holds" ] -> Holds (Cind_session.holds (session st))
  | _ -> failwith ("unrecognised script line: " ^ line)

let decided = function Verdict (Api.Yes _ | Api.No) | Holds _ -> true | Verdict (Api.Unknown _) | Done -> false

let show = function
  | Verdict v -> Fmt.str "%a" Api.pp_verdict v
  | Holds b -> string_of_bool b
  | Done -> "ok"

(* --- oracle ------------------------------------------------------------------- *)

(* Compare one query answer with fresh Cind_api calls on the session's
   current state: implication is exact, so the answers must be equal;
   holds must equal Fast_detect.is_clean; a Yes must carry a witness that
   satisfies what was asked; and a No must not meet a verified Yes from
   the complete SAT backend. *)
let judge st line answer =
  let s = session st in
  let schema = Cind_session.schema s and sigma = Cind_session.sigma s and db = Cind_session.database s in
  let rng () = Rng.make Layers.check_seed in
  match (String.split_on_char ' ' line, answer) with
  | [ "holds" ], Holds b ->
      if b <> Conddep_cleaning.Fast_detect.is_clean db sigma then Some "holds differs from Fast_detect.is_clean" else None
  | [ "implies"; n ], Verdict v -> (
      match Hashtbl.find st.pool n with
      | `Cind nfs ->
          let fresh =
            List.fold_left (fun acc nf -> conj acc (Api.implies schema ~sigma:sigma.Sigma.ncinds nf)) (Api.Yes None) nfs
          in
          if Fmt.str "%a" Api.pp_verdict fresh <> Fmt.str "%a" Api.pp_verdict v then
            Some (Fmt.str "implies: session %a, fresh %a" Api.pp_verdict v Api.pp_verdict fresh)
          else None
      | `Cfd _ -> None)
  | [ "consistent"; rel ], Verdict v -> (
      let cfds = Sigma.cfds_on sigma rel in
      match v with
      | Api.Yes (Some w) when not (Sigma.nf_holds w { Sigma.ncfds = cfds; ncinds = [] }) ->
          Some "consistent: witness violates CFD(R)"
      | Api.No -> (
          match Api.consistent ~backend:Api.Sat_backend ~rng:(rng ()) schema cfds ~rel with
          | Api.Yes _ -> Some "consistent: session No, SAT backend Yes"
          | _ -> None)
      | _ -> None)
  | [ "check" ], Verdict v -> (
      match v with
      | Api.Yes (Some w) when not (Sigma.nf_holds w sigma) -> Some "check: witness violates Σ"
      | Api.No -> (
          match Api.check ~backend:Api.Sat_backend ~k:Layers.check_k ~rng:(rng ()) schema sigma with
          | Api.Yes (Some w) when Sigma.nf_holds w sigma -> Some "check: session No, verified Yes exists"
          | _ -> None)
      | _ -> None)
  | _ -> None
