open Conddep_relational
open Conddep_core
open Conddep_cleaning

(* The reference violation detector, chosen for being obviously correct
   rather than fast, and sharing no code with the detector in lib/: every
   ordered pair of tuples per CFD and the relational anti-join per CIND
   (the SQL detection query of [9]).  Differential tests hold [Fast_detect]
   and [Sigma.nf_holds] to it, list for list and order included, and
   [Repair]'s loops to the ones below.  Whole CFDs and CINDs, which lib/
   checks through their normal forms, are read here off their tableaux
   row by row, so the tests also check that normalization keeps their
   meaning (Prop 3.1). *)

(* An ordered pair (possibly one tuple twice) violates (X -> A, tp) when
   both tuples match tp[X] with equal X-values, and they differ on A or
   miss tp[A]. *)
let pair_satisfies sch (nf : Cfd.nf) t1 t2 =
  let xpos = List.map (Schema.position sch) nf.Cfd.nf_x in
  let apos = Schema.position sch nf.nf_a in
  let x1 = Tuple.proj t1 xpos and x2 = Tuple.proj t2 xpos in
  if List.equal Value.equal x1 x2 && Pattern.matches x1 nf.nf_tx then
    Value.equal (Tuple.get t1 apos) (Tuple.get t2 apos)
    && Pattern.match_cell (Tuple.get t1 apos) nf.nf_ta
  else true

(* The violating pairs by ascending t1, then ascending t2. *)
let cfd_violations db (nf : Cfd.nf) =
  let rel = Database.relation db nf.Cfd.nf_rel in
  let sch = Relation.schema rel in
  let tuples = Relation.tuples rel in
  List.concat_map
    (fun t1 ->
      List.filter_map
        (fun t2 -> if pair_satisfies sch nf t1 t2 then None else Some (t1, t2))
        tuples)
    tuples

(* Triggering LHS tuples minus those with a partner in the
   pattern-restricted RHS relation, ascending. *)
let cind_violations db (nf : Cind.nf) =
  let schema = Database.schema db in
  let r1 = Db_schema.find schema nf.Cind.nf_lhs in
  let r2 = Db_schema.find schema nf.nf_rhs in
  let select r cells rel =
    Algebra.select_pattern r (List.map fst cells)
      (List.map (fun (_, v) -> Pattern.Const v) cells)
      rel
  in
  let triggering = select r1 nf.nf_xp (Database.relation db nf.nf_lhs) in
  let restricted = select r2 nf.nf_yp (Database.relation db nf.nf_rhs) in
  let lpos = List.map (Schema.position r1) nf.nf_x in
  let rpos = List.map (Schema.position r2) nf.nf_y in
  Relation.tuples (Algebra.anti_join triggering ~lpos restricted ~rpos)

(* A CFD (X -> Y, Tp) read off its tableau, with no normal form: for
   every row tp and ordered pair of tuples, t1[X] = t2[X] ≍ tp[X]
   implies t1[Y] = t2[Y] ≍ tp[Y]. *)
let cfd_holds db (cfd : Cfd.t) =
  let rel = Database.relation db cfd.Cfd.rel in
  let sch = Relation.schema rel in
  let xpos = List.map (Schema.position sch) cfd.x and ypos = List.map (Schema.position sch) cfd.y in
  let tuples = Relation.tuples rel in
  List.for_all
    (fun (row : Cfd.row) ->
      List.for_all
        (fun t1 ->
          List.for_all
            (fun t2 ->
              let x1 = Tuple.proj t1 xpos and y1 = Tuple.proj t1 ypos in
              (not (List.equal Value.equal x1 (Tuple.proj t2 xpos) && Pattern.matches x1 row.rx))
              || (List.equal Value.equal y1 (Tuple.proj t2 ypos) && Pattern.matches y1 row.ry))
            tuples)
        tuples)
    cfd.rows

(* A CIND read off its tableau (Section 2), with no normal form: t1 of R1
   violates row tp when t1[X, Xp] ≍ tp[X, Xp] and no t2 of R2 has
   t1[X] = t2[Y] and t2[Yp] ≍ tp[Yp].  Pairs (row, t1) in row order,
   each row's tuples ascending. *)
let cind_row_violations db (cind : Cind.t) =
  let rel1 = Database.relation db cind.Cind.lhs and rel2 = Database.relation db cind.rhs in
  let sch1 = Relation.schema rel1 and sch2 = Relation.schema rel2 in
  let xpos = List.map (Schema.position sch1) cind.x and xppos = List.map (Schema.position sch1) cind.xp in
  let ypos = List.map (Schema.position sch2) cind.y and yppos = List.map (Schema.position sch2) cind.yp in
  List.concat_map
    (fun (row : Cind.row) ->
      let triggers t1 =
        Pattern.matches (Tuple.proj t1 xpos) row.cx && Pattern.matches (Tuple.proj t1 xppos) row.cxp
      in
      let witness t1 t2 =
        List.equal Value.equal (Tuple.proj t1 xpos) (Tuple.proj t2 ypos)
        && Pattern.matches (Tuple.proj t2 yppos) row.cyp
      in
      List.filter_map
        (fun t1 ->
          if triggers t1 && not (List.exists (witness t1) (Relation.tuples rel2)) then Some (row, t1)
          else None)
        (Relation.tuples rel1))
    cind.rows

let cind_holds db cind = cind_row_violations db cind = []

let detect db (sigma : Sigma.nf) =
  List.concat_map
    (fun nf ->
      List.map (fun (t1, t2) -> Violation.Cfd_violation { nf; t1; t2 }) (cfd_violations db nf))
    sigma.Sigma.ncfds
  @ List.concat_map
      (fun nf ->
        List.map (fun tuple -> Violation.Cind_violation { nf; tuple }) (cind_violations db nf))
      sigma.Sigma.ncinds

let is_clean db sigma = detect db sigma = []

(* Violation lists equal element by element, order included.  Tuples are
   abstract, so they are compared with [Tuple.equal], not [=];
   [nf] physically, since every detector copies it out of the same Σ. *)
let same_violations =
  List.equal (fun a b ->
      match (a, b) with
      | Violation.Cfd_violation a, Violation.Cfd_violation b ->
          a.nf == b.nf && Tuple.equal a.t1 b.t1 && Tuple.equal a.t2 b.t2
      | Cind_violation a, Cind_violation b -> a.nf == b.nf && Tuple.equal a.tuple b.tuple
      | _ -> false)

(* [Repair.repair] spelled out over this detector: fix in detection
   order, leaving out a violation once a tuple it names is gone from the
   database (an earlier fix of the round rewrote it), with one filler for
   the run, and answer the database with the fewest violations seen, the
   earliest on a tie. *)
let repair ?(max_rounds = 5) schema sigma db =
  let filler = Repair.filler () in
  let present db rel t = List.exists (Tuple.equal t) (Relation.tuples (Database.relation db rel)) in
  let fix db v =
    let names_gone =
      match v with
      | Violation.Cfd_violation { nf; t1; t2 } ->
          not (present db nf.Cfd.nf_rel t1 && present db nf.nf_rel t2)
      | Cind_violation { nf; tuple } -> not (present db nf.Cind.nf_lhs tuple)
    in
    if names_gone then db else List.fold_left Repair.apply db (Repair.suggest schema filler db v)
  in
  let rec go seen db round =
    let violations = detect db sigma in
    let seen = (List.length violations, db) :: seen in
    if violations = [] || round >= max_rounds then
      (* the earliest of the fewest: [seen] is newest first *)
      snd (List.fold_left (fun best s -> if fst s <= fst best then s else best) (List.hd seen) seen)
    else go seen (List.fold_left fix db violations) (round + 1)
  in
  go [] db 0
