open Conddep_relational
open Conddep_core

(* The extended chase of Section 5.1.

   Chase operations transform database templates:

   - IND(ψ): for a tuple ta of Ra with ta[Xp] = tp[Xp], if no tuple of Rb
     matches ta on the embedded inclusion and carries tp[Yp], add one; its
     unconstrained fields take random variables from the bounded pools.
   - FD(φ): for tuples t1, t2 with t1[X] = t2[X] ≍ tp[X] violating the
     conclusion, identify values by replacing the smaller cell by the
     larger (variables sit below constants), substituting globally; the
     operation is undefined when two distinct constants clash.

   Every relation is bounded by the threshold T of chase_I; exceeding it
   makes the chase undefined (Section 5.2).  A cap on IND steps guards
   against ping-pong between pool re-use and merging.  Finite-domain
   fields stay pool variables: CFD_Checking's valuations give them values
   (RandomChecking's improvement at the end of Section 5.2).

   The chase follows one *canonical schedule* (see DESIGN.md §10):

   - the next FD operation is the first CFD in compiled order that has a
     violating pair, applied to the lexicographically least such pair
     (tuples ordered by [Template.tuple_compare], pair normalized so the
     smaller tuple comes first);
   - the next IND operation is found by a round-robin cursor over the
     CINDs (resuming after the last applied one — fairness), applied to
     the least triggering tuple without a witness.

   Every loop finds its next operation by rescanning the template with
   the single operations [fd_step] and [ind_step].  The FD fixpoint skips
   a CFD whose relation still holds the very tuple list (physically) on
   which that CFD last found no violating pair: [fd_step] on that list
   would answer [Fd_unchanged] again. *)

type config = {
  pool_size : int; (* N: maximum size of each var[A] *)
  threshold : int; (* T: maximum tuples per relation in chase_I *)
  max_steps : int; (* cap on the IND steps of one chase *)
}

let m_fd_steps = Telemetry.counter "chase.fd_steps" ~doc:"FD(phi) applications (value identifications)"
let m_ind_steps = Telemetry.counter "chase.ind_steps" ~doc:"IND(psi) applications (witness tuples added)"
let m_fd_undefined = Telemetry.counter "chase.fd_undefined" ~doc:"FD(phi) constant clashes (chase undefined)"
let m_threshold_hits = Telemetry.counter "chase.threshold_hits" ~doc:"IND(psi) refusals: relation at the bound T"
let m_fd_clean_skips = Telemetry.counter "chase.fd_clean_skips" ~doc:"FD(phi) rescans skipped: relation unchanged since the CFD last held"

let default_config = { pool_size = 2; threshold = 2000; max_steps = 20_000 }

(* --- compiled constraints (attribute names resolved to positions) ---

   Relations are resolved to their positions in the template
   ([Db_schema.find_indexed]) as well as attributes. *)

type compiled_cind = {
  i_name : string;
  i_rhs : string;
  i_lhs_idx : int;
  i_rhs_idx : int;
  i_rhs_arity : int;
  i_xp : (int * Value.t) list;
  i_copy : (int * int) list;
  i_yp : (int * Value.t) list;
  i_rest : (int * string) list; (* unconstrained RHS fields: position, attribute *)
}

type compiled_cfd = {
  f_name : string;
  f_rel : string;
  f_idx : int;
  f_tx : (int * Pattern.cell) list;
  f_a : int;
  f_ta : Pattern.cell;
  mutable f_clean : Template.tuple list;
      (* the relation's tuples when [fd_step] last answered [Fd_unchanged];
         [[]] at first, on which no pair violates anything *)
}

let compile_cind schema (nf : Cind.nf) =
  let r1, lhs_idx = Db_schema.find_indexed schema nf.Cind.nf_lhs in
  let r2, rhs_idx = Db_schema.find_indexed schema nf.nf_rhs in
  let copy =
    List.map2 (fun a b -> (Schema.position r1 a, Schema.position r2 b)) nf.nf_x nf.nf_y
  in
  let yp = List.map (fun (b, v) -> (Schema.position r2 b, v)) nf.nf_yp in
  let determined = Array.make (Schema.arity r2) false in
  List.iter (fun (_, ypos) -> determined.(ypos) <- true) copy;
  List.iter (fun (pos, _) -> determined.(pos) <- true) yp;
  let rest =
    List.filteri (fun pos _ -> not determined.(pos)) (Schema.attrs r2)
    |> List.map (fun attr -> (Schema.position r2 (Attribute.name attr), Attribute.name attr))
  in
  {
    i_name = nf.nf_name;
    i_rhs = nf.nf_rhs;
    i_lhs_idx = lhs_idx;
    i_rhs_idx = rhs_idx;
    i_rhs_arity = Schema.arity r2;
    i_xp = List.map (fun (a, v) -> (Schema.position r1 a, v)) nf.nf_xp;
    i_copy = copy;
    i_yp = yp;
    i_rest = rest;
  }

let compile_cfd schema (nf : Cfd.nf) =
  let r, idx = Db_schema.find_indexed schema nf.Cfd.nf_rel in
  {
    f_name = nf.nf_name;
    f_rel = nf.nf_rel;
    f_idx = idx;
    f_tx = List.map2 (fun a c -> (Schema.position r a, c)) nf.nf_x nf.nf_tx;
    f_a = Schema.position r nf.nf_a;
    f_ta = nf.nf_ta;
    f_clean = [];
  }

type compiled = { cinds : compiled_cind list; cfds : compiled_cfd list }

let compile schema (sigma : Sigma.nf) =
  {
    cinds = List.map (compile_cind schema) sigma.Sigma.ncinds;
    cfds = List.map (compile_cfd schema) sigma.ncfds;
  }

(* --- FD(φ) --- *)

type fd_result =
  | Fd_changed of Template.t
  | Fd_unchanged
  | Fd_undefined of string

(* What one FD(φ) application to a violating pair would do. *)
type fd_action =
  | Act_clash of string (* chase undefined: distinct constants *)
  | Act_subst of (Template.var * Template.cell) list (* nonempty *)

(* Evaluate the pair (t1, t2) — which may be a self-pair (t, t): a single
   tuple matching tp[X] can clash with a constant conclusion pattern all
   by itself.  Returns [None] when the pair does not violate [cfd]. *)
let fd_violation cfd (t1 : Template.tuple) (t2 : Template.tuple) =
  let lhs_agree_and_match =
    List.for_all
      (fun (pos, cell) ->
        Template.cell_equal t1.(pos) t2.(pos)
        && Template.cell_matches_pattern t1.(pos) cell)
      cfd.f_tx
  in
  if not lhs_agree_and_match then None
  else
    let a1 = t1.(cfd.f_a) and a2 = t2.(cfd.f_a) in
    match cfd.f_ta with
    | Pattern.Wildcard -> (
        if Template.cell_equal a1 a2 then None
        else
          match a1, a2 with
          | Template.C _, Template.C _ ->
              Some
                (Act_clash
                   (Fmt.str "FD(%s): distinct constants %a, %a" cfd.f_name
                      Template.pp_cell a1 Template.pp_cell a2))
          | _ ->
              (* replace the smaller cell by the larger one *)
              let small, large =
                if Template.cell_compare a1 a2 < 0 then (a1, a2) else (a2, a1)
              in
              let var =
                match small with Template.V v -> v | Template.C _ -> assert false
              in
              Some (Act_subst [ (var, large) ]))
    | Pattern.Const a ->
        let conflict c =
          match c with
          | Template.C v -> not (Value.equal v a)
          | Template.V _ -> false
        in
        if conflict a1 || conflict a2 then
          Some
            (Act_clash
               (Fmt.str "FD(%s): constant clashes with pattern %a" cfd.f_name
                  Value.pp a))
        else
          let substs =
            match a1, a2 with
            | Template.V v1, Template.V v2 when Template.var_compare v1 v2 = 0 ->
                [ (v1, Template.C a) ]
            | Template.V v1, Template.V v2 -> [ (v1, Template.C a); (v2, Template.C a) ]
            | Template.V v, Template.C _ | Template.C _, Template.V v ->
                [ (v, Template.C a) ]
            | Template.C _, Template.C _ -> []
          in
          if substs = [] then None else Some (Act_subst substs)

(* Canonical pair selection: fold violating pairs keeping the least
   normalized pair (u <= v) under the lexicographic tuple order.  The
   violation itself is only evaluated when the pair key improves on the
   current best — the common case is a cheap two-comparison skip. *)
let fd_consider cfd best t1 t2 =
  let u, v =
    if Template.tuple_compare t1 t2 <= 0 then (t1, t2) else (t2, t1)
  in
  let better =
    match best with
    | None -> true
    | Some (bu, bv, _) -> (
        match Template.tuple_compare u bu with
        | 0 -> Template.tuple_compare v bv < 0
        | c -> c < 0)
  in
  if not better then best
  else match fd_violation cfd u v with None -> best | Some act -> Some (u, v, act)

(* One FD(φ) application to the canonical least violating pair of [cfd],
   found by scanning every pair of its relation, self-pairs included. *)
let fd_step cfd db =
  let all = Template.tuples_at db cfd.f_idx in
  let best =
    List.fold_left
      (fun best p -> List.fold_left (fun best t -> fd_consider cfd best p t) best all)
      None all
  in
  match best with
  | None -> Fd_unchanged
  | Some (_, _, Act_clash why) -> Fd_undefined why
  | Some (_, _, Act_subst bindings) ->
      Fd_changed
        (List.fold_left (fun db (var, cell) -> Template.subst db var cell) db bindings)

(* Chase with CFDs only, to fixpoint: apply the first CFD in compiled
   order whose [fd_step] changes the template, until none does.  Every
   applied step substitutes at least one variable away everywhere, so a
   pass takes at most as many steps as the template has variables and
   needs no cap of its own; each step ticks the ambient budget.

   A CFD whose relation still holds its [f_clean] list is skipped: lists
   and tuples are immutable and [fd_step] reads nothing else, so it would
   answer [Fd_unchanged] again.  Only such answers are skipped, so the
   schedule is the memo-free loop's.  The memo outlives the call: an IND
   step or a [subst] leaves most relations' lists as they were. *)
let fd_fixpoint cfds db =
  let rec go db = function
    | [] -> Ok db
    | cfd :: rest when Template.tuples_at db cfd.f_idx == cfd.f_clean ->
        Telemetry.incr m_fd_clean_skips;
        go db rest
    | cfd :: rest -> (
        match fd_step cfd db with
        | Fd_unchanged ->
            cfd.f_clean <- Template.tuples_at db cfd.f_idx;
            go db rest
        | Fd_undefined why ->
            Telemetry.incr m_fd_undefined;
            Error why
        | Fd_changed db' ->
            Telemetry.incr m_fd_steps;
            Guard.tick ();
            go db' cfds)
  in
  go db cfds

(* --- IND(ψ) --- *)

let triggers cind (ta : Template.tuple) =
  List.for_all
    (fun (pos, v) -> Template.cell_equal ta.(pos) (Template.C v))
    cind.i_xp

let has_witness cind db (ta : Template.tuple) =
  List.exists
    (fun (tb : Template.tuple) ->
      List.for_all (fun (xpos, ypos) -> Template.cell_equal tb.(ypos) ta.(xpos)) cind.i_copy
      && List.for_all
           (fun (pos, v) -> Template.cell_equal tb.(pos) (Template.C v))
           cind.i_yp)
    (Template.tuples_at db cind.i_rhs_idx)

(* Build the witness tuple IND(ψ) inserts for [ta]: copied and pattern
   fields, and a pool variable in every unconstrained field. *)
let witness_tuple pool rng cind (ta : Template.tuple) =
  let tb = Array.make cind.i_rhs_arity (Template.C (Value.Int 0)) in
  List.iter (fun (xpos, ypos) -> tb.(ypos) <- ta.(xpos)) cind.i_copy;
  List.iter (fun (pos, v) -> tb.(pos) <- Template.C v) cind.i_yp;
  List.iter (fun (pos, attr) -> tb.(pos) <- Pool.pick pool rng ~rel:cind.i_rhs ~attr) cind.i_rest;
  tb

type ind_result =
  | Ind_changed of Template.t
  | Ind_unchanged
  | Ind_overflow of string

(* One IND(ψ) application to the least (by tuple order) triggering tuple
   without a witness, found by scanning every LHS tuple against the RHS
   relation.  The order comparison runs before the costlier trigger and
   witness tests, so dominated tuples are skipped cheaply.  The
   relation-size threshold T is checked before the insert: Section 5.1
   frames the whole extension as a chase over bounded-size tables. *)
let ind_step ~threshold pool rng cind db =
  let firing =
    List.fold_left
      (fun best ta ->
        match best with
        | Some b when Template.tuple_compare b ta <= 0 -> best
        | _ -> if triggers cind ta && not (has_witness cind db ta) then Some ta else best)
      None (Template.tuples_at db cind.i_lhs_idx)
  in
  match firing with
  | None -> Ind_unchanged
  | Some _ when List.length (Template.tuples_at db cind.i_rhs_idx) >= threshold ->
      Telemetry.incr m_threshold_hits;
      Ind_overflow
        (Printf.sprintf "IND(%s): relation %s exceeds threshold T" cind.i_name cind.i_rhs)
  | Some ta ->
      Telemetry.incr m_ind_steps;
      Ind_changed
        (Template.add_at db cind.i_rhs_idx (witness_tuple pool rng cind ta))

(* --- round-robin IND cursor --------------------------------------------------

   The scan for the next IND operation resumes after the last applied CIND
   (wrapping), so every CIND is visited between two applications of any
   one of them — fairness.  RandomChecking's interleaved chase drives it. *)

module Ind_cursor = struct
  type t = {
    c_cinds : compiled_cind array;
    c_pool : Pool.t;
    c_threshold : int;
    mutable c_pos : int;
  }

  let create ~threshold pool cinds =
    { c_cinds = Array.of_list cinds; c_pool = pool; c_threshold = threshold; c_pos = 0 }

  let step t ~rng db =
    let n = Array.length t.c_cinds in
    let rec scan k =
      if k >= n then Ind_unchanged
      else begin
        Guard.check ();
        let j = (t.c_pos + k) mod n in
        match ind_step ~threshold:t.c_threshold t.c_pool rng t.c_cinds.(j) db with
        | Ind_unchanged -> scan (k + 1)
        | Ind_changed _ as applied ->
            t.c_pos <- (j + 1) mod n;
            applied
        | Ind_overflow _ as refused -> refused
      end
    in
    scan 0
end

(* Constants forced as CFD conclusions, per (relation, attribute) — the
   values later FD steps may demand of a column. *)
let conclusion_constants schema cfds =
  List.filter_map
    (fun cfd ->
      match cfd.f_ta with
      | Pattern.Const v ->
          let r = Db_schema.find schema cfd.f_rel in
          Some ((cfd.f_rel, Attribute.name (Schema.attr r cfd.f_a)), v)
      | Pattern.Wildcard -> None)
    cfds

(* Apply a random valuation ρ to every remaining finite-domain variable
   (the paper's ρ(D)).  When [avoid] lists the constants of Σ, values
   outside it are preferred: such a value matches no pattern and so behaves
   like a fresh value of an infinite domain (cf. Example 3.2's remark) —
   frozen choices then cannot trigger constraints later.  Domains fully
   covered by constants fall back to uniform choice, which is where the
   K_CFD accuracy trade-off of Fig 10(b) lives. *)
let instantiate_finite_vars ?(prefer = fun _ _ -> []) ?(avoid = []) rng db =
  let schema = Template.schema db in
  let avoid_set = Value.Set.of_list avoid in
  List.fold_left
    (fun db v ->
      let r = Db_schema.find schema v.Template.vrel in
      match Domain.values (Schema.domain_of r v.vattr) with
      | Some values ->
          (* Mix value-selection policies across attempts:
             - copy a constant already present in the column — tuples
               agreeing on an FD's LHS then agree on its RHS for free;
             - pick a value some CFD conclusion will demand of this column;
             - otherwise prefer a pattern-free value (matches nothing, like
               a fresh value of an infinite domain). *)
          let dom_set = Value.Set.of_list values in
          let in_dom = List.filter (fun x -> Value.Set.mem x dom_set) in
          let column =
            in_dom (Template.column_constants db ~rel:v.vrel ~attr:v.vattr)
          in
          let demanded = in_dom (prefer v.Template.vrel v.vattr) in
          let pattern_free =
            List.filter (fun x -> not (Value.Set.mem x avoid_set)) values
          in
          let pool =
            if column <> [] && Rng.int rng 10 < 6 then column
            else if demanded <> [] && Rng.int rng 10 < 6 then demanded
            else if pattern_free <> [] then pattern_free
            else values
          in
          Template.subst db v (Template.C (Rng.pick rng pool))
      | None -> db)
    db (Template.finite_variables db)

(* A fresh single-tuple template over [rel]: one variable per attribute
   (line 1 of RandomChecking, Fig 5). *)
let seed_tuple schema ~rel =
  let r = Db_schema.find schema rel in
  let tuple =
    Array.of_list
      (List.map
         (fun attr ->
           Template.V { Template.vrel = rel; vattr = Attribute.name attr; vidx = 0 })
         (Schema.attrs r))
  in
  Template.add (Template.empty schema) rel tuple
