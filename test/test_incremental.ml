open Conddep_relational
open Conddep_core
open Conddep_generator
open Helpers

(* The incremental session layer's one promise: every answer, hit or
   miss, is what the one-shot [Cind_api] call answers on the session's
   current state.  The property test replays random seeded edit scripts
   through a session and through a Σ and database the test edits
   alongside, answered by one-shot calls, and compares every answer —
   full printed witnesses included.  The re-check test times
   single-CIND edits against the same one-shot calls: identical answers,
   and the cache must pay at least 2x.  The determinism test pins that
   answers do not depend on what the process answered before.  The
   regression tests pin that a forced-propagation contradiction from the
   chase backend is a definitive [No], not [Unknown Fuel], and that an
   answer the caller's budget cut short is never served from the cache
   once the budget is gone. *)

let show = function
  | Cind_api.Yes (Some db) -> Fmt.str "yes:%a" Database.pp db
  | Cind_api.Yes None -> "yes"
  | Cind_api.No -> "no"
  | Cind_api.Unknown r -> "unknown:" ^ Guard.reason_to_string r

(* Every session in this file runs with this seed; the one-shot calls
   draw from [Rng.make seed] as the session does. *)
let seed = 7

(* --- the one-shot oracle ------------------------------------------------- *)

(* A Σ and a database edited alongside a session, with the session's set
   semantics: a dependency already present (CINDs up to {!Cind.canon_nf},
   both up to the name) is not added again, and a removal drops the first
   equal member. *)
type oracle = {
  o_schema : Db_schema.t;
  mutable o_sigma : Sigma.nf;
  mutable o_db : Database.t;
}

let oracle schema =
  { o_schema = schema; o_sigma = { Sigma.ncfds = []; ncinds = [] }; o_db = Database.empty schema }

let set_add eq xs x = if List.exists (eq x) xs then xs else xs @ [ x ]

let rec set_remove eq xs x =
  match xs with [] -> [] | y :: ys -> if eq x y then ys else y :: set_remove eq ys x

let same_cind a b = Cind.nf_equal (Cind.canon_nf a) (Cind.canon_nf b)

type edit =
  | Add_cind of Cind.nf
  | Remove_cind of Cind.nf
  | Add_cfd of Cfd.nf
  | Remove_cfd of Cfd.nf
  | Insert of string * Tuple.t list

let apply s o = function
  | Add_cind c ->
      Cind_session.add_cind s c;
      o.o_sigma <- { o.o_sigma with Sigma.ncinds = set_add same_cind o.o_sigma.Sigma.ncinds c }
  | Remove_cind c ->
      Cind_session.remove_cind s c;
      o.o_sigma <- { o.o_sigma with Sigma.ncinds = set_remove same_cind o.o_sigma.Sigma.ncinds c }
  | Add_cfd f ->
      Cind_session.add_cfd s f;
      o.o_sigma <- { o.o_sigma with Sigma.ncfds = set_add Cfd.nf_equal o.o_sigma.Sigma.ncfds f }
  | Remove_cfd f ->
      Cind_session.remove_cfd s f;
      o.o_sigma <- { o.o_sigma with Sigma.ncfds = set_remove Cfd.nf_equal o.o_sigma.Sigma.ncfds f }
  | Insert (rel, tuples) ->
      Cind_session.insert_tuples s ~rel tuples;
      o.o_db <- List.fold_left (fun db tp -> Database.add_tuple db rel tp) o.o_db tuples

(* The four queries, asked of a session or answered by one-shot calls. *)
type asker = {
  check : unit -> Cind_api.verdict;
  consistent : string -> Cind_api.verdict;
  implies : Cind.nf -> Cind_api.verdict;
  holds : unit -> bool;
}

let session_asker s =
  {
    check = (fun () -> Cind_session.check s);
    consistent = (fun rel -> Cind_session.consistent s ~rel);
    implies = Cind_session.implies s;
    holds = (fun () -> Cind_session.holds s);
  }

let one_shot_check schema sigma = Cind_api.check ~rng:(Rng.make seed) schema sigma

let one_shot_consistent schema sigma rel =
  Cind_api.consistent ~rng:(Rng.make seed) schema (Sigma.cfds_on sigma rel) ~rel

let one_shot_asker o =
  {
    check = (fun () -> one_shot_check o.o_schema o.o_sigma);
    consistent = (fun rel -> one_shot_consistent o.o_schema o.o_sigma rel);
    implies = (fun g -> Cind_api.implies o.o_schema ~sigma:o.o_sigma.Sigma.ncinds g);
    holds = (fun () -> Sigma.nf_holds o.o_db o.o_sigma);
  }

(* --- random edit scripts ------------------------------------------------ *)

(* One reproducible workload: a schema, a dependency pool to toggle, a
   goal pool for [implies], and spare tuples to insert. *)
type workload = {
  w_schema : Db_schema.t;
  w_cfds : Cfd.nf array;
  w_cinds : Cind.nf array;
  w_goals : Cind.nf list;
  w_inserts : (string * Tuple.t) array;
}

let workload seed =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng { Schema_gen.default with num_relations = 4 }
  in
  let wconfig = { Workload.default with num_constraints = 16 } in
  let sigma = Workload.consistent rng wconfig schema in
  let extra = Workload.random rng wconfig schema in
  let goals =
    List.init 3 (fun i -> Workload.gen_cind rng wconfig schema ~consistent:(i = 0) i)
  in
  let inserts =
    let db = Workload.dirty_database rng schema ~tuples_per_rel:4 ~error_rate:0.25 in
    Database.fold
      (fun r acc ->
        let rel = Schema.name (Relation.schema r) in
        List.map (fun tp -> (rel, tp)) (Relation.tuples r) @ acc)
      db []
    |> Array.of_list
  in
  {
    w_schema = schema;
    w_cfds = Array.of_list (sigma.Sigma.ncfds @ extra.Sigma.ncfds);
    w_cinds = Array.of_list (sigma.Sigma.ncinds @ extra.Sigma.ncinds);
    w_goals = goals;
    w_inserts = inserts;
  }

(* One random edit, drawn from [rng]. *)
let random_edit rng w =
  let pick a = a.(Rng.int rng (Array.length a)) in
  match Rng.int rng 5 with
  | 0 -> Add_cind (pick w.w_cinds)
  | 1 -> Remove_cind (pick w.w_cinds)
  | 2 -> Add_cfd (pick w.w_cfds)
  | 3 -> Remove_cfd (pick w.w_cfds)
  | _ ->
      let rel, tp = pick w.w_inserts in
      Insert (rel, [ tp ])

(* The query battery after each edit: everything the session answers,
   rendered to strings (witness databases included). *)
let battery w q ~deep =
  let rels = Db_schema.rel_names w.w_schema in
  List.map (fun rel -> show (q.consistent rel)) rels
  @ List.map (fun g -> show (q.implies g)) w.w_goals
  @ [ string_of_bool (q.holds ()) ]
  @ if deep then [ show (q.check ()) ] else []

let test_incremental_vs_fresh () =
  List.iter
    (fun script ->
      let w = workload (100 + script) in
      let s = Cind_session.create ~seed w.w_schema and o = oracle w.w_schema in
      let rng = Rng.make script in
      let got = ref [] and want = ref [] in
      for i = 0 to 17 do
        apply s o (random_edit rng w);
        (* [check] is whole-Σ consistency — the expensive probe — so it
           joins the battery every few steps only *)
        let deep = i mod 6 = 5 in
        got := battery w (session_asker s) ~deep :: !got;
        want := battery w (one_shot_asker o) ~deep :: !want
      done;
      Alcotest.(check (list string))
        (Printf.sprintf "script %d: cached == fresh" script)
        (List.concat (List.rev !want))
        (List.concat (List.rev !got));
      check_bool
        (Printf.sprintf "script %d: the cache actually worked (hits > 0)" script)
        true
        ((Cind_session.stats s).Cind_session.hits > 0))
    [ 1; 2; 3 ]

(* --- single-CIND edit re-check: cache vs one-shot calls ------------------ *)

(* A session and one-shot calls over the same Fig 11-style Σ (|Σ| = 200,
   10 relations), database and seed.  Each round applies one CIND edit
   (alternately removing and restoring the first CIND of Σ) to both and
   re-runs the suite: [consistent] on every relation, [implies] on 8
   goals drawn apart from Σ, and [holds].  A single-CIND edit leaves the
   [consistent] entries valid and dirties only the [implies] entries
   whose read set saw the edited CIND, so the cached re-check must beat
   the one-shot calls by at least 2x, with pointwise identical answers.
   Each rep replays the same even-length remove/restore cycle (state
   returns to the start); times are minima over reps, answers are
   compared on every rep. *)
let test_single_edit_recheck_speedup () =
  let n = 200 in
  let schema =
    Schema_gen.generate (Rng.make 2000)
      {
        Schema_gen.num_relations = 10;
        min_arity = 3;
        max_arity = 8;
        finite_ratio = 0.2;
        finite_dom_min = 2;
        finite_dom_max = 10;
      }
  in
  let rels = Db_schema.rel_names schema in
  let wconfig = { Workload.default with num_constraints = n; cfd_fraction = 0.75 } in
  let sigma = Workload.consistent (Rng.make (2000 + n)) wconfig schema in
  let goals =
    let grng = Rng.make (9000 + n) in
    List.init 8 (fun i ->
        Workload.gen_cind grng wconfig schema ~consistent:(i mod 2 = 0) i)
  in
  let s = Cind_session.create ~seed schema and o = oracle schema in
  List.iter (fun f -> apply s o (Add_cfd f)) sigma.Sigma.ncfds;
  List.iter (fun c -> apply s o (Add_cind c)) sigma.Sigma.ncinds;
  Database.iter
    (fun r ->
      match Relation.tuples r with
      | [] -> ()
      | tuples -> apply s o (Insert (Schema.name (Relation.schema r), tuples)))
    (Workload.witness_db schema);
  let cached = session_asker s and fresh = one_shot_asker o in
  (* one suite pass: its answers and its wall-clock *)
  let suite q =
    let t0 = Unix.gettimeofday () in
    let vs =
      List.map (fun rel -> show (q.consistent rel)) rels
      @ List.map (fun g -> show (q.implies g)) goals
      @ [ string_of_bool (q.holds ()) ]
    in
    (vs, Unix.gettimeofday () -. t0)
  in
  (* the cold pass populates the cache; it is not part of the re-check *)
  ignore (suite cached);
  let edited = List.hd sigma.Sigma.ncinds in
  let rep () =
    List.fold_left
      (fun (cached_s, fresh_s) round ->
        apply s o (if round mod 2 = 0 then Remove_cind edited else Add_cind edited);
        let got, c = suite cached in
        let want, f = suite fresh in
        Alcotest.(check (list string))
          (Printf.sprintf "round %d: cached == fresh" round)
          want got;
        (cached_s +. c, fresh_s +. f))
      (0., 0.) [ 0; 1; 2; 3 ]
  in
  let times = List.init 5 (fun _ -> rep ()) in
  let cached_s = List.fold_left (fun m (c, _) -> Float.min m c) infinity times in
  let fresh_s = List.fold_left (fun m (_, f) -> Float.min m f) infinity times in
  let speedup = fresh_s /. cached_s in
  if not (speedup >= 2.0) then
    Alcotest.failf "single-CIND edit re-check: fresh %.6fs / cached %.6fs = %.2fx < 2x"
      fresh_s cached_s speedup

(* --- determinism ------------------------------------------------------------ *)

(* Two sessions over the same Σ and seed, the second built after the
   process answered the other fixture's queries in a session of its own,
   must give identical [check] and [consistent] answers, witnesses
   included, and each must be the one-shot call's answer.  Over the
   paper's bank Σ and a generated consistent Σ. *)
let test_process_history () =
  let generated =
    let rng = Rng.make 31 in
    let schema = Schema_gen.generate rng { Schema_gen.default with num_relations = 4 } in
    (schema, Workload.consistent rng { Workload.default with num_constraints = 24 } schema)
  in
  let fixtures =
    [
      ("bank", (Conddep_fixtures.Bank.schema, Sigma.normalize Conddep_fixtures.Bank.sigma));
      ("generated", generated);
    ]
  in
  let answers (schema, (sigma : Sigma.nf)) =
    let s = Cind_session.create ~seed schema in
    List.iter (Cind_session.add_cfd s) sigma.Sigma.ncfds;
    List.iter (Cind_session.add_cind s) sigma.Sigma.ncinds;
    show (Cind_session.check s)
    :: List.map (fun rel -> show (Cind_session.consistent s ~rel)) (Db_schema.rel_names schema)
  in
  List.iter
    (fun (name, ((schema, sigma) as fixture)) ->
      let first = answers fixture in
      List.iter (fun (other, f) -> if other <> name then ignore (answers f)) fixtures;
      let second = answers fixture in
      let one_shot =
        show (one_shot_check schema sigma)
        :: List.map (fun rel -> show (one_shot_consistent schema sigma rel)) (Db_schema.rel_names schema)
      in
      Alcotest.(check (list string)) (name ^ ": same answers after another session") first second;
      Alcotest.(check (list string)) (name ^ ": the one-shot answers") one_shot first)
    fixtures

(* --- read-set precision -------------------------------------------------- *)

let test_unrelated_edit_preserves_entries () =
  let w = workload 222 in
  let s = Cind_session.create ~seed w.w_schema in
  Array.iter (Cind_session.add_cfd s) w.w_cfds;
  let rels = Db_schema.rel_names w.w_schema in
  List.iter (fun rel -> ignore (Cind_session.consistent s ~rel)) rels;
  let st0 = Cind_session.stats s in
  (* inserting tuples touches no [consistent] read set: all hits *)
  Array.iter
    (fun (rel, tp) -> Cind_session.insert_tuples s ~rel [ tp ])
    w.w_inserts;
  List.iter (fun rel -> ignore (Cind_session.consistent s ~rel)) rels;
  let st1 = Cind_session.stats s in
  check_int "inserts dirty no consistent entry"
    (st0.Cind_session.misses) st1.Cind_session.misses;
  check_int "every re-query hit"
    (st0.Cind_session.hits + List.length rels)
    st1.Cind_session.hits

(* The implication search runs on relation positions, which follow name
   order, and records the names of the relations it explored.  On a
   schema declared b, a (declaration order reverses name order), the
   goal b[x] ⊆ a[x] explores b's shapes only: adding a CIND out of a
   must keep the cached answer, and adding one out of b must drop it. *)
let test_read_set_names_explored_relations () =
  let schema =
    Db_schema.make
      (List.map (fun rel -> Schema.make rel [ Attribute.make "x" Domain.string_inf ]) [ "b"; "a" ])
  in
  let ind lhs rhs =
    List.hd
      (Cind.normalize
         (Cind.make ~name:(lhs ^ rhs) ~lhs ~rhs ~x:[ "x" ] ~xp:[] ~y:[ "x" ] ~yp:[]
            [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ]))
  in
  let s = Cind_session.create ~seed schema in
  let ask () = show (Cind_session.implies s (ind "b" "a")) in
  check_string "nothing implies the goal" "no" (ask ());
  Cind_session.add_cind s (ind "a" "b");
  let hits = (Cind_session.stats s).Cind_session.hits in
  check_string "a CIND out of a relation not explored" "no" (ask ());
  check_int "keeps the cached answer" (hits + 1) (Cind_session.stats s).Cind_session.hits;
  Cind_session.add_cind s (ind "b" "a");
  check_string "a CIND out of the explored relation drops it" "yes" (ask ());
  check_int "and the answer is recomputed" (hits + 1) (Cind_session.stats s).Cind_session.hits

(* --- satellite regression: definitive chase No --------------------------- *)

(* Two constant-pattern CFDs that force the same field to two different
   constants on every tuple: forced propagation alone refutes the seed
   template, so the chase backend's miss is definitive — [No], never
   [Unknown Fuel].  (Sat_backend is complete, so it must agree.) *)
let test_chase_definitive_no () =
  let schema = string_schema "r" [ "a"; "b" ] in
  let force v =
    {
      Cfd.nf_name = "force_" ^ v;
      nf_rel = "r";
      nf_x = [ "a" ];
      nf_a = "b";
      nf_tx = [ Pattern.Wildcard ];
      nf_ta = Pattern.Const (Value.Str v);
    }
  in
  let cfds = [ force "x"; force "y" ] in
  List.iter
    (fun backend ->
      match
        Cind_api.consistent ~backend ~rng:(Rng.make 3) schema cfds ~rel:"r"
      with
      | Cind_api.No -> ()
      | v ->
          Alcotest.failf "expected a definitive No from %s, got %s"
            (match backend with
            | Cind_api.Chase_backend -> "chase"
            | Cind_api.Sat_backend -> "sat")
            (show v))
    [ Cind_api.Chase_backend; Cind_api.Sat_backend ];
  (* and through the session layer, where it is also cacheable *)
  let s = Cind_session.create ~seed:1 schema in
  List.iter (Cind_session.add_cfd s) cfds;
  check_string "session agrees" "no" (show (Cind_session.consistent s ~rel:"r"));
  check_string "and caches the No" "no"
    (show (Cind_session.consistent s ~rel:"r"));
  check_bool "second answer was a hit" true
    ((Cind_session.stats s).Cind_session.hits = 1)

(* A query cut short by the caller's fuel answers [Unknown Fuel], the
   same reason the procedures' own caps give.  The session must not cache
   it: once the budget is gone, the same session recomputes and agrees
   with a fresh one. *)
let test_budget_cut_not_cached () =
  let schema, sigma = finite_workload ~seed:5 ~relations:3 ~constraints:40 in
  let cut f = Guard.with_ambient (Guard.make ~fuel:1 ()) f in
  let session sigma =
    let s = Cind_session.create ~backend:Cind_api.Sat_backend ~seed:1 schema in
    List.iter (Cind_session.add_cfd s) sigma.Sigma.ncfds;
    List.iter (Cind_session.add_cind s) sigma.Sigma.ncinds;
    s
  in
  let s = session sigma in
  check_string "check under one step of fuel" "unknown:fuel"
    (show (cut (fun () -> Cind_session.check s)));
  check_string "check without the budget"
    (show (Cind_session.check (session sigma)))
    (show (Cind_session.check s));
  (* implication over the first three CINDs, which decides quickly *)
  let cinds = List.filteri (fun i _ -> i < 3) sigma.Sigma.ncinds in
  let psi = List.hd cinds in
  let s = session { Sigma.ncfds = []; ncinds = cinds } in
  check_string "implies under one step of fuel" "unknown:fuel"
    (show (cut (fun () -> Cind_session.implies s psi)));
  check_string "implies without the budget" "yes"
    (show (Cind_session.implies s psi))

let () =
  Alcotest.run "incremental"
    [
      ( "equivalence",
        [
          Alcotest.test_case "random edit scripts: cached == fresh" `Quick
            test_incremental_vs_fresh;
          Alcotest.test_case "single-CIND edit re-check: identical, >= 2x" `Quick
            test_single_edit_recheck_speedup;
        ] );
      ( "precision",
        [
          Alcotest.test_case "unrelated edits keep entries live" `Quick
            test_unrelated_edit_preserves_entries;
          Alcotest.test_case "read sets name the explored relations" `Quick
            test_read_set_names_explored_relations;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "answers independent of process history" `Quick
            test_process_history;
        ] );
      ( "regression",
        [
          Alcotest.test_case "chase contradiction is a definitive No" `Quick
            test_chase_definitive_no;
          Alcotest.test_case "a budget-cut Unknown is not cached" `Quick
            test_budget_cut_not_cached;
        ] );
    ]
