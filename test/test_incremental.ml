open Conddep_relational
open Conddep_core
open Conddep_generator
open Helpers

(* The incremental session layer's one promise: a cache hit is
   verdict-bit-identical to recomputing from scratch.  The property test
   replays random seeded edit scripts through a cached session and a
   [~cache:false] oracle side by side and compares every verdict — full
   printed witnesses included.  The chaos test arms the
   [incremental.invalidate] probe so every edit degrades to a full cache
   flush, which must leave the equivalence intact.  The re-check test
   times single-CIND edits against the oracle: identical verdicts, and
   the cache must pay at least 2x.  The regression test pins that a
   forced-propagation contradiction from the chase backend is a
   definitive [No], not [Unknown Fuel]. *)

let show = function
  | Cind_api.Yes (Some db) -> Fmt.str "yes:%a" Database.pp db
  | Cind_api.Yes None -> "yes"
  | Cind_api.No -> "no"
  | Cind_api.Unknown r -> "unknown:" ^ Guard.reason_to_string r

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

(* Apply the [i]th random edit, identically on every session in [ss]. *)
let random_edit rng w ss i =
  ignore i;
  let pick a = a.(Rng.int rng (Array.length a)) in
  match Rng.int rng 5 with
  | 0 ->
      let c = pick w.w_cinds in
      List.iter (fun s -> Cind_session.add_cind s c) ss
  | 1 ->
      let c = pick w.w_cinds in
      List.iter (fun s -> Cind_session.remove_cind s c) ss
  | 2 ->
      let f = pick w.w_cfds in
      List.iter (fun s -> Cind_session.add_cfd s f) ss
  | 3 ->
      let f = pick w.w_cfds in
      List.iter (fun s -> Cind_session.remove_cfd s f) ss
  | _ ->
      let rel, tp = pick w.w_inserts in
      List.iter (fun s -> Cind_session.insert_tuples s ~rel [ tp ]) ss

(* The query battery after each edit: everything the session answers,
   rendered to strings (witness databases included). *)
let battery w s ~deep =
  let rels = Db_schema.rel_names w.w_schema in
  List.map (fun rel -> show (Cind_session.consistent s ~rel)) rels
  @ List.map (fun g -> show (Cind_session.implies s g)) w.w_goals
  @ [ string_of_bool (Cind_session.holds s) ]
  @ (if deep then [ show (Cind_session.check s) ] else [])

let replay ~seed ~cache w =
  let s = Cind_session.create ~cache ~seed:7 w.w_schema in
  let rng = Rng.make seed in
  let steps = 18 in
  let out = ref [] in
  for i = 0 to steps - 1 do
    random_edit rng w [ s ] i;
    (* [check] races whole-Σ consistency — the expensive probe — so it
       joins the battery every few steps only *)
    out := battery w s ~deep:(i mod 6 = 5) :: !out
  done;
  (s, List.concat (List.rev !out))

let test_incremental_vs_fresh () =
  List.iter
    (fun seed ->
      let w = workload (100 + seed) in
      let cached, got = replay ~seed ~cache:true w in
      let _, want = replay ~seed ~cache:false w in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: cached == fresh" seed)
        want got;
      let st = Cind_session.stats cached in
      check_bool
        (Printf.sprintf "seed %d: the cache actually worked (hits > 0)" seed)
        true (st.Cind_session.hits > 0))
    [ 1; 2; 3 ]

(* --- single-CIND edit re-check: cache vs from-scratch oracle -------------- *)

(* A cached session and a [~cache:false] oracle over the same Fig 11-style
   Σ (|Σ| = 200, 10 relations), database and seed.  Each round applies one
   CIND edit (alternately removing and restoring the first CIND of Σ) to
   both and re-runs the suite: [consistent] on every relation, [implies]
   on 8 goals drawn apart from Σ, and [holds].  A single-CIND edit leaves
   the [consistent] entries valid and dirties only the [implies] entries
   whose read set saw the edited CIND, so the cached re-check must beat
   the oracle by at least 2x, with pointwise identical verdicts.  Each
   rep replays the same even-length remove/restore cycle (state returns
   to the start); times are minima over reps, verdicts are compared on
   every rep. *)
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
  let session ~cache =
    let s = Cind_session.create ~cache ~seed:7 schema in
    List.iter (Cind_session.add_cfd s) sigma.Sigma.ncfds;
    List.iter (Cind_session.add_cind s) sigma.Sigma.ncinds;
    Database.iter
      (fun r ->
        match Relation.tuples r with
        | [] -> ()
        | tuples ->
            Cind_session.insert_tuples s ~rel:(Schema.name (Relation.schema r)) tuples)
      (Workload.witness_db schema);
    s
  in
  let cached = session ~cache:true and fresh = session ~cache:false in
  (* one suite pass: its verdicts and its wall-clock *)
  let suite s =
    let t0 = Unix.gettimeofday () in
    let vs =
      List.map (fun rel -> show (Cind_session.consistent s ~rel)) rels
      @ List.map (fun g -> show (Cind_session.implies s g)) goals
      @ [ string_of_bool (Cind_session.holds s) ]
    in
    (vs, Unix.gettimeofday () -. t0)
  in
  (* the cold pass populates the cache; it is not part of the re-check *)
  ignore (suite cached);
  ignore (suite fresh);
  let edited = List.hd sigma.Sigma.ncinds in
  let rep () =
    List.fold_left
      (fun (cached_s, fresh_s) round ->
        let edit s =
          if round mod 2 = 0 then Cind_session.remove_cind s edited
          else Cind_session.add_cind s edited
        in
        edit cached;
        edit fresh;
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

(* --- the chaos probe ----------------------------------------------------- *)

let with_arm ~site ?after ?times f =
  Guard.arm ~site ?after ?times Guard.Raise;
  Fun.protect ~finally:(fun () -> Guard.disarm ~site) f

let test_invalidate_fault_degrades_to_flush () =
  let seed = 11 in
  let w = workload 111 in
  let _, want = replay ~seed ~cache:false w in
  let faulted, got =
    (* every edit's invalidation faults: each one must degrade to a full
       flush (never escape the edit), and verdicts must stay identical *)
    with_arm ~site:"incremental.invalidate" ~after:0 (fun () ->
        replay ~seed ~cache:true w)
  in
  Alcotest.(check (list string)) "faulted session == fresh oracle" want got;
  let st = Cind_session.stats faulted in
  check_bool "flushes were counted as invalidations" true
    (st.Cind_session.invalidations > 0);
  (* disarmed again: the same session keeps answering, and caches again *)
  let before = (Cind_session.stats faulted).Cind_session.hits in
  ignore (battery w faulted ~deep:false);
  ignore (battery w faulted ~deep:false);
  check_bool "cache resumes after the fault storm" true
    ((Cind_session.stats faulted).Cind_session.hits > before)

(* --- read-set precision -------------------------------------------------- *)

let test_unrelated_edit_preserves_entries () =
  let w = workload 222 in
  let s = Cind_session.create ~seed:7 w.w_schema in
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

(* --- fingerprints --------------------------------------------------------- *)

let test_fingerprint_invariance () =
  let nf name lhs xp =
    {
      Cind.nf_name = name;
      nf_lhs = lhs;
      nf_rhs = "s";
      nf_x = [ "a" ];
      nf_y = [ "c" ];
      nf_xp = xp;
      nf_yp = [];
    }
  in
  let a = nf "one" "r" [ ("b", str "u"); ("d", str "v") ] in
  let b = nf "two" "r" [ ("d", str "v"); ("b", str "u") ] in
  check_bool "name- and order-insensitive" true
    (Fingerprint.equal (Fingerprint.cind a) (Fingerprint.cind b));
  check_bool "different structure separates" false
    (Fingerprint.equal (Fingerprint.cind a) (Fingerprint.cind (nf "three" "t" [])));
  check_bool "set fingerprints are order-insensitive" true
    (Fingerprint.equal
       (Fingerprint.cind_set [ a; nf "x" "t" [] ])
       (Fingerprint.cind_set [ nf "x" "t" []; b ]))

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
      ( "chaos",
        [
          Alcotest.test_case "invalidate fault degrades to a coherent flush"
            `Quick test_invalidate_fault_degrades_to_flush;
        ] );
      ( "precision",
        [
          Alcotest.test_case "unrelated edits keep entries live" `Quick
            test_unrelated_edit_preserves_entries;
        ] );
      ( "regression",
        [
          Alcotest.test_case "chase contradiction is a definitive No" `Quick
            test_chase_definitive_no;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "structural invariance" `Quick
            test_fingerprint_invariance;
        ] );
    ]
