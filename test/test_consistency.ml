open Conddep_relational
open Conddep_core
open Conddep_consistency
open Conddep_generator
open Helpers

(* The heuristic consistency algorithms of Section 5, against the worked
   Examples 4.2, 5.1–5.6. *)

module B = Conddep_fixtures.Bank

let rng () = Rng.make 7

(* --- CFD_Checking: chase vs SAT backends --------------------------------- *)

let test_backends_agree_on_examples () =
  let cases =
    [
      ("ex32 finite", B.ex32_schema, "r_bool", List.concat_map Cfd.normalize B.ex32_cfds, false);
      ("phi3", B.schema, "interest", List.concat_map Cfd.normalize [ B.phi3 ], true);
    ]
  in
  List.iter
    (fun (name, schema, rel, cfds, expected) ->
      let sat = Cfd_checking.consistent_rel_sat schema cfds ~rel <> None in
      let chase =
        match
          Cfd_checking.consistent_rel ~backend:Cfd_checking.Chase_backend
            ~rng:(rng ()) schema cfds ~rel
        with
        | Cfd_checking.Tuple _ -> true
        | Cfd_checking.No_tuple | Cfd_checking.Gave_up -> false
      in
      check_bool (name ^ " sat") expected sat;
      check_bool (name ^ " chase") expected chase)
    cases

let test_sat_model_satisfies () =
  let cfds = List.concat_map Cfd.normalize [ B.phi3 ] in
  match Cfd_checking.consistent_rel_sat B.schema cfds ~rel:"interest" with
  | None -> Alcotest.fail "phi3 consistent"
  | Some t ->
      let db = Database.add_tuple (Database.empty B.schema) "interest" t in
      check_bool "SAT witness satisfies" true (Cfd.holds db B.phi3)

(* An attribute that no CFD names takes one representative value in the
   SAT encoding: the first domain value outside Σ's constants ([avoid]). *)
let test_sat_unnamed_attribute () =
  let str = List.map (fun s -> Value.Str s) in
  let dom = Domain.finite (str [ "p"; "q"; "r"; "s" ]) in
  let schema =
    Db_schema.make
      [
        Schema.make "r"
          [ Attribute.make "a" dom; Attribute.make "b" dom; Attribute.make "c" Domain.string_inf ];
      ]
  in
  let cfd name x tx a ta =
    { Cfd.nf_name = name; nf_rel = "r"; nf_x = x; nf_tx = tx; nf_a = a; nf_ta = ta }
  in
  let cfds =
    [
      cfd "phi1" [ "b" ] [ Pattern.Const (Value.Str "p") ] "c" (Pattern.Const (Value.Str "k"));
      cfd "phi2" [ "c" ] [ Pattern.Wildcard ] "b" (Pattern.Const (Value.Str "q"));
    ]
  in
  match Cfd_checking.consistent_rel_sat ~avoid:(str [ "k"; "p"; "q"; "s" ]) schema cfds ~rel:"r" with
  | None -> Alcotest.fail "CFD(r) is consistent"
  | Some t ->
      check_bool "a = \"r\"" true (Value.equal (Tuple.get t 0) (Value.Str "r"));
      check_bool "b = \"q\"" true (Value.equal (Tuple.get t 1) (Value.Str "q"))

(* --- dependency graph (Example 5.4) -------------------------------------- *)

let test_depgraph_structure () =
  let schema = B.ex5_schema ~finite_h:true in
  let sigma = Sigma.normalize (B.ex54_sigma ~finite_h:true ~use_psi4':false) in
  let g = Depgraph.make schema sigma in
  let name = Db_schema.name_at schema in
  check_int "five vertices" 5 (List.length (Depgraph.live g));
  let edges =
    List.concat_map
      (fun d -> List.map (fun (s, _) -> (name s, name d)) (Depgraph.predecessors g d))
      (Depgraph.live g)
  in
  let has s d = List.exists (fun (a, b) -> a = s && b = d) edges in
  check_bool "r1->r2" true (has "r1" "r2");
  check_bool "r2->r1" true (has "r2" "r1");
  check_bool "r3->r4" true (has "r3" "r4");
  check_bool "r5->r2" true (has "r5" "r2");
  check_bool "no r4 out-edge" false (List.exists (fun (a, _) -> a = "r4") edges);
  (* CFD(R4) = {phi4, phi5} *)
  check_int "CFD(r4) size" 2
    (List.length (Depgraph.cfds g (snd (Db_schema.find_indexed schema "r4"))));
  (* preProcessing's order, the SCCs flattened: r4 before r3 *)
  let sccs = List.map (List.map name) (Depgraph.sccs g) in
  let order = List.concat sccs in
  let idx r = Option.get (List.find_index (String.equal r) order) in
  check_bool "r4 precedes r3" true (idx "r4" < idx "r3");
  (* {r1, r2} form one SCC *)
  check_bool "r1r2 cycle" true
    (List.exists (fun c -> List.sort compare c = [ "r1"; "r2" ]) sccs)

(* --- preProcessing (Examples 5.4/5.5) ------------------------------------- *)

let test_preprocessing_example_5_4 () =
  (* With the conditional ψ4, preProcessing finds a witness via R3. *)
  let schema = B.ex5_schema ~finite_h:true in
  let sigma = Sigma.normalize (B.ex54_sigma ~finite_h:true ~use_psi4':false) in
  match Preprocessing.run ~rng:(rng ()) schema sigma with
  | Preprocessing.Consistent db ->
      check_bool "witness satisfies Sigma" true (Sigma.nf_holds db sigma)
  | Preprocessing.Inconsistent -> Alcotest.fail "expected consistent"
  | Preprocessing.Unknown _ -> Alcotest.fail "expected a definite answer (Ex 5.5)"

let test_preprocessing_example_5_5 () =
  (* With the unconditional ψ'4, the graph reduces to {r1, r2} and the
     answer is Unknown (-1 in Fig 7). *)
  let schema = B.ex5_schema ~finite_h:true in
  let sigma = Sigma.normalize (B.ex54_sigma ~finite_h:true ~use_psi4':true) in
  match Preprocessing.run ~rng:(rng ()) schema sigma with
  | Preprocessing.Unknown [ { Depgraph.members; _ } ] ->
      check_bool "component is {r1, r2}" true
        (List.sort compare members = [ "r1"; "r2" ])
  | Preprocessing.Unknown l -> Alcotest.failf "expected one component, got %d" (List.length l)
  | Preprocessing.Consistent _ -> Alcotest.fail "expected Unknown, got Consistent"
  | Preprocessing.Inconsistent -> Alcotest.fail "expected Unknown, got Inconsistent"

let test_preprocessing_inconsistent () =
  (* A schema whose only relation has contradictory CFDs empties the graph. *)
  let schema = string_schema "r" [ "a"; "b" ] in
  let cfds =
    [
      Cfd.make ~name:"c1" ~rel:"r" ~x:[ "a" ] ~y:[ "b" ]
        [ { Cfd.rx = [ wildcard ]; ry = [ const "u" ] } ];
      Cfd.make ~name:"c2" ~rel:"r" ~x:[ "a" ] ~y:[ "b" ]
        [ { Cfd.rx = [ wildcard ]; ry = [ const "v" ] } ];
    ]
  in
  let sigma = Sigma.normalize (Sigma.make ~cfds ()) in
  match Preprocessing.run ~rng:(rng ()) schema sigma with
  | Preprocessing.Inconsistent -> ()
  | _ -> Alcotest.fail "expected Inconsistent"

let test_non_triggering_cfds () =
  let nf = List.hd (Cind.normalize (B.ex51_psi2 ~finite_h:false)) in
  let schema = B.ex5_schema ~finite_h:false in
  match Preprocessing.non_triggering schema nf with
  | [ bot1; bot2 ] ->
      check_bool "same attribute" true (bot1.Cfd.nf_a = bot2.Cfd.nf_a);
      check_bool "distinct constants" false (Pattern.cell_equal bot1.nf_ta bot2.nf_ta);
      (* a tuple matching Xp violates the pair *)
      let db =
        Database.add_tuple (Database.empty schema) "r2" (stup [ "g"; "0" ])
      in
      check_bool "denies matching tuples" false
        (Cfd.nf_holds db bot1 && Cfd.nf_holds db bot2)
  | l -> Alcotest.failf "expected two bottom CFDs, got %d" (List.length l)

let test_preprocessing_sat_backend () =
  (* the SAT backend reaches the same Example 5.4 conclusion *)
  let schema = B.ex5_schema ~finite_h:true in
  let sigma = Sigma.normalize (B.ex54_sigma ~finite_h:true ~use_psi4':false) in
  match
    Preprocessing.run ~backend:Cfd_checking.Sat_backend ~rng:(rng ()) schema sigma
  with
  | Preprocessing.Consistent db ->
      check_bool "witness satisfies Sigma" true (Sigma.nf_holds db sigma)
  | Preprocessing.Inconsistent | Preprocessing.Unknown _ ->
      Alcotest.fail "SAT backend should also conclude Example 5.4"

let test_component_sigma_contents () =
  let schema = B.ex5_schema ~finite_h:true in
  let sigma = Sigma.normalize (B.ex54_sigma ~finite_h:true ~use_psi4':true) in
  begin match Preprocessing.run ~rng:(rng ()) schema sigma with
  | Preprocessing.Unknown [ { Depgraph.members; compiled; avoid } ] ->
      (* the component carries phi1/phi2 and the three r1<->r2 CINDs, not
         psi5 from the removed r5; its fresh values avoid every constant
         of Σ, psi5's "d" included *)
      Alcotest.(check (list string)) "members" [ "r1"; "r2" ] members;
      check_int "phi1, phi2" 2 (List.length compiled.Conddep_chase.Chase.cfds);
      check_int "psi1, psi2, psi3" 3 (List.length compiled.cinds);
      check_bool "Σ's constants" true
        (List.equal Value.equal avoid (Sigma.constant_values sigma))
  | _ -> Alcotest.fail "expected one Unknown component"
  end;
  (* CFD(q) is inconsistent, so p gets the CIND(p, q)⊥ of into_q, which
     deny p's tuples with a = "k" by two fresh constants on a; the loop
     keeps p off the indegree-0 pruning.  The component {p} carries the
     pushed CFDs, and its fresh values avoid their constants too. *)
  let schema =
    Db_schema.make
      [
        Schema.make "p" [ Attribute.make "a" Domain.string_inf ];
        Schema.make "q" [ Attribute.make "b" Domain.string_inf ];
      ]
  in
  let forced name v =
    { Cfd.nf_name = name; nf_rel = "q"; nf_x = []; nf_tx = []; nf_a = "b"; nf_ta = const v }
  in
  let cind name ~rhs x ~xp =
    { Cind.nf_name = name; nf_lhs = "p"; nf_rhs = rhs; nf_x = x; nf_y = x; nf_xp = xp; nf_yp = [] }
  in
  let into_q = cind "into_q" ~rhs:"q" [] ~xp:[ ("a", str "k") ] in
  let sigma =
    {
      Sigma.ncfds = [ forced "b1" "1"; forced "b2" "2" ];
      ncinds = [ cind "loop" ~rhs:"p" [ "a" ] ~xp:[]; into_q ];
    }
  in
  let pushed = Preprocessing.non_triggering schema into_q in
  match Preprocessing.run ~rng:(rng ()) schema sigma with
  | Preprocessing.Unknown [ { Depgraph.members; compiled; avoid } ] ->
      Alcotest.(check (list string)) "members" [ "p" ] members;
      check_int "the pushed CFDs" 2 (List.length compiled.Conddep_chase.Chase.cfds);
      check_bool "their constants avoided" true
        (List.equal Value.equal avoid
           (List.sort_uniq Value.compare
              (List.concat_map (fun c -> List.map snd (Cfd.nf_constants c)) pushed
              @ Sigma.constant_values sigma)))
  | _ -> Alcotest.fail "expected the one component {p}"

let test_weak_components_split () =
  (* two disjoint CIND islands produce two weak components *)
  let schema =
    Db_schema.make
      (List.map
         (fun n -> Schema.make n [ Attribute.make "a" Domain.string_inf ])
         [ "w"; "x"; "y"; "z" ])
  in
  let ind lhs rhs =
    Cind.make ~name:(lhs ^ rhs) ~lhs ~rhs ~x:[ "a" ] ~xp:[] ~y:[ "a" ] ~yp:[]
      [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ]
  in
  let sigma =
    Sigma.normalize
      (Sigma.make ~cinds:[ ind "w" "x"; ind "x" "w"; ind "y" "z"; ind "z" "y" ] ())
  in
  let g = Depgraph.make schema sigma in
  let comps =
    List.map (fun c -> List.sort compare c.Depgraph.members) (Depgraph.components g ~avoid:[])
  in
  check_int "two components" 2 (List.length comps);
  check_bool "w-x island" true (List.mem [ "w"; "x" ] comps);
  check_bool "y-z island" true (List.mem [ "y"; "z" ] comps)

(* Depgraph's orders come from the input: vertices in schema order,
   successors in Σ order of each edge's first CIND, components in schema
   order of their first member (none of them is name or last-CIND order
   here).  Tarjan visits t first, then its successors s and p in that
   order, so the SCCs come out [s], [p], [t], then [q] and [u]. *)
let test_depgraph_orders () =
  let schema =
    Db_schema.make
      (List.map
         (fun n -> Schema.make n [ Attribute.make "a" Domain.string_inf ])
         [ "t"; "p"; "q"; "s"; "u" ])
  in
  let ind name lhs rhs =
    Cind.make ~name ~lhs ~rhs ~x:[ "a" ] ~xp:[] ~y:[ "a" ] ~yp:[]
      [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ]
  in
  let sigma =
    Sigma.normalize
      (Sigma.make
         ~cinds:[ ind "c1" "u" "q"; ind "c2" "t" "s"; ind "c3" "t" "p"; ind "c4" "t" "s" ]
         ())
  in
  let g = Depgraph.make schema sigma in
  Alcotest.(check (list (list string))) "SCCs"
    [ [ "s" ]; [ "p" ]; [ "t" ]; [ "q" ]; [ "u" ] ]
    (List.map (List.map (Db_schema.name_at schema)) (Depgraph.sccs g));
  Alcotest.(check (list (list string))) "weak components"
    [ [ "t"; "p"; "s" ]; [ "q"; "u" ] ]
    (List.map (fun c -> c.Depgraph.members) (Depgraph.components g ~avoid:[]))

(* --- RandomChecking (Examples 5.1/5.3) ------------------------------------ *)

let test_random_checking_example_5_1 () =
  let schema = B.ex5_schema ~finite_h:false in
  let sigma = Sigma.normalize (B.ex51_sigma ~finite_h:false) in
  match Random_checking.check ~rng:(rng ()) schema sigma with
  | Random_checking.Consistent db ->
      check_bool "witness verified" true (Sigma.nf_holds db sigma)
  | Random_checking.Unknown _ -> Alcotest.fail "Example 5.1 is consistent"

let test_random_checking_example_5_3 () =
  (* dom(H) = {0, 1}: the instantiated chase still finds a witness. *)
  let schema = B.ex5_schema ~finite_h:true in
  let sigma = Sigma.normalize (B.ex51_sigma ~finite_h:true) in
  match Random_checking.check ~k:40 ~rng:(rng ()) schema sigma with
  | Random_checking.Consistent db ->
      check_bool "witness verified" true (Sigma.nf_holds db sigma)
  | Random_checking.Unknown _ -> Alcotest.fail "Example 5.3 finds a witness"

let test_random_checking_sound_on_conflict () =
  (* Example 4.2: φ and ψ conflict; RandomChecking must never say true. *)
  let sigma =
    Sigma.normalize (Sigma.make ~cfds:[ B.ex42_cfd ] ~cinds:[ B.ex42_cind ] ())
  in
  match Random_checking.check ~k:40 ~rng:(rng ()) B.ex42_schema sigma with
  | Random_checking.Unknown _ -> ()
  | Random_checking.Consistent _ -> Alcotest.fail "Example 4.2 is inconsistent"

let test_random_checking_rng_contract () =
  (* Run i draws the i-th split of the caller's generator when it starts,
     so the generator advances one split per run through the stopping
     run: by K splits after [Unknown Fuel], and by the number of runs
     counted after [Consistent].  Callers that keep drawing from it
     (Checking, across components) rely on this. *)
  let k = 40 in
  let runs = Telemetry.counter "checking.random.runs" in
  let next_draw_after splits =
    let r = Rng.make 9 in
    for _ = 1 to splits do
      ignore (Rng.split r)
    done;
    Rng.int r 1_000_000_000
  in
  let consistent_seen = ref 0 and gave_up_seen = ref 0 in
  let check_case label schema sigma =
    let rng = Rng.make 9 in
    let runs0 = Telemetry.count runs in
    let result = Random_checking.check ~k ~k_cfd:6 ~rng schema sigma in
    let used = Telemetry.count runs - runs0 in
    (match result with
    | Random_checking.Consistent _ -> incr consistent_seen
    | Random_checking.Unknown Guard.Fuel ->
        incr gave_up_seen;
        check_int (label ^ ": K runs before giving up") k used
    | Random_checking.Unknown r ->
        Alcotest.failf "%s: unexpected unknown:%s" label
          (Guard.reason_to_string r));
    check_int (label ^ ": one split per run") (next_draw_after used)
      (Rng.int rng 1_000_000_000)
  in
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  (* Example 4.2 is inconsistent: every one of the K runs fails *)
  check_case "Example 4.2" B.ex42_schema
    (Sigma.normalize (Sigma.make ~cfds:[ B.ex42_cfd ] ~cinds:[ B.ex42_cind ] ()));
  List.iter
    (fun (consistent, relations, constraints) ->
      for seed = 1 to 30 do
        let g = Rng.make seed in
        let schema =
          Schema_gen.generate g
            { Schema_gen.default with num_relations = relations }
        in
        let gen = if consistent then Workload.consistent else Workload.random in
        let sigma =
          gen g { Workload.default with num_constraints = constraints } schema
        in
        check_case (Fmt.str "relations=%d seed %d" relations seed) schema sigma
      done)
    [ (true, 4, 24); (false, 4, 24); (true, 8, 48); (false, 8, 48) ];
  check_bool "some searches found a witness" true (!consistent_seen > 0);
  check_bool "some searches gave up" true (!gave_up_seen > 0)

(* --- Checking (Fig 9, Example 5.6) ----------------------------------------- *)

let test_checking_example_5_6 () =
  (* ψ'4 variant: preProcessing reduces to {r1, r2}, RandomChecking closes. *)
  let schema = B.ex5_schema ~finite_h:true in
  let sigma = Sigma.normalize (B.ex54_sigma ~finite_h:true ~use_psi4':true) in
  match Checking.check ~k:40 ~rng:(rng ()) schema sigma with
  | Checking.Consistent db -> check_bool "verified" true (Sigma.nf_holds db sigma)
  | Checking.Inconsistent -> Alcotest.fail "expected consistent"
  | Checking.Unknown _ -> Alcotest.fail "Checking should close Example 5.6"

let test_checking_example_4_2 () =
  let sigma =
    Sigma.normalize (Sigma.make ~cfds:[ B.ex42_cfd ] ~cinds:[ B.ex42_cind ] ())
  in
  match Checking.check ~k:30 ~rng:(rng ()) B.ex42_schema sigma with
  | Checking.Consistent _ -> Alcotest.fail "Example 4.2 accepted"
  | Checking.Inconsistent | Checking.Unknown _ -> ()

(* A candidate can meet its component's constraints and still violate Σ.
   Every p tuple needs a q tuple and CFD(q) is inconsistent, so Σ forces
   both relations empty; but p's only attribute has a one-value domain,
   so preProcessing has no CFD that denies p's tuples, and the self-loop
   keeps p off the indegree-0 pruning.  RandomChecking on the component
   {p}, whose constraints omit the CIND into q, finds one-tuple
   candidates that violate it: Checking cannot prove Σ inconsistent and
   must not call it consistent. *)
let test_checking_one_value_domains () =
  let schema =
    Db_schema.make
      [
        Schema.make "p" [ Attribute.make "a" (Domain.finite [ str "x" ]) ];
        Schema.make "q" [ Attribute.make "b" (Domain.finite [ str "1"; str "2" ]) ];
      ]
  in
  let forced name v =
    { Cfd.nf_name = name; nf_rel = "q"; nf_x = []; nf_tx = []; nf_a = "b"; nf_ta = const v }
  in
  let cind name ~rhs x =
    { Cind.nf_name = name; nf_lhs = "p"; nf_rhs = rhs; nf_x = x; nf_y = x; nf_xp = []; nf_yp = [] }
  in
  let into_q = cind "into_q" ~rhs:"q" [] in
  let sigma =
    { Sigma.ncfds = [ forced "b1" "1"; forced "b2" "2" ]; ncinds = [ cind "loop" ~rhs:"p" [ "a" ]; into_q ] }
  in
  check_bool "nothing denies p's tuples" true (Preprocessing.non_triggering schema into_q = []);
  List.iter
    (fun backend ->
      match Checking.check ~backend ~rng:(rng ()) schema sigma with
      | Checking.Unknown _ -> ()
      | Checking.Consistent db -> Alcotest.failf "witness violates Σ:@ %a" Database.pp db
      | Checking.Inconsistent -> Alcotest.fail "preProcessing cannot empty p")
    [ Cfd_checking.Chase_backend; Cfd_checking.Sat_backend ]

let test_checking_bank_sigma () =
  (* The full running-example Σ is consistent (the clean Fig 1 database
     satisfies it); Checking should find its own witness. *)
  let sigma = Sigma.normalize B.sigma in
  check_bool "bank sigma satisfied by clean db" true (Sigma.nf_holds B.clean_db sigma);
  match Checking.check ~k:60 ~rng:(rng ()) B.schema sigma with
  | Checking.Consistent db -> check_bool "verified" true (Sigma.nf_holds db sigma)
  | Checking.Inconsistent -> Alcotest.fail "bank sigma is consistent"
  | Checking.Unknown _ -> Alcotest.fail "Checking should find the bank witness"

let () =
  Alcotest.run "consistency"
    [
      ( "cfd-checking",
        [
          Alcotest.test_case "backends agree" `Quick test_backends_agree_on_examples;
          Alcotest.test_case "SAT witness valid" `Quick test_sat_model_satisfies;
          Alcotest.test_case "SAT unnamed attribute avoids Σ's constants" `Quick
            test_sat_unnamed_attribute;
        ] );
      ( "dependency-graph",
        [ Alcotest.test_case "Example 5.4 graph" `Quick test_depgraph_structure ] );
      ( "preprocessing",
        [
          Alcotest.test_case "Example 5.4 (returns 1)" `Quick
            test_preprocessing_example_5_4;
          Alcotest.test_case "Example 5.5 (returns -1)" `Quick
            test_preprocessing_example_5_5;
          Alcotest.test_case "inconsistent graph (returns 0)" `Quick
            test_preprocessing_inconsistent;
          Alcotest.test_case "non-triggering CFDs" `Quick test_non_triggering_cfds;
          Alcotest.test_case "SAT backend agrees (Ex 5.4)" `Quick
            test_preprocessing_sat_backend;
          Alcotest.test_case "component constraints" `Quick test_component_sigma_contents;
          Alcotest.test_case "weak components split" `Quick test_weak_components_split;
          Alcotest.test_case "graph orders" `Quick test_depgraph_orders;
        ] );
      ( "random-checking",
        [
          Alcotest.test_case "Example 5.1" `Quick test_random_checking_example_5_1;
          Alcotest.test_case "Example 5.3 (finite H)" `Quick
            test_random_checking_example_5_3;
          Alcotest.test_case "sound on Example 4.2" `Quick
            test_random_checking_sound_on_conflict;
          Alcotest.test_case "caller rng advances one split per run" `Quick
            test_random_checking_rng_contract;
        ] );
      ( "checking",
        [
          Alcotest.test_case "Example 5.6" `Quick test_checking_example_5_6;
          Alcotest.test_case "Example 4.2 rejected" `Quick test_checking_example_4_2;
          Alcotest.test_case "bank sigma" `Quick test_checking_bank_sigma;
          Alcotest.test_case "one-value domains: component witness violates Σ" `Quick
            test_checking_one_value_domains;
        ] );
    ]
