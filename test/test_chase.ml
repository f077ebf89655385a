open Conddep_relational
open Conddep_core
open Conddep_chase
open Conddep_consistency
open Conddep_generator
open Helpers

(* The extended chase of Section 5.1, against the worked Examples 5.1–5.3. *)

module B = Conddep_fixtures.Bank

let rng () = Rng.make 42

let get_terminal = function
  | Chase_oracle.Terminal db -> db
  | Chase_oracle.Undefined why -> Alcotest.failf "chase undefined: %s" why
  | Chase_oracle.Exhausted r -> Alcotest.failf "chase exhausted: %s" (Guard.reason_to_string r)

(* --- template plumbing ---------------------------------------------------- *)

let test_cell_order () =
  let v = Template.V { Template.vrel = "r"; vattr = "a"; vidx = 0 } in
  let c = Template.C (str "x") in
  check_bool "var below constant" true (Template.cell_compare v c < 0);
  check_bool "var matches wildcard" true (Template.cell_matches_pattern v wildcard);
  check_bool "var does not match constant" false
    (Template.cell_matches_pattern v (const "x"));
  check_bool "constant matches itself" true (Template.cell_matches_pattern c (const "x"))

let test_template_set_semantics () =
  let schema = string_schema "r" [ "a" ] in
  let t = [| Template.C (str "x") |] in
  let db = Template.add (Template.add (Template.empty schema) "r" t) "r" t in
  check_int "dedup" 1 (Template.cardinal db "r")

let test_subst_merges () =
  let schema = string_schema "r" [ "a" ] in
  let v0 = { Template.vrel = "r"; vattr = "a"; vidx = 0 } in
  let db =
    Template.add
      (Template.add (Template.empty schema) "r" [| Template.V v0 |])
      "r"
      [| Template.C (str "x") |]
  in
  let db = Template.subst db v0 (Template.C (str "x")) in
  check_int "substitution merges tuples" 1 (Template.cardinal db "r")

(* The exact tuple list after a substitution: tuples keep their order, a
   rewritten tuple equal to a later untouched tuple is dropped, and of two
   rewritten tuples that become equal the first is kept. *)
let test_subst_order () =
  let schema = string_schema "r" [ "a"; "b" ] in
  let var = { Template.vrel = "r"; vattr = "a"; vidx = 0 } in
  let v = Template.V var and c s = Template.C (str s) in
  let show db =
    List.map
      (fun t -> String.concat ", " (List.map (Fmt.str "%a" Template.pp_cell) (Array.to_list t)))
      (Template.tuples db "r")
  in
  (* [add] puts the newest tuple first: add in reverse to list in order *)
  let db =
    List.fold_left
      (fun db t -> Template.add db "r" t)
      (Template.empty schema)
      (List.rev
         [
           [| v; c "1" |] (* becomes (x, 1), like the last tuple: dropped *);
           [| v; v |] (* becomes (x, x): kept *);
           [| c "y"; c "2" |];
           [| v; c "x" |] (* becomes (x, x) too: dropped *);
           [| c "z"; c "3" |];
           [| c "x"; c "1" |];
         ])
  in
  Alcotest.(check (list string)) "as added"
    [ {|r.a#0, "1"|}; {|r.a#0, r.a#0|}; {|"y", "2"|}; {|r.a#0, "x"|}; {|"z", "3"|}; {|"x", "1"|} ]
    (show db);
  Alcotest.(check (list string)) "after subst"
    [ {|"x", "x"|}; {|"y", "2"|}; {|"z", "3"|}; {|"x", "1"|} ]
    (show (Template.subst db var (c "x")))

let test_to_database_freshness () =
  let schema = string_schema "r" [ "a"; "b" ] in
  let db =
    Template.add (Template.empty schema) "r"
      [|
        Template.V { Template.vrel = "r"; vattr = "a"; vidx = 0 };
        Template.V { Template.vrel = "r"; vattr = "b"; vidx = 0 };
      |]
  in
  let avoid = [ str "taboo" ] in
  let concrete = Template.to_database ~avoid db in
  let rel = Database.relation concrete "r" in
  check_int "one tuple" 1 (Relation.cardinal rel);
  let t = List.hd (Relation.tuples rel) in
  check_bool "distinct fresh values" false (Value.equal (Tuple.get t 0) (Tuple.get t 1));
  check_bool "avoids taboo" false
    (List.exists (fun v -> Value.equal v (str "taboo")) (Tuple.to_list t))

(* --- FD steps ------------------------------------------------------------ *)

let test_fd_step_constant_clash () =
  let schema = string_schema "r" [ "a"; "b" ] in
  let fd =
    Chase.compile_cfd schema
      (List.hd (Cfd.normalize (Fd.to_cfd (Fd.make ~rel:"r" ~x:[ "a" ] ~y:[ "b" ]))))
  in
  let db =
    Template.add
      (Template.add (Template.empty schema) "r" [| Template.C (str "x"); Template.C (str "1") |])
      "r"
      [| Template.C (str "x"); Template.C (str "2") |]
  in
  match Chase.fd_step fd db with
  | Chase.Fd_undefined _ -> ()
  | Chase.Fd_changed _ | Chase.Fd_unchanged -> Alcotest.fail "expected undefined"

let test_fd_step_var_merge () =
  let schema = string_schema "r" [ "a"; "b" ] in
  let fd =
    Chase.compile_cfd schema
      (List.hd (Cfd.normalize (Fd.to_cfd (Fd.make ~rel:"r" ~x:[ "a" ] ~y:[ "b" ]))))
  in
  let v = { Template.vrel = "r"; vattr = "b"; vidx = 0 } in
  let db =
    Template.add
      (Template.add (Template.empty schema) "r" [| Template.C (str "x"); Template.V v |])
      "r"
      [| Template.C (str "x"); Template.C (str "1") |]
  in
  match Chase.fd_step fd db with
  | Chase.Fd_changed db ->
      check_int "merged into one tuple" 1 (Template.cardinal db "r")
  | _ -> Alcotest.fail "expected a change"

let test_fd_step_pattern_constant () =
  (* ϕ = (A -> B, (_ || c)) forces B := c on a single tuple. *)
  let schema = string_schema "r" [ "a"; "b" ] in
  let cfd =
    Chase.compile_cfd schema
      (List.hd
         (Cfd.normalize
            (Cfd.make ~name:"f" ~rel:"r" ~x:[ "a" ] ~y:[ "b" ]
               [ { Cfd.rx = [ wildcard ]; ry = [ const "c" ] } ])))
  in
  let v = { Template.vrel = "r"; vattr = "b"; vidx = 0 } in
  let db =
    Template.add (Template.empty schema) "r" [| Template.C (str "x"); Template.V v |]
  in
  match Chase.fd_step cfd db with
  | Chase.Fd_changed db -> (
      match Template.tuples db "r" with
      | [ t ] -> check_bool "B forced to c" true (Template.cell_equal t.(1) (Template.C (str "c")))
      | _ -> Alcotest.fail "expected one tuple")
  | _ -> Alcotest.fail "expected a change"

(* --- Example 5.1: the full chase ----------------------------------------- *)

let test_example_5_1 () =
  let schema = B.ex5_schema ~finite_h:false in
  let sigma = Sigma.normalize (B.ex51_sigma ~finite_h:false) in
  let compiled = Chase.compile schema sigma in
  let seed = Chase.seed_tuple schema ~rel:"r1" in
  let terminal =
    get_terminal (Chase_oracle.run ~config:Chase.default_config ~rng:(rng ()) compiled seed)
  in
  (* chase(D, Σ) = R1: (c, vF), R2: (c, vH) — E and G hold the constant c. *)
  (match Template.tuples terminal "r1" with
  | [ t ] -> check_bool "R1.E = c" true (Template.cell_equal t.(0) (Template.C (str "c")))
  | _ -> Alcotest.fail "expected one R1 tuple");
  (match Template.tuples terminal "r2" with
  | [ t ] -> check_bool "R2.G = c" true (Template.cell_equal t.(0) (Template.C (str "c")))
  | _ -> Alcotest.fail "expected one R2 tuple");
  (* and the concretized result is a model of Σ (the heuristic's soundness) *)
  let avoid = Sigma.constant_values sigma in
  let db = Template.to_database ~avoid terminal in
  check_bool "concretization satisfies Sigma" true (Sigma.nf_holds db sigma)

let test_chase_terminates_on_cycle () =
  (* r ⊆ s and s ⊆ r: the bounded pools keep the chase finite. *)
  let schema =
    Db_schema.make
      [
        Schema.make "r" [ Attribute.make "a" Domain.string_inf ];
        Schema.make "s" [ Attribute.make "a" Domain.string_inf ];
      ]
  in
  let ind lhs rhs =
    Cind.make ~name:(lhs ^ rhs) ~lhs ~rhs ~x:[ "a" ] ~xp:[] ~y:[ "a" ] ~yp:[]
      [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ]
  in
  let sigma = Sigma.normalize (Sigma.make ~cinds:[ ind "r" "s"; ind "s" "r" ] ()) in
  let compiled = Chase.compile schema sigma in
  let seed = Chase.seed_tuple schema ~rel:"r" in
  let terminal =
    get_terminal (Chase_oracle.run ~config:Chase.default_config ~rng:(rng ()) compiled seed)
  in
  check_bool "bounded size" true (Template.total terminal <= 4)

let test_chase_threshold () =
  (* A self-feeding CIND: every r tuple needs one whose a is its b and
     whose b is "seen".  The seed and its first witness fill T = 2, so the
     next IND step is refused and the chase is undefined. *)
  let schema = string_schema "r" [ "a"; "b" ] in
  let grow =
    Cind.make ~name:"grow" ~lhs:"r" ~rhs:"r" ~x:[ "b" ] ~xp:[] ~y:[ "a" ] ~yp:[ "b" ]
      [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [ const "seen" ] } ]
  in
  let sigma = Sigma.normalize (Sigma.make ~cinds:[ grow ] ()) in
  let compiled = Chase.compile schema sigma in
  let seed = Chase.seed_tuple schema ~rel:"r" in
  let config = { Chase.default_config with threshold = 2; max_steps = 1000 } in
  match Chase_oracle.run ~config ~rng:(rng ()) compiled seed with
  | Chase_oracle.Undefined _ -> ()
  | Chase_oracle.Terminal db ->
      Alcotest.failf "terminal with %d tuples past T = 2" (Template.cardinal db "r")
  | Chase_oracle.Exhausted r -> Alcotest.failf "chase exhausted: %s" (Guard.reason_to_string r)

let test_pool_contents () =
  let pool = Pool.make ~n:3 in
  check_int "pool size" 3 (Pool.size pool);
  let vars = Pool.vars pool ~rel:"r" ~attr:"a" in
  check_int "three variables" 3 (List.length vars);
  check_int "distinct" 3
    (List.length (List.sort_uniq Template.var_compare vars));
  (* picks always come from the pool *)
  let rng = rng () in
  for _ = 1 to 50 do
    match Pool.pick pool rng ~rel:"r" ~attr:"a" with
    | Template.V v ->
        check_bool "picked from pool" true
          (List.exists (fun u -> Template.var_compare u v = 0) vars)
    | Template.C _ -> Alcotest.fail "pick returned a constant"
  done;
  match Pool.make ~n:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty pool accepted"

let test_column_constants () =
  let schema = string_schema "r" [ "a"; "b" ] in
  let v = Template.V { Template.vrel = "r"; vattr = "b"; vidx = 0 } in
  let db =
    Template.add
      (Template.add (Template.empty schema) "r" [| Template.C (str "x"); v |])
      "r"
      [| Template.C (str "y"); Template.C (str "w") |]
  in
  check_bool "column a = {x, y}" true
    (Template.column_constants db ~rel:"r" ~attr:"a" = [ str "x"; str "y" ]);
  check_bool "column b = {w} (variables skipped)" true
    (Template.column_constants db ~rel:"r" ~attr:"b" = [ str "w" ]);
  check_bool "unknown column empty" true
    (Template.column_constants db ~rel:"r" ~attr:"zz" = [])

let test_conclusion_constants () =
  let schema = string_schema "r" [ "a"; "b" ] in
  let cfds =
    List.map
      (Chase.compile_cfd schema)
      (List.concat_map Cfd.normalize
         [
           Cfd.make ~name:"c1" ~rel:"r" ~x:[ "a" ] ~y:[ "b" ]
             [ { Cfd.rx = [ wildcard ]; ry = [ const "v" ] } ];
           Cfd.make ~name:"c2" ~rel:"r" ~x:[ "a" ] ~y:[ "b" ]
             [ { Cfd.rx = [ wildcard ]; ry = [ wildcard ] } ];
         ])
  in
  match Chase.conclusion_constants schema cfds with
  | [ (("r", "b"), v) ] -> check_bool "constant v" true (Value.equal v (str "v"))
  | l -> Alcotest.failf "expected one conclusion constant, got %d" (List.length l)

let test_ind_step_reuses_witnesses () =
  (* IND(ψ) must not add a tuple when a witness already exists. *)
  let schema =
    Db_schema.make
      [
        Schema.make "src" [ Attribute.make "a" Domain.string_inf ];
        Schema.make "dst" [ Attribute.make "a" Domain.string_inf ];
      ]
  in
  let cind =
    Chase.compile_cind schema
      (List.hd
         (Cind.normalize
            (Cind.make ~name:"i" ~lhs:"src" ~rhs:"dst" ~x:[ "a" ] ~xp:[] ~y:[ "a" ]
               ~yp:[]
               [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ])))
  in
  let db =
    Template.add
      (Template.add (Template.empty schema) "src" [| Template.C (str "k") |])
      "dst"
      [| Template.C (str "k") |]
  in
  (match
     Chase.ind_step ~threshold:100 (Pool.make ~n:2) (rng ()) cind db
   with
  | Chase.Ind_unchanged -> ()
  | Chase.Ind_changed _ -> Alcotest.fail "added a tuple despite existing witness"
  | Chase.Ind_overflow _ -> Alcotest.fail "unexpected overflow");
  (* and must add one when the witness is missing *)
  let db2 = Template.add (Template.empty schema) "src" [| Template.C (str "k") |] in
  match
    Chase.ind_step ~threshold:100 (Pool.make ~n:2) (rng ()) cind db2
  with
  | Chase.Ind_changed db' -> check_int "dst got the tuple" 1 (Template.cardinal db' "dst")
  | _ -> Alcotest.fail "expected a change"

let test_finite_instantiation () =
  let schema = B.ex5_schema ~finite_h:true in
  let db = Chase.seed_tuple schema ~rel:"r2" in
  check_int "one finite var" 1 (List.length (Template.finite_variables db));
  let db = Chase.instantiate_finite_vars (rng ()) db in
  check_int "no finite vars left" 0 (List.length (Template.finite_variables db))

(* --- generated workloads: terminal fixpoints and budget cuts --------------- *)

let small_workload ?(consistent = false) seed =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng { Schema_gen.default with num_relations = 4 }
  in
  let generate = if consistent then Workload.consistent else Workload.random in
  (schema, generate rng { Workload.default with num_constraints = 24 } schema)

let first_rel_seed schema =
  Chase.seed_tuple schema ~rel:(List.hd (Db_schema.rel_names schema))

(* The seed tuple with every field set to the generator's hidden witness
   value.  Σ's patterns mention these constants, so CINDs fire and the
   chase grows past the seed. *)
let witness_seed schema =
  let db = first_rel_seed schema in
  List.fold_left
    (fun db (v : Template.var) ->
      let r = Db_schema.find schema v.vrel in
      Template.subst db v
        (Template.C (Workload.witness_value (Schema.attr r (Schema.position r v.vattr)))))
    db (Template.variables db)

(* A terminal template is a fixpoint of both single operations: no CFD's
   FD(φ) and no CIND's IND(ψ) changes it.  Checked on a random Σ chased
   from the all-variable seed tuple, and on a consistent Σ chased from
   the witness seed. *)
let prop_terminal_is_fixpoint seed =
  let config = Chase.default_config in
  let fixpoint (schema, sigma) db =
    let compiled = Chase.compile schema sigma in
    match
      Chase_oracle.run ~config ~rng:(Rng.make ((seed * 7) + 1)) compiled db
    with
    | Chase_oracle.Terminal db ->
        List.for_all
          (fun cfd ->
            match Chase.fd_step cfd db with Chase.Fd_unchanged -> true | _ -> false)
          compiled.Chase.cfds
        && List.for_all
             (fun cind ->
               match
                 Chase.ind_step ~threshold:config.threshold
                   (Pool.make ~n:config.pool_size) (Rng.make seed) cind db
               with
               | Chase.Ind_unchanged -> true
               | _ -> false)
             compiled.Chase.cinds
    | Chase_oracle.Undefined _ | Chase_oracle.Exhausted _ -> true
  in
  let ((schema, _) as random) = small_workload seed in
  let ((schema', _) as consistent) = small_workload ~consistent:true seed in
  fixpoint random (first_rel_seed schema) && fixpoint consistent (witness_seed schema')

let workload_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1000)

let sigma_gen =
  QCheck.make
    ~print:(fun (seed, c) -> Printf.sprintf "seed %d, consistent %b" seed c)
    QCheck.Gen.(pair (int_range 0 1000) bool)

(* An FD pass needs no step cap: an applied FD(φ) step substitutes at
   least one variable away everywhere, so a pass takes at most as many
   steps as the template has variables.  Templates with pool variables
   come from a seed tuple and up to six IND steps, round robin over Σ's
   CINDs (a random Σ from the all-variable seed, a consistent one from
   the witness seed); on each of them, and on every template down to its
   FD fixpoint, each [fd_step] that answers [Fd_changed] must leave
   strictly fewer variables. *)
let prop_fd_step_drops_a_variable (seed, consistent) =
  let schema, sigma = small_workload ~consistent seed in
  let compiled = Chase.compile schema sigma in
  let cinds = Array.of_list compiled.Chase.cinds in
  let pool = Pool.make ~n:Chase.default_config.pool_size in
  let rng = Rng.make seed in
  let variables db = List.length (Template.variables db) in
  let rec fd_steps_drop db =
    let changed =
      List.filter_map
        (fun cfd ->
          match Chase.fd_step cfd db with
          | Chase.Fd_changed db' -> Some db'
          | Chase.Fd_unchanged | Chase.Fd_undefined _ -> None)
        compiled.Chase.cfds
    in
    List.for_all (fun db' -> variables db' < variables db) changed
    && match changed with [] -> true | db' :: _ -> fd_steps_drop db'
  in
  let rec grow db ~applied ~idle i =
    if applied >= 6 || idle >= Array.length cinds then true
    else
      match
        Chase.ind_step ~threshold:Chase.default_config.threshold pool rng
          cinds.(i mod Array.length cinds) db
      with
      | Chase.Ind_changed db' ->
          fd_steps_drop db' && grow db' ~applied:(applied + 1) ~idle:0 (i + 1)
      | Chase.Ind_unchanged | Chase.Ind_overflow _ ->
          grow db ~applied ~idle:(idle + 1) (i + 1)
  in
  let seed_db = if consistent then witness_seed schema else first_rel_seed schema in
  fd_steps_drop seed_db && grow seed_db ~applied:0 ~idle:0 0

(* The clean-CFD memo of [Chase.fd_fixpoint] against the memo-free loop
   of [Chase_oracle.fd_fixpoint].  One compiled CFD list serves a whole
   walk of templates, as in RandomChecking: each template is the last
   fixpoint result (or, one time in four, an earlier template of the
   walk) after an IND step, round robin over Σ's CINDs, or after a random
   valuation of its finite-domain variables.  On every template both
   loops must give the same [Ok] template, list order included, or the
   same [Error] text. *)
let prop_fd_memo_matches_reference (seed, consistent) =
  let schema, sigma = small_workload ~consistent seed in
  let compiled = Chase.compile schema sigma in
  let cfds = compiled.Chase.cfds and cinds = Array.of_list compiled.Chase.cinds in
  let pool = Pool.make ~n:Chase.default_config.pool_size in
  let rng = Rng.make seed in
  let same db db' =
    List.for_all
      (fun rel ->
        List.equal
          (fun t u -> Template.tuple_compare t u = 0)
          (Template.tuples db rel) (Template.tuples db' rel))
      (Db_schema.rel_names schema)
  in
  let next db i =
    if Rng.bool rng || Array.length cinds = 0 then Chase.instantiate_finite_vars rng db
    else
      match
        Chase.ind_step ~threshold:Chase.default_config.threshold pool
          rng cinds.(i mod Array.length cinds) db
      with
      | Chase.Ind_changed db' -> db'
      | Chase.Ind_unchanged | Chase.Ind_overflow _ -> db
  in
  let rec walk history i =
    i >= 24
    ||
    let db = if Rng.int rng 4 = 0 then Rng.pick rng history else List.hd history in
    match Chase.fd_fixpoint cfds db, Chase_oracle.fd_fixpoint cfds db with
    | Ok fixed, Ok fixed' -> same fixed fixed' && walk (next fixed i :: fixed :: history) (i + 1)
    | Error why, Error why' -> String.equal why why' && walk (next db i :: history) (i + 1)
    | Ok _, Error _ | Error _, Ok _ -> false
  in
  walk [ (if consistent then witness_seed schema else first_rel_seed schema) ] 0

let test_run_spent_fuel () =
  let schema, sigma = small_workload 13 in
  match
    Guard.with_ambient (spent_fuel ()) (fun () ->
        Chase_oracle.run ~config:Chase.default_config ~rng:(Rng.make 3)
          (Chase.compile schema sigma) (first_rel_seed schema))
  with
  | Chase_oracle.Exhausted Guard.Fuel -> ()
  | Chase_oracle.Exhausted r -> Alcotest.failf "expected fuel, got %s" (Guard.reason_to_string r)
  | Chase_oracle.Terminal _ | Chase_oracle.Undefined _ -> Alcotest.fail "a spent budget must cut"

let test_random_checking_spent_fuel () =
  let schema, sigma = small_workload 13 in
  match
    Guard.with_ambient (spent_fuel ()) (fun () ->
        Random_checking.check ~rng:(Rng.make 2) schema sigma)
  with
  | Random_checking.Unknown Guard.Fuel -> ()
  | Random_checking.Unknown r ->
      Alcotest.failf "expected fuel, got %s" (Guard.reason_to_string r)
  | Random_checking.Consistent _ -> Alcotest.fail "a spent budget must cut"

let () =
  Alcotest.run "chase"
    [
      ( "templates",
        [
          Alcotest.test_case "cell order and matching" `Quick test_cell_order;
          Alcotest.test_case "set semantics" `Quick test_template_set_semantics;
          Alcotest.test_case "substitution merges" `Quick test_subst_merges;
          Alcotest.test_case "substitution keeps order" `Quick test_subst_order;
          Alcotest.test_case "concretization freshness" `Quick test_to_database_freshness;
        ] );
      ( "fd-steps",
        [
          Alcotest.test_case "constant clash undefined" `Quick test_fd_step_constant_clash;
          Alcotest.test_case "variable merge" `Quick test_fd_step_var_merge;
          Alcotest.test_case "pattern constant forced" `Quick test_fd_step_pattern_constant;
        ] );
      ( "full-chase",
        [
          Alcotest.test_case "Example 5.1" `Quick test_example_5_1;
          Alcotest.test_case "termination on cycles" `Quick test_chase_terminates_on_cycle;
          Alcotest.test_case "threshold T (chase_I)" `Quick test_chase_threshold;
          Alcotest.test_case "finite-domain instantiation" `Quick test_finite_instantiation;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "variable pools" `Quick test_pool_contents;
          Alcotest.test_case "column constants" `Quick test_column_constants;
          Alcotest.test_case "conclusion constants" `Quick test_conclusion_constants;
          Alcotest.test_case "IND witness reuse" `Quick test_ind_step_reuses_witnesses;
        ] );
      ( "fixpoint",
        [
          qtest ~count:80 "terminal chase is an FD and IND fixpoint" workload_gen
            prop_terminal_is_fixpoint;
          qtest ~count:1000 "an applied FD step drops a variable" sigma_gen
            prop_fd_step_drops_a_variable;
          qtest ~count:500 "memoised FD fixpoint matches the memo-free loop" sigma_gen
            prop_fd_memo_matches_reference;
        ] );
      ( "faults",
        [
          Alcotest.test_case "chase.run stops on spent fuel" `Quick test_run_spent_fuel;
          Alcotest.test_case "RandomChecking stops on spent fuel" `Quick
            test_random_checking_spent_fuel;
        ] );
    ]
