open Conddep_relational
open Conddep_core
open Helpers

(* Static analyses of CINDs: Theorem 3.2 (consistency), the inference
   system I with the Example 3.4 proof, and the exact implication decision
   procedure (Theorems 3.4 / 3.5). *)

module B = Conddep_fixtures.Bank

(* boolean views of the three-valued decision, for assertion brevity: these
   fixture-sized instances never exhaust the default budgets *)
let implied schema ~sigma psi =
  Implication.decide schema ~sigma psi = Implication.Implied

(* --- Theorem 3.2: CINDs are always consistent ---------------------------- *)

let test_witness_bank () =
  let sigma = List.concat_map Cind.normalize B.all_cinds in
  let db = Witness.database B.schema sigma in
  check_bool "witness nonempty" false (Database.is_empty db);
  List.iter
    (fun cind ->
      check_bool
        (Printf.sprintf "witness satisfies %s" cind.Cind.name)
        true (Cind.holds db cind))
    B.all_cinds

let test_witness_cyclic_cinds () =
  (* Cyclic CINDs with clashing constants are still consistent. *)
  let schema = string_schema "r" [ "a"; "b" ] in
  let mk name xp_v yp_v =
    List.hd
      (Cind.normalize
         (Cind.make ~name ~lhs:"r" ~rhs:"r" ~x:[] ~xp:[ "a" ] ~y:[] ~yp:[ "b" ]
            [ { Cind.cx = []; cxp = [ const xp_v ]; cy = []; cyp = [ const yp_v ] } ]))
  in
  let sigma = [ mk "c1" "u" "v"; mk "c2" "v" "u" ] in
  let db = Witness.database schema sigma in
  check_bool "cyclic witness holds" true (List.for_all (Cind.nf_holds db) sigma)

let test_witness_size_guard () =
  let sigma = List.concat_map Cind.normalize B.all_cinds in
  match Witness.database ~max_tuples:1 B.schema sigma with
  | exception Witness.Too_large _ -> ()
  | _ -> Alcotest.fail "expected Too_large"

(* --- inference system I --------------------------------------------------- *)

let test_example_3_4_proof_checks () =
  match
    Inference.proves B.schema ~sigma:B.implication_sigma B.example_3_4_proof
      B.implication_goal
  with
  | Ok lines -> check_int "proof length" 11 (Array.length lines)
  | Error msg -> Alcotest.failf "Example 3.4 proof rejected: %s" msg

let test_axiom_must_be_in_sigma () =
  let bogus = [ Inference.Axiom B.implication_goal ] in
  match Inference.check B.schema ~sigma:B.implication_sigma bogus with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign axiom accepted"

let test_broken_transitivity_rejected () =
  (* Transitivity whose middle patterns disagree must be rejected. *)
  let proof =
    [
      Inference.Axiom (List.hd (Cind.normalize B.psi1_edi));
      Inference.Axiom (List.nth (Cind.normalize B.psi5) 1) (* NYC row: ab=NYC *);
      Inference.Infer (Inference.Proj_perm { prem = 0; indices = [] });
      Inference.Infer (Inference.Transitivity { first = 2; second = 1 });
    ]
  in
  match
    Inference.check B.schema
      ~sigma:(List.concat_map Cind.normalize [ B.psi1_edi; B.psi5 ])
      proof
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mismatched transitivity accepted"

let test_cind7_drop () =
  (* Premises binding at = saving and at = checking (covering dom(at)) merge
     into a pattern-free CIND via CIND7. *)
  let mk v =
    List.hd
      (Cind.normalize
         (Cind.make ~name:("m_" ^ v) ~lhs:"account_edi" ~rhs:"saving" ~x:[ "an" ]
            ~xp:[ "at" ] ~y:[ "an" ] ~yp:[]
            [ { Cind.cx = [ wildcard ]; cxp = [ const v ]; cy = [ wildcard ]; cyp = [] } ]))
  in
  let sigma = [ mk "saving"; mk "checking" ] in
  let proof =
    [
      Inference.Axiom (mk "saving");
      Inference.Axiom (mk "checking");
      Inference.Infer (Inference.Finite_drop { prems = [ 0; 1 ]; attr = "at" });
    ]
  in
  match Inference.check B.schema ~sigma proof with
  | Error msg -> Alcotest.failf "CIND7 rejected: %s" msg
  | Ok lines ->
      let last = lines.(2) in
      check_bool "at dropped from Xp" true (last.Cind.nf_xp = []);
      (* an incomplete family must be rejected *)
      let partial =
        [ Inference.Axiom (mk "saving");
          Inference.Infer (Inference.Finite_drop { prems = [ 0 ]; attr = "at" }) ]
      in
      (match Inference.check B.schema ~sigma partial with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "CIND7 with partial domain coverage accepted")

let test_rules_are_sound_on_bank_db () =
  (* Every line of the Example 3.4 proof must hold in any database that
     satisfies Σ — in particular the clean bank database. *)
  match Inference.check B.schema ~sigma:B.implication_sigma B.example_3_4_proof with
  | Error msg -> Alcotest.fail msg
  | Ok lines ->
      check_bool "clean db satisfies sigma" true
        (List.for_all (Cind.nf_holds B.clean_db) B.implication_sigma);
      Array.iteri
        (fun i nf ->
          check_bool (Printf.sprintf "line %d sound" i) true
            (Cind.nf_holds B.clean_db nf))
        lines

(* --- individual rules ------------------------------------------------------ *)

(* [prior] holds the conclusions of lines 0, 1, ... *)
let lookup prior i = if 0 <= i && i < Array.length prior then Some prior.(i) else None

let apply_ok rule prior =
  match Inference.apply B.schema (lookup prior) rule with
  | Ok nf -> nf
  | Error msg -> Alcotest.failf "rule %s rejected: %s" (Inference.rule_name rule) msg

let apply_err rule prior =
  match Inference.apply B.schema (lookup prior) rule with
  | Error _ -> ()
  | Ok nf -> Alcotest.failf "rule accepted, derived %a" Cind.pp_nf nf

let psi1_nf = List.hd (Cind.normalize B.psi1_edi)

let test_rule_reflexivity () =
  let nf = apply_ok (Inference.Reflexivity { rel = "saving"; x = [ "an"; "ab" ] }) [||] in
  check_bool "x = y" true (nf.Cind.nf_x = nf.nf_y);
  check_bool "no patterns" true (nf.nf_xp = [] && nf.nf_yp = []);
  apply_err (Inference.Reflexivity { rel = "saving"; x = [ "an"; "an" ] }) [||];
  apply_err (Inference.Reflexivity { rel = "saving"; x = [] }) [||];
  apply_err (Inference.Reflexivity { rel = "nope"; x = [ "an" ] }) [||]

let test_rule_projection () =
  (* keep positions 2,0 of psi1's X = [an; cn; ca; cp] *)
  let nf = apply_ok (Inference.Proj_perm { prem = 0; indices = [ 2; 0 ] }) [| psi1_nf |] in
  check_bool "x projected" true (nf.Cind.nf_x = [ "ca"; "an" ]);
  check_bool "y projected" true (nf.nf_y = [ "ca"; "an" ]);
  check_bool "patterns kept" true (nf.nf_xp = psi1_nf.nf_xp);
  apply_err (Inference.Proj_perm { prem = 0; indices = [ 0; 0 ] }) [| psi1_nf |];
  apply_err (Inference.Proj_perm { prem = 0; indices = [ 9 ] }) [| psi1_nf |];
  apply_err (Inference.Proj_perm { prem = 3; indices = [ 0 ] }) [| psi1_nf |]

let test_rule_instantiate () =
  (* CIND4: move an from X to Xp bound to a constant *)
  let nf =
    apply_ok (Inference.Instantiate { prem = 0; attr = "an"; value = str "01" }) [| psi1_nf |]
  in
  check_bool "an removed from x" false (List.mem "an" nf.Cind.nf_x);
  check_bool "an bound in xp" true (List.mem_assoc "an" nf.nf_xp);
  check_bool "counterpart bound in yp" true (List.mem_assoc "an" nf.nf_yp);
  (* value outside the domain *)
  apply_err (Inference.Instantiate { prem = 0; attr = "an"; value = int 3 }) [| psi1_nf |];
  (* attribute not in X *)
  apply_err (Inference.Instantiate { prem = 0; attr = "at"; value = str "saving" }) [| psi1_nf |]

let test_rule_augment () =
  (* psi3 has X = [ab], Xp = nil over saving(an, cn, ca, cp, ab) *)
  let psi3_nf = List.hd (Cind.normalize B.psi3) in
  let nf =
    apply_ok (Inference.Augment { prem = 0; attr = "cn"; value = str "Smith" }) [| psi3_nf |]
  in
  check_bool "cn added to xp" true (List.mem_assoc "cn" nf.Cind.nf_xp);
  check_bool "yp unchanged" true (nf.nf_yp = psi3_nf.nf_yp);
  (* the augmented CIND is semantically implied *)
  check_bool "augment sound" true
    (implied B.schema ~sigma:[ psi3_nf ] nf);
  (* attribute already in X *)
  apply_err (Inference.Augment { prem = 0; attr = "ab"; value = str "EDI" }) [| psi3_nf |];
  (* value outside domain *)
  apply_err (Inference.Augment { prem = 0; attr = "cn"; value = int 1 }) [| psi3_nf |]

let test_rule_reduce () =
  let psi5_nf = List.hd (Cind.normalize B.psi5) in
  let nf = apply_ok (Inference.Reduce { prem = 0; keep_yp = [ "ct"; "rt" ] }) [| psi5_nf |] in
  check_int "yp reduced to two" 2 (List.length nf.Cind.nf_yp);
  apply_err (Inference.Reduce { prem = 0; keep_yp = [ "cn" ] }) [| psi5_nf |]

let test_rule_finite_restore_value_mismatch () =
  (* CIND8 premises whose ti[A] <> ti[B] must be rejected. *)
  let mk v w =
    Cind.canon_nf
      {
        Cind.nf_name = "m";
        nf_lhs = "account_edi";
        nf_rhs = "interest";
        nf_x = [];
        nf_y = [];
        nf_xp = [ ("at", str v) ];
        nf_yp = [ ("at", str w) ];
      }
  in
  apply_err
    (Inference.Finite_restore { prems = [ 0; 1 ]; attr_a = "at"; attr_b = "at" })
    [| mk "saving" "checking"; mk "checking" "saving" |]

(* --- exact implication ---------------------------------------------------- *)

let test_example_3_4_semantic () =
  check_bool "Sigma |= psi (Example 3.4)" true
    (implied B.schema ~sigma:B.implication_sigma B.implication_goal)

let test_implication_fails_without_finite_domain () =
  (* The same implication over an infinite account type would fail: CIND8
     needs dom(at) = {saving, checking}.  Model it by dropping ψ2/ψ6 so only
     the saving case is covered. *)
  let sigma = List.concat_map Cind.normalize [ B.psi1_edi; B.psi5 ] in
  check_bool "partial coverage does not imply" false
    (implied B.schema ~sigma B.implication_goal)

let test_reflexivity_implied () =
  let refl =
    {
      Cind.nf_name = "refl";
      nf_lhs = "saving";
      nf_rhs = "saving";
      nf_x = [ "an"; "ab" ];
      nf_y = [ "an"; "ab" ];
      nf_xp = [];
      nf_yp = [];
    }
  in
  check_bool "reflexivity from empty sigma" true
    (implied B.schema ~sigma:[] refl)

let test_transitivity_implied () =
  let schema = string_schema "r" [ "a" ] in
  let schema =
    Db_schema.make
      (Db_schema.relations schema
      @ [
          Schema.make "s" [ Attribute.make "a" Domain.string_inf ];
          Schema.make "t" [ Attribute.make "a" Domain.string_inf ];
        ])
  in
  let ind lhs rhs =
    List.hd
      (Cind.normalize
         (Cind.make ~name:(lhs ^ rhs) ~lhs ~rhs ~x:[ "a" ] ~xp:[] ~y:[ "a" ] ~yp:[]
            [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ]))
  in
  let sigma = [ ind "r" "s"; ind "s" "t" ] in
  check_bool "r subset t implied" true (implied schema ~sigma (ind "r" "t"));
  check_bool "t subset r not implied" false
    (implied schema ~sigma (ind "t" "r"))

let test_pattern_blocks_transitivity () =
  (* r ⊆ s only for tagged tuples; s ⊆ t unconditionally.  The composition
     holds only for the tagged pattern. *)
  let schema =
    Db_schema.make
      [
        Schema.make "r" [ Attribute.make "a" Domain.string_inf; Attribute.make "tag" Domain.string_inf ];
        Schema.make "s" [ Attribute.make "a" Domain.string_inf ];
        Schema.make "t" [ Attribute.make "a" Domain.string_inf ];
      ]
  in
  let nf name lhs rhs xp =
    List.hd
      (Cind.normalize
         (Cind.make ~name ~lhs ~rhs ~x:[ "a" ] ~xp:(List.map fst xp) ~y:[ "a" ] ~yp:[]
            [
              {
                Cind.cx = [ wildcard ];
                cxp = List.map (fun (_, v) -> const v) xp;
                cy = [ wildcard ];
                cyp = [];
              };
            ]))
  in
  let sigma = [ nf "c1" "r" "s" [ ("tag", "hot") ]; nf "c2" "s" "t" [] ] in
  check_bool "conditional composition holds" true
    (implied schema ~sigma (nf "goal" "r" "t" [ ("tag", "hot") ]));
  check_bool "unconditional not implied" false
    (implied schema ~sigma (nf "goal2" "r" "t" []))

let test_yp_weakening_implied () =
  (* ψ with Yp ⊇ Yp' implies the Yp'-restricted version (rule CIND6). *)
  let sigma = List.concat_map Cind.normalize [ B.psi5 ] in
  let weakened =
    {
      Cind.nf_name = "weak";
      nf_lhs = "saving";
      nf_rhs = "interest";
      nf_x = [];
      nf_y = [];
      nf_xp = [ ("ab", str "EDI") ];
      nf_yp = [ ("ct", str "UK") ];
    }
  in
  check_bool "Yp reduction implied" true (implied B.schema ~sigma weakened);
  let strengthened = { weakened with Cind.nf_yp = [ ("ct", str "UK"); ("rt", str "9%") ] } in
  check_bool "stronger Yp not implied" false
    (implied B.schema ~sigma strengthened)

let test_wide_finite_product_capped () =
  (* One CIND into a relation with 40 free two-valued attributes: the
     tuple it creates has 2^40 candidate shapes.  The search must reach
     its [max_states] cap after the first thousand of them instead of
     building them all before its first check. *)
  let flags =
    List.init 40 (fun i ->
        Attribute.make (Printf.sprintf "f%d" i) Domain.bool_dom)
  in
  let schema =
    Db_schema.make
      [
        Schema.make "r" [ Attribute.make "a" Domain.string_inf ];
        Schema.make "s" (Attribute.make "k" Domain.string_inf :: flags);
      ]
  in
  let cind ?(yp = []) name =
    {
      Cind.nf_name = name;
      nf_lhs = "r";
      nf_rhs = "s";
      nf_x = [ "a" ];
      nf_y = [ "k" ];
      nf_xp = [];
      nf_yp = yp;
    }
  in
  let t0 = Unix.gettimeofday () in
  let outcome =
    Implication.decide ~max_states:1000 schema ~sigma:[ cind "sigma" ]
      (cind ~yp:[ ("f0", Value.Bool true) ] "psi")
  in
  check_bool "answers promptly" true (Unix.gettimeofday () -. t0 < 5.0);
  match outcome with
  | Implication.Undetermined Guard.Fuel -> ()
  | o ->
      Alcotest.failf "expected undetermined (fuel), got %a"
        Implication.pp_outcome o

(* --- proof search (constructive Thm 3.5) ----------------------------------- *)

let three_rel_schema () =
  Db_schema.make
    [
      Schema.make "r"
        [ Attribute.make "a" Domain.string_inf; Attribute.make "tag" Domain.string_inf ];
      Schema.make "s"
        [ Attribute.make "a" Domain.string_inf; Attribute.make "b" Domain.string_inf ];
      Schema.make "t" [ Attribute.make "a" Domain.string_inf ];
    ]

let mk_nf name lhs rhs x xp yp =
  Cind.canon_nf
    {
      Cind.nf_name = name;
      nf_lhs = lhs;
      nf_rhs = rhs;
      nf_x = List.map fst x;
      nf_y = List.map snd x;
      nf_xp = xp;
      nf_yp = yp;
    }

let check_derivation schema sigma goal ~expect =
  match Proof_search.derive schema ~sigma goal with
  | None -> check_bool "derivable" expect false
  | Some proof -> (
      check_bool "derivable" expect true;
      match Inference.proves schema ~sigma proof goal with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "emitted proof rejected: %s" msg)

let test_proof_search_transitivity () =
  let schema = three_rel_schema () in
  let sigma =
    [
      mk_nf "rs" "r" "s" [ ("a", "a") ] [] [];
      mk_nf "st" "s" "t" [ ("a", "a") ] [] [];
    ]
  in
  check_derivation schema sigma (mk_nf "goal" "r" "t" [ ("a", "a") ] [] []) ~expect:true;
  check_derivation schema sigma (mk_nf "no" "t" "r" [ ("a", "a") ] [] []) ~expect:false

let test_proof_search_patterns () =
  let schema = three_rel_schema () in
  let sigma =
    [
      mk_nf "rs" "r" "s" [ ("a", "a") ] [ ("tag", str "hot") ] [ ("b", str "ok") ];
      mk_nf "st" "s" "t" [ ("a", "a") ] [ ("b", str "ok") ] [];
    ]
  in
  (* the composition holds only under the tag pattern *)
  check_derivation schema sigma
    (mk_nf "goal" "r" "t" [ ("a", "a") ] [ ("tag", str "hot") ] [])
    ~expect:true;
  check_derivation schema sigma (mk_nf "no" "r" "t" [ ("a", "a") ] [] []) ~expect:false

let test_proof_search_yp_weakening () =
  let schema = three_rel_schema () in
  let sigma = [ mk_nf "rs" "r" "s" [ ("a", "a") ] [] [ ("b", str "k") ] ] in
  (* weaker RHS pattern and extra LHS pattern are both derivable *)
  check_derivation schema sigma (mk_nf "weak" "r" "s" [ ("a", "a") ] [] []) ~expect:true;
  check_derivation schema sigma
    (mk_nf "aug" "r" "s" [ ("a", "a") ] [ ("tag", str "x") ] [ ("b", str "k") ])
    ~expect:true;
  check_derivation schema sigma
    (mk_nf "strong" "r" "s" [ ("a", "a") ] [] [ ("b", str "other") ])
    ~expect:false

let test_proof_search_reflexivity_goal () =
  let schema = three_rel_schema () in
  check_derivation schema [] (mk_nf "refl" "s" "s" [ ("a", "a"); ("b", "b") ] [] [])
    ~expect:true

let test_proof_search_rejects_finite () =
  match
    Proof_search.derive B.schema ~sigma:B.implication_sigma B.implication_goal
  with
  | exception Proof_search.Finite_domain _ -> ()
  | _ -> Alcotest.fail "finite-domain input accepted"

let test_proof_search_agrees_with_semantics () =
  let schema = three_rel_schema () in
  let sigma =
    [
      mk_nf "rs" "r" "s" [ ("a", "a") ] [ ("tag", str "hot") ] [ ("b", str "ok") ];
      mk_nf "st" "s" "t" [ ("a", "a") ] [] [];
      mk_nf "ss" "s" "s" [ ("b", "a") ] [] [ ("b", str "loop") ];
    ]
  in
  let goals =
    [
      mk_nf "g1" "r" "t" [ ("a", "a") ] [ ("tag", str "hot") ] [];
      mk_nf "g2" "r" "t" [ ("a", "a") ] [] [];
      mk_nf "g3" "s" "s" [ ("b", "a") ] [] [];
      mk_nf "g4" "s" "t" [ ("b", "a") ] [] [];
      mk_nf "g5" "r" "s" [ ("a", "a") ] [ ("tag", str "cold") ] [];
    ]
  in
  List.iter
    (fun goal ->
      let semantic = implied schema ~sigma goal in
      check_derivation schema sigma goal ~expect:semantic)
    goals

(* --- first-order readings (Logic) ------------------------------------------ *)

let test_logic_cind_agrees () =
  List.iter
    (fun cind ->
      List.iter
        (fun nf ->
          let formula = Logic.cind_to_formula B.schema nf in
          List.iter
            (fun db ->
              check_bool
                (Printf.sprintf "FO reading of %s agrees" nf.Cind.nf_name)
                (Cind.nf_holds db nf) (Logic_eval.holds db formula))
            [ B.clean_db; B.dirty_db ])
        (Cind.normalize cind))
    B.all_cinds

let test_logic_cfd_agrees () =
  List.iter
    (fun cfd ->
      List.iter
        (fun nf ->
          let formula = Logic.cfd_to_formula B.schema nf in
          List.iter
            (fun db ->
              check_bool
                (Printf.sprintf "FO reading of %s agrees" nf.Cfd.nf_name)
                (Cfd.nf_holds db nf) (Logic_eval.holds db formula))
            [ B.clean_db; B.dirty_db ])
        (Cfd.normalize cfd))
    B.all_cfds

let test_logic_rendering () =
  let nf = List.hd (Cind.normalize B.psi1_edi) in
  let rendered = Fmt.str "%a" Logic.pp (Logic.cind_to_formula B.schema nf) in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "mentions %s" needle) true
        (contains_substring ~needle rendered))
    [ "forall"; "exists"; "saving"; "account_edi"; "\"EDI\"" ]

(* --- classical IND baseline ---------------------------------------------- *)

let test_ind_membership () =
  let i lhs x rhs y = Ind.make ~lhs ~x ~rhs ~y in
  let sigma =
    [ i "r" [ "a"; "b" ] "s" [ "c"; "d" ]; i "s" [ "c" ] "t" [ "e" ] ]
  in
  check_bool "projection + transitivity" true
    (Ind.implies sigma (i "r" [ "a" ] "t" [ "e" ]));
  check_bool "permutation" true (Ind.implies sigma (i "r" [ "b"; "a" ] "s" [ "d"; "c" ]));
  check_bool "reflexivity" true (Ind.implies [] (i "r" [ "a" ] "r" [ "a" ]));
  check_bool "wrong column" false (Ind.implies sigma (i "r" [ "b" ] "t" [ "e" ]))

let test_minimal_cover_cinds () =
  let schema = string_schema "r" [ "a" ] in
  let schema =
    Db_schema.make
      (Db_schema.relations schema
      @ [
          Schema.make "s" [ Attribute.make "a" Domain.string_inf ];
          Schema.make "t" [ Attribute.make "a" Domain.string_inf ];
        ])
  in
  let ind lhs rhs =
    List.hd
      (Cind.normalize
         (Cind.make ~name:(lhs ^ rhs) ~lhs ~rhs ~x:[ "a" ] ~xp:[] ~y:[ "a" ] ~yp:[]
            [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ]))
  in
  let sigma = [ ind "r" "s"; ind "s" "t"; ind "r" "t" ] in
  let cover = Minimal_cover.cind_cover schema sigma in
  check_int "redundant r-t removed" 2 (List.length cover);
  check_int "duplicates removed" 1
    (List.length (Minimal_cover.dedup_cinds [ ind "r" "s"; ind "r" "s" ]))

let () =
  Alcotest.run "reasoning"
    [
      ( "consistency (Thm 3.2)",
        [
          Alcotest.test_case "bank witness" `Quick test_witness_bank;
          Alcotest.test_case "cyclic CINDs" `Quick test_witness_cyclic_cinds;
          Alcotest.test_case "size guard" `Quick test_witness_size_guard;
        ] );
      ( "inference system I",
        [
          Alcotest.test_case "Example 3.4 proof" `Quick test_example_3_4_proof_checks;
          Alcotest.test_case "foreign axiom rejected" `Quick test_axiom_must_be_in_sigma;
          Alcotest.test_case "broken transitivity rejected" `Quick
            test_broken_transitivity_rejected;
          Alcotest.test_case "CIND7 domain coverage" `Quick test_cind7_drop;
          Alcotest.test_case "derived lines hold in models" `Quick
            test_rules_are_sound_on_bank_db;
        ] );
      ( "rules",
        [
          Alcotest.test_case "CIND1 reflexivity" `Quick test_rule_reflexivity;
          Alcotest.test_case "CIND2 projection" `Quick test_rule_projection;
          Alcotest.test_case "CIND4 instantiation" `Quick test_rule_instantiate;
          Alcotest.test_case "CIND5 augmentation" `Quick test_rule_augment;
          Alcotest.test_case "CIND6 reduction" `Quick test_rule_reduce;
          Alcotest.test_case "CIND8 value mismatch" `Quick
            test_rule_finite_restore_value_mismatch;
        ] );
      ( "implication (Thms 3.4/3.5)",
        [
          Alcotest.test_case "Example 3.4 semantically" `Quick test_example_3_4_semantic;
          Alcotest.test_case "partial coverage fails" `Quick
            test_implication_fails_without_finite_domain;
          Alcotest.test_case "reflexivity" `Quick test_reflexivity_implied;
          Alcotest.test_case "transitivity" `Quick test_transitivity_implied;
          Alcotest.test_case "patterns gate composition" `Quick
            test_pattern_blocks_transitivity;
          Alcotest.test_case "Yp weakening (CIND6)" `Quick test_yp_weakening_implied;
          Alcotest.test_case "state cap on a 2^40 finite product" `Quick
            test_wide_finite_product_capped;
        ] );
      ( "proof search (Thm 3.5, constructive)",
        [
          Alcotest.test_case "transitivity chain" `Quick test_proof_search_transitivity;
          Alcotest.test_case "pattern-gated composition" `Quick
            test_proof_search_patterns;
          Alcotest.test_case "Yp weakening / Xp augmentation" `Quick
            test_proof_search_yp_weakening;
          Alcotest.test_case "reflexive goals" `Quick test_proof_search_reflexivity_goal;
          Alcotest.test_case "finite domains rejected" `Quick
            test_proof_search_rejects_finite;
          Alcotest.test_case "agrees with the semantic decision" `Quick
            test_proof_search_agrees_with_semantics;
        ] );
      ( "first-order readings",
        [
          Alcotest.test_case "CINDs as TGDs" `Quick test_logic_cind_agrees;
          Alcotest.test_case "CFDs as EGDs" `Quick test_logic_cfd_agrees;
          Alcotest.test_case "rendering" `Quick test_logic_rendering;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "IND membership (CFP)" `Quick test_ind_membership;
          Alcotest.test_case "CIND minimal cover" `Quick test_minimal_cover_cinds;
        ] );
    ]
