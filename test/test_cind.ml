open Conddep_relational
open Conddep_core
open Helpers

(* CIND syntax, semantics and normalization, checked against the paper's
   own worked examples (Fig 1, Fig 2, Examples 2.2 and 3.1). *)

module B = Conddep_fixtures.Bank

let test_validate_all_fixtures () =
  List.iter
    (fun cind -> ok_or_fail (Cind.validate B.schema cind))
    B.all_cinds

let test_clean_db_satisfies_everything () =
  List.iter
    (fun cind ->
      check_bool (Printf.sprintf "%s holds on clean db" cind.Cind.name) true
        (Cind.holds B.clean_db cind))
    B.all_cinds

let test_dirty_db_satisfies_psi1_to_psi5 () =
  (* Example 2.2: the Fig 1 database satisfies ψ1–ψ5 ... *)
  List.iter
    (fun cind ->
      check_bool (Printf.sprintf "%s holds on Fig 1 db" cind.Cind.name) true
        (Cind.holds B.dirty_db cind))
    [ B.psi1_nyc; B.psi1_edi; B.psi2_nyc; B.psi2_edi; B.psi3; B.psi4; B.psi5 ]

let test_t10_violates_psi6 () =
  (* ... but ψ6 is violated by t10. *)
  check_bool "psi6 fails on Fig 1 db" false (Cind.holds B.dirty_db B.psi6);
  match Cind.violations B.dirty_db B.psi6 with
  | [ (_, witness) ] -> check_bool "violator is t10" true (Tuple.equal witness B.t10)
  | l -> Alcotest.failf "expected exactly one violation, got %d" (List.length l)

let test_embedded_ind_does_not_hold () =
  (* Example 2.2: ψ1 is satisfied although its embedded IND is not. *)
  let embedded =
    Cind.make ~name:"embedded" ~lhs:"account_edi" ~rhs:"saving" ~x:B.xy ~xp:[] ~y:B.xy
      ~yp:[]
      [
        {
          Cind.cx = B.wild4;
          cxp = [];
          cy = B.wild4;
          cyp = [];
        };
      ]
  in
  check_bool "psi1_edi holds" true (Cind.holds B.clean_db B.psi1_edi);
  check_bool "embedded IND fails" false (Cind.holds B.clean_db embedded)

(* --- normalization (Prop 3.1, Example 3.1) ------------------------------ *)

let test_psi1_already_normal () =
  match Cind.normalize B.psi1_edi with
  | [ nf ] ->
      check_bool "x unchanged" true (nf.Cind.nf_x = B.xy);
      check_bool "xp binding" true (nf.nf_xp = [ ("at", str "saving") ]);
      check_bool "yp binding" true (nf.nf_yp = [ ("ab", str "EDI") ])
  | l -> Alcotest.failf "expected one normal-form CIND, got %d" (List.length l)

let test_psi5_splits_into_two () =
  match Cind.normalize B.psi5 with
  | [ nf1; nf2 ] ->
      check_bool "row 1 is the EDI pattern" true (List.mem_assoc "ab" nf1.Cind.nf_xp);
      check_bool "row 2 is the NYC pattern" true
        (nf2.Cind.nf_xp = [ ("ab", str "NYC") ]);
      check_int "row 1 yp size" 4 (List.length nf1.nf_yp)
  | l -> Alcotest.failf "expected two normal-form CINDs, got %d" (List.length l)

(* Example 3.1's generic rewrite: (R[A,B;C,D] ⊆ S[E,F;G], tp) with
   tp = (_, h; i, _ || _, h; o) becomes (R[A;B,C] ⊆ S[E;F,G], (_;h,i || _;h,o)). *)
let test_example_3_1_rewrite () =
  let r =
    Schema.make "r_31"
      (List.map (fun a -> Attribute.make a Domain.string_inf) [ "A"; "B"; "C"; "D" ])
  in
  let s =
    Schema.make "s_31"
      (List.map (fun a -> Attribute.make a Domain.string_inf) [ "E"; "F"; "G" ])
  in
  let schema = Db_schema.make [ r; s ] in
  let cind =
    Cind.make ~name:"ex31" ~lhs:"r_31" ~rhs:"s_31" ~x:[ "A"; "B" ] ~xp:[ "C"; "D" ]
      ~y:[ "E"; "F" ] ~yp:[ "G" ]
      [
        {
          Cind.cx = [ wildcard; const "h" ];
          cxp = [ const "i"; wildcard ];
          cy = [ wildcard; const "h" ];
          cyp = [ const "o" ];
        };
      ]
  in
  ok_or_fail (Cind.validate schema cind);
  match Cind.normalize cind with
  | [ nf ] ->
      check_bool "x reduced to [A]" true (nf.Cind.nf_x = [ "A" ]);
      check_bool "y reduced to [E]" true (nf.nf_y = [ "E" ]);
      let nf = Cind.canon_nf nf in
      check_bool "xp = {B=h, C=i}" true
        (nf.nf_xp = [ ("B", str "h"); ("C", str "i") ]);
      check_bool "yp = {F=h, G=o}" true (nf.nf_yp = [ ("F", str "h"); ("G", str "o") ])
  | l -> Alcotest.failf "expected one normal-form CIND, got %d" (List.length l)

(* ψ6's rates with the branch as an X/Y pair bound per row, which
   normalization moves into Xp/Yp (step 3 of Prop 3.1): EDI holds only on
   the clean database, NYC's 1.5% nowhere (t8, t9), the unbound row
   everywhere. *)
let psi6_by_branch =
  Cind.make ~name:"psi6_by_branch" ~lhs:"checking" ~rhs:"interest" ~x:[ "ab" ] ~xp:[] ~y:[ "ab" ]
    ~yp:[ "at"; "rt" ]
    [
      { Cind.cx = [ B.c "EDI" ]; cxp = []; cy = [ B.c "EDI" ]; cyp = [ B.c "checking"; B.c "1.5%" ] };
      { Cind.cx = [ B.c "NYC" ]; cxp = []; cy = [ B.c "NYC" ]; cyp = [ B.c "checking"; B.c "1.5%" ] };
      { Cind.cx = [ B.w ]; cxp = []; cy = [ B.w ]; cyp = [ B.c "checking"; B.w ] };
    ]

(* [Cind.holds] and [Cind.violations] go through the normal forms; the
   oracle reads the tableau directly. *)
let test_normalization_preserves_satisfaction () =
  ok_or_fail (Cind.validate B.schema psi6_by_branch);
  List.iter
    (fun (db_name, db) ->
      List.iter
        (fun cind ->
          let label = Printf.sprintf "%s on %s db" cind.Cind.name db_name in
          check_bool (label ^ ": holds") (Detect_oracle.cind_holds db cind) (Cind.holds db cind);
          check_bool (label ^ ": violations") true
            (List.equal
               (fun (row, t) (row', t') -> row == row' && Tuple.equal t t')
               (Detect_oracle.cind_row_violations db cind)
               (Cind.violations db cind)))
        (psi6_by_branch :: B.all_cinds))
    [ ("dirty", B.dirty_db); ("clean", B.clean_db) ];
  check_int "psi6_by_branch violations on dirty db" 3
    (List.length (Cind.violations B.dirty_db psi6_by_branch));
  check_int "psi6_by_branch violations on clean db" 2
    (List.length (Cind.violations B.clean_db psi6_by_branch))

(* --- more semantics ------------------------------------------------------ *)

let test_psi5_needs_t11 () =
  (* deleting interest's EDI saving row breaks psi5 for t7 *)
  let db =
    Database.set_relation B.clean_db
      (Relation.filter
         (fun t -> not (Tuple.equal t B.t11))
         (Database.relation B.clean_db "interest"))
  in
  check_bool "psi5 broken" false (Cind.holds db B.psi5);
  match Cind.violations db B.psi5 with
  | [ (_, witness) ] -> check_bool "violator is t7" true (Tuple.equal witness B.t7)
  | l -> Alcotest.failf "expected one violation, got %d" (List.length l)

let test_empty_relations_satisfy () =
  let empty = Database.empty B.schema in
  List.iter
    (fun cind ->
      check_bool
        (Printf.sprintf "%s vacuous on empty db" cind.Cind.name)
        true (Cind.holds empty cind))
    B.all_cinds

let test_wrong_rate_is_no_witness () =
  (* an interest tuple with the right branch but wrong rate does not help *)
  let db =
    Database.of_alist B.schema
      [
        ("checking", [ B.t10 ]);
        ("interest", [ Tuple.make (List.map str [ "EDI"; "UK"; "checking"; "9.9%" ]) ]);
      ]
  in
  check_bool "psi6 still violated" false (Cind.holds db B.psi6)

let test_multi_row_violations_counted_per_row () =
  (* both rows of psi6 violated: one EDI and one NYC orphan *)
  let db =
    Database.of_alist B.schema [ ("checking", [ B.t8; B.t10 ]) ]
  in
  check_int "two violations" 2 (List.length (Cind.violations db B.psi6))

let test_canon_nf_sorts_bindings () =
  let nf =
    {
      Cind.nf_name = "c";
      nf_lhs = "interest";
      nf_rhs = "interest";
      nf_x = [];
      nf_y = [];
      nf_xp = [ ("ct", str "UK"); ("ab", str "EDI") ];
      nf_yp = [ ("rt", str "1%"); ("ab", str "EDI") ];
    }
  in
  let canon = Cind.canon_nf nf in
  check_bool "xp sorted" true (List.map fst canon.Cind.nf_xp = [ "ab"; "ct" ]);
  check_bool "yp sorted" true (List.map fst canon.nf_yp = [ "ab"; "rt" ]);
  check_bool "canon equal modulo order" true
    (Cind.nf_equal canon (Cind.canon_nf { nf with Cind.nf_xp = List.rev nf.nf_xp }))

(* With the RHS relation empty, exactly the triggering LHS tuples
   violate: t1[Xp] = tp[Xp]. *)
let test_nf_triggers () =
  let nf = List.hd (Cind.normalize B.psi1_edi) in
  let violators t = Cind.nf_violations (Database.of_alist B.schema [ ("account_edi", [ t ]) ]) nf in
  check_bool "t4 (saving) triggers" true (List.equal Tuple.equal (violators B.t4) [ B.t4 ]);
  check_bool "t5 (checking) does not" true (violators B.t5 = [])

(* --- validation rejections ---------------------------------------------- *)

let expect_invalid name cind =
  match Cind.validate B.schema cind with
  | Ok () -> Alcotest.failf "%s: expected validation failure" name
  | Error _ -> ()

let test_rejects_unknown_relation () =
  expect_invalid "unknown rel"
    (Cind.make ~name:"bad" ~lhs:"nope" ~rhs:"saving" ~x:[ "an" ] ~xp:[] ~y:[ "an" ]
       ~yp:[]
       [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ])

let test_rejects_arity_mismatch () =
  expect_invalid "arity mismatch"
    (Cind.make ~name:"bad" ~lhs:"saving" ~rhs:"interest" ~x:[ "an"; "ab" ] ~xp:[]
       ~y:[ "ab" ] ~yp:[]
       [ { Cind.cx = [ wildcard; wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ])

let test_rejects_overlapping_x_xp () =
  expect_invalid "overlap"
    (Cind.make ~name:"bad" ~lhs:"saving" ~rhs:"interest" ~x:[ "ab" ] ~xp:[ "ab" ]
       ~y:[ "ab" ] ~yp:[]
       [ { Cind.cx = [ wildcard ]; cxp = [ const "EDI" ]; cy = [ wildcard ]; cyp = [] } ])

let test_rejects_pattern_outside_domain () =
  expect_invalid "bad constant"
    (Cind.make ~name:"bad" ~lhs:"account_edi" ~rhs:"saving" ~x:B.xy ~xp:[ "at" ]
       ~y:B.xy ~yp:[]
       [ { Cind.cx = B.wild4; cxp = [ const "mortgage" ]; cy = B.wild4; cyp = [] } ])

let test_rejects_unequal_xy_patterns () =
  expect_invalid "tp[X] <> tp[Y]"
    (Cind.make ~name:"bad" ~lhs:"saving" ~rhs:"interest" ~x:[ "ab" ] ~xp:[] ~y:[ "ab" ]
       ~yp:[]
       [ { Cind.cx = [ const "EDI" ]; cxp = []; cy = [ const "NYC" ]; cyp = [] } ])

let test_rejects_finite_into_infinite_mismatch () =
  (* at has a finite domain; rt is an infinite string attribute, so
     dom(at) ⊆ dom(rt) holds — but the reverse direction must fail. *)
  let bad =
    Cind.make ~name:"bad" ~lhs:"interest" ~rhs:"interest" ~x:[ "rt" ] ~xp:[]
      ~y:[ "at" ] ~yp:[]
      [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ]
  in
  expect_invalid "dom(rt) not within dom(at)" bad;
  let good =
    Cind.make ~name:"good" ~lhs:"interest" ~rhs:"interest" ~x:[ "at" ] ~xp:[]
      ~y:[ "rt" ] ~yp:[]
      [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ]
  in
  ok_or_fail (Cind.validate B.schema good)

(* --- IND special case ---------------------------------------------------- *)

let test_standard_ind_is_special_case () =
  (* ψ3 is a plain IND; Ind.to_cind round-trips its semantics. *)
  let ind = Ind.make ~lhs:"saving" ~x:[ "ab" ] ~rhs:"interest" ~y:[ "ab" ] in
  check_bool "IND holds via CIND semantics" true (Ind.holds B.clean_db ind);
  check_bool "same as psi3" (Cind.holds B.clean_db B.psi3) (Ind.holds B.clean_db ind)

let () =
  Alcotest.run "cind"
    [
      ( "semantics",
        [
          Alcotest.test_case "all fixtures validate" `Quick test_validate_all_fixtures;
          Alcotest.test_case "clean db satisfies Fig 2" `Quick
            test_clean_db_satisfies_everything;
          Alcotest.test_case "Fig 1 db satisfies psi1-psi5" `Quick
            test_dirty_db_satisfies_psi1_to_psi5;
          Alcotest.test_case "t10 violates psi6 (Ex 2.2)" `Quick test_t10_violates_psi6;
          Alcotest.test_case "embedded IND need not hold (Ex 2.2)" `Quick
            test_embedded_ind_does_not_hold;
          Alcotest.test_case "standard INDs are CINDs" `Quick
            test_standard_ind_is_special_case;
        ] );
      ( "semantics-extra",
        [
          Alcotest.test_case "psi5 needs t11" `Quick test_psi5_needs_t11;
          Alcotest.test_case "empty relations vacuous" `Quick test_empty_relations_satisfy;
          Alcotest.test_case "wrong rate is no witness" `Quick
            test_wrong_rate_is_no_witness;
          Alcotest.test_case "violations counted per row" `Quick
            test_multi_row_violations_counted_per_row;
          Alcotest.test_case "canonical binding order" `Quick test_canon_nf_sorts_bindings;
          Alcotest.test_case "nf trigger test" `Quick test_nf_triggers;
        ] );
      ( "normalization",
        [
          Alcotest.test_case "psi1 already normal" `Quick test_psi1_already_normal;
          Alcotest.test_case "psi5 splits per row" `Quick test_psi5_splits_into_two;
          Alcotest.test_case "Example 3.1 rewrite" `Quick test_example_3_1_rewrite;
          Alcotest.test_case "normalization preserves satisfaction" `Quick
            test_normalization_preserves_satisfaction;
        ] );
      ( "validation",
        [
          Alcotest.test_case "unknown relation" `Quick test_rejects_unknown_relation;
          Alcotest.test_case "arity mismatch" `Quick test_rejects_arity_mismatch;
          Alcotest.test_case "X/Xp overlap" `Quick test_rejects_overlapping_x_xp;
          Alcotest.test_case "constant outside domain" `Quick
            test_rejects_pattern_outside_domain;
          Alcotest.test_case "tp[X] = tp[Y] enforced" `Quick
            test_rejects_unequal_xy_patterns;
          Alcotest.test_case "domain containment dom(Ai) within dom(Bi)" `Quick
            test_rejects_finite_into_infinite_mismatch;
        ] );
    ]
