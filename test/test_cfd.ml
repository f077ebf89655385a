open Conddep_relational
open Conddep_core
open Helpers

(* CFD syntax, semantics, normalization, exact consistency and implication,
   against the paper's Examples 3.2, 4.1 and 4.2 and [9]'s key facts. *)

module B = Conddep_fixtures.Bank

let test_validate_fixtures () =
  List.iter (fun cfd -> ok_or_fail (Cfd.validate B.schema cfd)) B.all_cfds

let test_fig1_satisfies_phi1_phi2 () =
  (* Example 4.1: the Fig 1 instance satisfies ϕ1 and ϕ2 ... *)
  check_bool "phi1" true (Cfd.holds B.dirty_db B.phi1);
  check_bool "phi2" true (Cfd.holds B.dirty_db B.phi2)

let test_t12_violates_phi3 () =
  (* ... but t12 violates ϕ3's third pattern row — a single-tuple violation. *)
  check_bool "phi3 fails" false (Cfd.holds B.dirty_db B.phi3);
  let violations = Cfd.violations B.dirty_db B.phi3 in
  check_bool "t12 is a single-tuple violator" true
    (List.exists
       (fun (_, (v1, v2)) -> Tuple.equal v1 B.t12_dirty && Tuple.equal v2 B.t12_dirty)
       violations);
  check_bool "clean db satisfies phi3" true (Cfd.holds B.clean_db B.phi3)

let test_standard_fd_needs_two_tuples () =
  (* A pattern-free FD cannot be violated by a single tuple. *)
  let schema = string_schema "r" [ "a"; "b" ] in
  let fd = Fd.to_cfd (Fd.make ~rel:"r" ~x:[ "a" ] ~y:[ "b" ]) in
  let db1 = Database.add_tuple (Database.empty schema) "r" (stup [ "x"; "1" ]) in
  check_bool "one tuple fine" true (Cfd.holds db1 fd);
  let db2 = Database.add_tuple db1 "r" (stup [ "x"; "2" ]) in
  check_bool "conflicting pair violates" false (Cfd.holds db2 fd)

let test_normalization () =
  (* ϕ3 has 5 rows and one RHS attribute: 5 normal-form CFDs. *)
  check_int "phi3 normal forms" 5 (List.length (Cfd.normalize B.phi3));
  (* ϕ1 has 1 row and 3 RHS attributes: 3 normal-form CFDs. *)
  check_int "phi1 normal forms" 3 (List.length (Cfd.normalize B.phi1));
  List.iter
    (fun cfd ->
      let direct = Detect_oracle.cfd_holds B.dirty_db cfd in
      let via_nf = List.for_all (Cfd.nf_holds B.dirty_db) (Cfd.normalize cfd) in
      check_bool (Printf.sprintf "%s nf-equivalent" cfd.Cfd.name) direct via_nf)
    B.all_cfds

(* --- consistency (Example 3.2) ------------------------------------------ *)

let ex32_nf = List.concat_map Cfd.normalize B.ex32_cfds

let test_example_3_2_inconsistent () =
  check_bool "Example 3.2 CFDs are inconsistent" false
    (Cfd_consistency.consistent_rel B.ex32_schema ~rel:"r_bool" ex32_nf)

let test_example_3_2_with_infinite_domain_consistent () =
  (* The same CFDs over an infinite domain for A are consistent (the paper's
     remark: a tuple can dodge both true and false). *)
  let schema =
    Db_schema.make
      [
        Schema.make "r_bool"
          [ Attribute.make "a" Domain.string_inf; Attribute.make "b" Domain.string_inf ];
      ]
  in
  let cfds =
    [
      Cfd.make ~name:"p1" ~rel:"r_bool" ~x:[ "a" ] ~y:[ "b" ]
        [ { Cfd.rx = [ const "true" ]; ry = [ const "b1" ] } ];
      Cfd.make ~name:"p3" ~rel:"r_bool" ~x:[ "b" ] ~y:[ "a" ]
        [ { Cfd.rx = [ const "b1" ]; ry = [ const "false" ] } ];
      Cfd.make ~name:"p4" ~rel:"r_bool" ~x:[ "b" ] ~y:[ "a" ]
        [ { Cfd.rx = [ const "b2" ]; ry = [ const "true" ] } ];
    ]
  in
  check_bool "consistent over infinite domains" true
    (Cfd_consistency.consistent_rel schema ~rel:"r_bool"
       (List.concat_map Cfd.normalize cfds))

let test_witness_tuple_satisfies () =
  let nf = List.concat_map Cfd.normalize [ B.phi3 ] in
  match Cfd_consistency.witness_tuple B.schema ~rel:"interest" nf with
  | None -> Alcotest.fail "phi3 alone must be consistent"
  | Some t ->
      let db = Database.add_tuple (Database.empty B.schema) "interest" t in
      check_bool "witness satisfies phi3" true (Cfd.holds db B.phi3)

let test_multi_relation_consistency () =
  (* Inconsistent CFDs on one relation don't make the whole Σ inconsistent:
     another relation can be nonempty. *)
  let nf = ex32_nf in
  let two_rel_schema =
    Db_schema.make
      (Db_schema.relations B.ex32_schema
      @ [ Schema.make "other" [ Attribute.make "x" Domain.string_inf ] ])
  in
  check_bool "whole schema still consistent" true
    (Cfd_consistency.consistent two_rel_schema nf);
  check_bool "r_bool itself inconsistent" false
    (Cfd_consistency.consistent_rel two_rel_schema ~rel:"r_bool" nf)

(* --- implication --------------------------------------------------------- *)

let nf1 cfd = List.hd (Cfd.normalize cfd)

(* boolean view of the three-valued decision, for assertion brevity: these
   tiny instances never exhaust the default budgets *)
let cfd_implied schema ~sigma phi =
  Cfd_implication.decide schema ~sigma phi = Implication.Implied

let test_fd_implication_via_cfds () =
  (* Transitivity: {a -> b, b -> c} |= a -> c, but not c -> a. *)
  let schema = string_schema "r" [ "a"; "b"; "c" ] in
  let fd x y = nf1 (Fd.to_cfd (Fd.make ~rel:"r" ~x ~y)) in
  let sigma = [ fd [ "a" ] [ "b" ]; fd [ "b" ] [ "c" ] ] in
  check_bool "transitivity" true
    (cfd_implied schema ~sigma (fd [ "a" ] [ "c" ]));
  check_bool "no reverse" false
    (cfd_implied schema ~sigma (fd [ "c" ] [ "a" ]));
  (* agreement with the classical closure algorithm *)
  let fds = [ Fd.make ~rel:"r" ~x:[ "a" ] ~y:[ "b" ]; Fd.make ~rel:"r" ~x:[ "b" ] ~y:[ "c" ] ] in
  check_bool "matches Armstrong closure" true
    (Fd.implies fds (Fd.make ~rel:"r" ~x:[ "a" ] ~y:[ "c" ]));
  check_bool "closure rejects reverse" false
    (Fd.implies fds (Fd.make ~rel:"r" ~x:[ "c" ] ~y:[ "a" ]))

let test_pattern_weakening () =
  (* (a -> b, (_ || _)) implies its instance (a -> b, (v || _)). *)
  let schema = string_schema "r" [ "a"; "b" ] in
  let general =
    nf1 (Cfd.make ~name:"g" ~rel:"r" ~x:[ "a" ] ~y:[ "b" ] [ { Cfd.rx = [ wildcard ]; ry = [ wildcard ] } ])
  in
  let instance =
    nf1 (Cfd.make ~name:"i" ~rel:"r" ~x:[ "a" ] ~y:[ "b" ] [ { Cfd.rx = [ const "v" ]; ry = [ wildcard ] } ])
  in
  check_bool "wildcard implies instance" true
    (cfd_implied schema ~sigma:[ general ] instance);
  check_bool "instance does not imply wildcard" false
    (cfd_implied schema ~sigma:[ instance ] general)

let test_constant_propagation_implication () =
  (* {(a=1 -> b=2), (b=2 -> c=3)} |= (a=1 -> c=3). *)
  let schema = string_schema "r" [ "a"; "b"; "c" ] in
  let mk name x tx a ta =
    nf1
      (Cfd.make ~name ~rel:"r" ~x ~y:[ a ]
         [ { Cfd.rx = tx; ry = [ ta ] } ])
  in
  let sigma =
    [ mk "c1" [ "a" ] [ const "1" ] "b" (const "2"); mk "c2" [ "b" ] [ const "2" ] "c" (const "3") ]
  in
  check_bool "constants chain" true
    (cfd_implied schema ~sigma (mk "goal" [ "a" ] [ const "1" ] "c" (const "3")));
  check_bool "different constant not implied" false
    (cfd_implied schema ~sigma (mk "goal2" [ "a" ] [ const "9" ] "c" (const "3")))

let test_minimal_cover_cfds () =
  let schema = string_schema "r" [ "a"; "b"; "c" ] in
  let fd x y = nf1 (Fd.to_cfd (Fd.make ~rel:"r" ~x ~y)) in
  let sigma = [ fd [ "a" ] [ "b" ]; fd [ "b" ] [ "c" ]; fd [ "a" ] [ "c" ] ] in
  let cover = Minimal_cover.cfd_cover schema sigma in
  check_int "redundant a->c removed" 2 (List.length cover)

let () =
  Alcotest.run "cfd"
    [
      ( "semantics",
        [
          Alcotest.test_case "fixtures validate" `Quick test_validate_fixtures;
          Alcotest.test_case "Fig 1 satisfies phi1, phi2 (Ex 4.1)" `Quick
            test_fig1_satisfies_phi1_phi2;
          Alcotest.test_case "t12 violates phi3 (Ex 4.1)" `Quick test_t12_violates_phi3;
          Alcotest.test_case "standard FDs need two tuples" `Quick
            test_standard_fd_needs_two_tuples;
          Alcotest.test_case "normalization" `Quick test_normalization;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "Example 3.2 is inconsistent" `Quick
            test_example_3_2_inconsistent;
          Alcotest.test_case "Example 3.2 over infinite domains" `Quick
            test_example_3_2_with_infinite_domain_consistent;
          Alcotest.test_case "witness tuples satisfy" `Quick test_witness_tuple_satisfies;
          Alcotest.test_case "consistency is per-relation" `Quick
            test_multi_relation_consistency;
        ] );
      ( "implication",
        [
          Alcotest.test_case "FD transitivity" `Quick test_fd_implication_via_cfds;
          Alcotest.test_case "pattern weakening" `Quick test_pattern_weakening;
          Alcotest.test_case "constant chains" `Quick
            test_constant_propagation_implication;
          Alcotest.test_case "minimal cover" `Quick test_minimal_cover_cfds;
        ] );
    ]
