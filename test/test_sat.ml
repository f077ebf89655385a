open Conddep_sat
open Helpers

(* The CDCL solver: hand-written cases, DIMACS round-trips, differential
   property tests against the brute-force reference [Brute_sat.solve],
   and observability of clause learning and backjumping. *)

let satisfiable cnf =
  match Solver.solve cnf with
  | Solver.Sat _ -> true
  | Solver.Unsat -> false
  | Solver.Unknown r -> Alcotest.failf "unexpected Unknown: %s" (Guard.reason_to_string r)

let test_trivial () =
  check_bool "empty formula" true (satisfiable (Cnf.make ~num_vars:0 []));
  check_bool "empty clause" false (satisfiable (Cnf.make ~num_vars:1 [ [] ]));
  check_bool "unit" true (satisfiable (Cnf.make ~num_vars:1 [ [ 1 ] ]));
  check_bool "contradictory units" false
    (satisfiable (Cnf.make ~num_vars:1 [ [ 1 ]; [ -1 ] ]))

let test_model_is_valid () =
  let cnf = Cnf.make ~num_vars:3 [ [ 1; 2 ]; [ -1; 3 ]; [ -2; -3 ]; [ 2; 3 ] ] in
  match Solver.solve cnf with
  | Solver.Unsat -> Alcotest.fail "expected SAT"
  | Solver.Sat model -> check_bool "model satisfies" true (Cnf.eval model cnf)
  | Solver.Unknown r -> Alcotest.failf "unexpected Unknown: %s" (Guard.reason_to_string r)

let test_propagation_chain () =
  (* 1 forced, then 2, then 3; finally clause demands -3: UNSAT *)
  let cnf = Cnf.make ~num_vars:3 [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ]; [ -3 ] ] in
  check_bool "chain unsat" false (satisfiable cnf)

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: variables p_ij = pigeon i in hole j. *)
  let v i j = (2 * i) + j + 1 in
  let clauses =
    List.concat_map (fun i -> [ [ v i 0; v i 1 ] ]) [ 0; 1; 2 ]
    @ List.concat_map
        (fun j ->
          [ [ -v 0 j; -v 1 j ]; [ -v 0 j; -v 2 j ]; [ -v 1 j; -v 2 j ] ])
        [ 0; 1 ]
  in
  check_bool "PHP(3,2) unsat" false (satisfiable (Cnf.make ~num_vars:6 clauses))

let test_duplicate_and_tautological_literals () =
  check_bool "duplicate literals" true (satisfiable (Cnf.make ~num_vars:1 [ [ 1; 1 ] ]));
  check_bool "tautology" true (satisfiable (Cnf.make ~num_vars:1 [ [ 1; -1 ]; [ -1 ] ]))

(* --- the CDCL machinery ------------------------------------------------------ *)

(* PHP(p, h): p pigeons into h holes — UNSAT when p > h, and its refutation
   has no short resolution proof, so conflict analysis gets real work. *)
let pigeonhole pigeons holes =
  let v i j = (holes * i) + j + 1 in
  let ps = List.init pigeons Fun.id and hs = List.init holes Fun.id in
  let clauses =
    List.map (fun i -> List.map (fun j -> v i j) hs) ps
    @ List.concat_map
        (fun j ->
          List.concat_map
            (fun i ->
              List.filter_map
                (fun i' -> if i' > i then Some [ -v i j; -v i' j ] else None)
                ps)
            ps)
        hs
  in
  Cnf.make ~num_vars:(pigeons * holes) clauses

(* Seeded uniform random 3-CNF at the phase-transition clause/variable
   ratio (~4.26) — the density where UNSAT cores force multi-level
   backjumps.  Three distinct variables per clause, independent signs,
   fully determined by the seed. *)
let random_3cnf seed n =
  let rng = Rng.make seed in
  let m = int_of_float (Float.round (4.26 *. float_of_int n)) in
  let clause () =
    let rec distinct acc k =
      if k = 0 then acc
      else
        let v = 1 + Rng.int rng n in
        if List.mem v acc then distinct acc k
        else distinct (v :: acc) (k - 1)
    in
    List.map (fun v -> if Rng.bool rng then v else -v) (distinct [] 3)
  in
  Cnf.make ~num_vars:n (List.init m (fun _ -> clause ()))

let brute_satisfiable cnf =
  match Brute_sat.solve cnf with
  | Solver.Sat _ -> true
  | Solver.Unsat -> false
  | Solver.Unknown r -> Alcotest.failf "brute Unknown: %s" (Guard.reason_to_string r)

(* [satisfiable] that also validates the model of a Sat answer. *)
let cdcl_satisfiable cnf =
  match Solver.solve cnf with
  | Solver.Sat model ->
      check_bool "model satisfies" true (Cnf.eval model cnf);
      true
  | Solver.Unsat -> false
  | Solver.Unknown r -> Alcotest.failf "unexpected Unknown: %s" (Guard.reason_to_string r)

(* Differential: CDCL vs the exhaustive oracle on seeded 3-CNF at the
   hard density — a mix of SAT instances and UNSAT cores. *)
let test_cdcl_differential_3cnf () =
  List.iter
    (fun seed ->
      let n = 8 + (seed mod 6) in
      let cnf = random_3cnf seed n in
      check_bool (Printf.sprintf "cdcl seed=%d n=%d" seed n) (brute_satisfiable cnf)
        (cdcl_satisfiable cnf))
    (List.init 20 Fun.id @ List.init 12 (fun i -> 100 + i))

(* Pinned verdicts at n = 40..100, four seeds each (seed 1337·n + i): the
   sweep's verdicts were recorded where the CDCL solver and the
   chronological DPLL it replaced agreed, and must not drift.  Every Sat
   model is checked against its formula. *)
let test_cdcl_pinned_verdicts () =
  List.iter
    (fun (n, want) ->
      let got =
        List.init 4 (fun i ->
            if cdcl_satisfiable (random_3cnf ((1337 * n) + i) n) then "sat"
            else "unsat")
      in
      check_string (Printf.sprintf "verdicts at n=%d" n) want
        (String.concat "," got))
    [
      (40, "sat,unsat,sat,unsat");
      (60, "sat,unsat,unsat,sat");
      (80, "sat,unsat,sat,sat");
      (100, "unsat,sat,sat,unsat");
    ]

(* The learning machinery must be observable: refuting PHP(5,4) has to
   learn clauses and take non-chronological backjumps (both counters
   strictly increase). *)
let test_multilevel_backjumps_observable () =
  let m_learned = Telemetry.counter "sat.learned" in
  let m_backjumps = Telemetry.counter "sat.backjump_levels" in
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  let l0 = Telemetry.count m_learned and b0 = Telemetry.count m_backjumps in
  check_bool "PHP(5,4) unsat" false (cdcl_satisfiable (pigeonhole 5 4));
  check_bool "clauses were learned" true (Telemetry.count m_learned > l0);
  check_bool "multi-level backjumps happened" true
    (Telemetry.count m_backjumps > b0)

(* Regression: backjumping to level 0 must preserve the pre-asserted unit
   clauses.  (cancel_until once kept [trail_lim.(lvl)] entries instead of
   [trail_lim.(lvl + 1)], erasing the level-0 units on any backjump to the
   root — and units live outside the clause arena, so nothing re-derived
   them and an invalid "model" violating [-2] came back.  QCheck found the
   original of this instance.) *)
let test_backjump_to_root_keeps_units () =
  let cnf =
    Cnf.make ~num_vars:5
      [
        [ 4; -4; 1; -4 ];
        [ 2; -3; -1; 4 ];
        [ -2 ];
        [ -5; -4 ];
        [ 5; -1 ];
        [ 5; 5; 4; 1 ];
        [ 3; 5; 3 ];
        [ -1; 3 ];
        [ 5; 1 ];
        [ -3; 4; -2 ];
        [ -3; 2; 1 ];
      ]
  in
  check_bool "cdcl matches brute" (brute_satisfiable cnf) (cdcl_satisfiable cnf)

(* A fuel budget cuts the CDCL search at any decision or conflict tick,
   conflict analysis included: PHP(4,3) must answer Unknown Fuel or its
   true verdict Unsat under every fuel, and the sweep both cuts and
   completes. *)
let test_fuel_sweep () =
  let cnf = pigeonhole 4 3 in
  let verdicts =
    List.map
      (fun fuel ->
        match Guard.with_ambient (Guard.make ~fuel ()) (fun () -> Solver.solve cnf) with
        | Solver.Unknown Guard.Fuel -> `Cut
        | Solver.Unsat -> `Unsat
        | Solver.Unknown r ->
            Alcotest.failf "fuel %d: expected fuel, got %s" fuel
              (Guard.reason_to_string r)
        | Solver.Sat _ -> Alcotest.failf "fuel %d: PHP(4,3) is Unsat" fuel)
      [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 1024; 4096 ]
  in
  check_bool "small fuel cuts the search" true (List.mem `Cut verdicts);
  check_bool "large fuel decides it" true (List.mem `Unsat verdicts)

let test_dimacs_roundtrip () =
  let cnf = Cnf.make ~num_vars:3 [ [ 1; -2 ]; [ 2; 3 ]; [ -3 ] ] in
  let parsed = ok_or_fail (Dimacs.parse (Dimacs.print cnf)) in
  check_int "vars" (Cnf.num_vars cnf) (Cnf.num_vars parsed);
  check_int "clauses" (Cnf.num_clauses cnf) (Cnf.num_clauses parsed);
  check_bool "same satisfiability" (satisfiable cnf) (satisfiable parsed)

(* parse -> print -> parse must be the identity on the parsed form:
   same variable count and the exact same clause lists, not merely
   equi-satisfiability. *)
let test_dimacs_parse_print_parse_identity () =
  let src = "c generated instance\np cnf 4 4\n1 -2 4 0\n-3 2 0\n4 0\n-1 -4 0\n" in
  let c1 = ok_or_fail (Dimacs.parse src) in
  let c2 = ok_or_fail (Dimacs.parse (Dimacs.print c1)) in
  check_int "vars" (Cnf.num_vars c1) (Cnf.num_vars c2);
  check_bool "clause lists identical" true (Cnf.clauses c1 = Cnf.clauses c2);
  (* and once more: printing is already canonical, so a second round trip
     prints the same bytes *)
  check_string "print is a fixpoint" (Dimacs.print c1) (Dimacs.print c2);
  (* DIMACS allows any whitespace between tokens: the tab-separated twin
     of [src] parses to the same formula *)
  let tabbed = "c generated\tinstance\np\tcnf\t4\t4\n1\t-2 4\t0\n\t-3\t\t2 0\n4\t0\n-1\t-4\t0\t\n" in
  let c3 = ok_or_fail (Dimacs.parse tabbed) in
  check_int "tab-separated twin: vars" (Cnf.num_vars c1) (Cnf.num_vars c3);
  check_bool "tab-separated twin: clause lists identical" true
    (Cnf.clauses c1 = Cnf.clauses c3)

let test_dimacs_errors () =
  List.iter
    (fun (src, line, diag) ->
      match Dimacs.parse src with
      | Error msg ->
          check_bool
            (Printf.sprintf "diagnostic for %S names the problem (%s)" src msg)
            true
            (contains_substring ~needle:diag msg);
          check_bool
            (Printf.sprintf "diagnostic for %S names line %d (%s)" src line msg)
            true
            (String.starts_with ~prefix:(Printf.sprintf "line %d: " line) msg)
      | Ok _ -> Alcotest.failf "accepted malformed DIMACS: %s" src)
    [
      ("1 2 0", 1, "missing problem line");
      ("c comment\n\n1 2 0\n", 3, "missing problem line");
      ("p cnf x 2", 1, "malformed problem line");
      ("p cnf 2 1\n1 2", 2, "unterminated clause");
      ("p cnf 1 1\nfoo 0", 2, "bad literal \"foo\"");
      ("p cnf 1 1\n2 0", 2, "literal 2 out of range");
      ("c x\np cnf 4 2\n1 -2\n3 0\n-5 0\n", 5, "declares 4 variables");
    ]

let test_rejects_bad_literals () =
  (match Cnf.make ~num_vars:2 [ [ 0 ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "literal 0 accepted");
  match Cnf.make ~num_vars:2 [ [ 3 ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range literal accepted"

(* Differential testing against brute force on random small formulas. *)
let random_cnf_gen =
  QCheck.Gen.(
    let clause num_vars =
      list_size (int_range 1 4)
        (map2 (fun v sign -> if sign then v else -v) (int_range 1 num_vars) bool)
    in
    int_range 1 8 >>= fun num_vars ->
    list_size (int_range 0 20) (clause num_vars) >>= fun clauses ->
    return (num_vars, clauses))

let random_cnf =
  QCheck.make
    ~print:(fun (n, cs) ->
      Printf.sprintf "vars=%d clauses=%s" n
        (String.concat "; " (List.map (fun c -> String.concat " " (List.map string_of_int c)) cs)))
    random_cnf_gen

let prop_matches_brute_force (num_vars, clauses) =
  let cnf = Cnf.make ~num_vars clauses in
  satisfiable cnf = brute_satisfiable cnf

let prop_sat_models_check (num_vars, clauses) =
  let cnf = Cnf.make ~num_vars clauses in
  match Solver.solve cnf with
  | Solver.Sat model -> Cnf.eval model cnf
  | Solver.Unsat -> true
  | Solver.Unknown r -> Alcotest.failf "unexpected Unknown: %s" (Guard.reason_to_string r)

let () =
  Alcotest.run "sat"
    [
      ( "solver",
        [
          Alcotest.test_case "trivial formulas" `Quick test_trivial;
          Alcotest.test_case "models are valid" `Quick test_model_is_valid;
          Alcotest.test_case "propagation chain" `Quick test_propagation_chain;
          Alcotest.test_case "pigeonhole 3-2" `Quick test_pigeonhole_3_2;
          Alcotest.test_case "duplicate/tautological literals" `Quick
            test_duplicate_and_tautological_literals;
        ] );
      ( "cdcl",
        [
          Alcotest.test_case "differential on phase-transition 3-CNF" `Quick
            test_cdcl_differential_3cnf;
          Alcotest.test_case "pinned verdicts at n = 40..100" `Quick
            test_cdcl_pinned_verdicts;
          Alcotest.test_case "learning and backjumps are observable" `Quick
            test_multilevel_backjumps_observable;
          Alcotest.test_case "backjump to root keeps units" `Quick
            test_backjump_to_root_keeps_units;
          Alcotest.test_case "fuel sweep on PHP(4,3)" `Quick test_fuel_sweep;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "parse-print-parse identity" `Quick
            test_dimacs_parse_print_parse_identity;
          Alcotest.test_case "malformed inputs rejected" `Quick test_dimacs_errors;
          Alcotest.test_case "bad literals rejected" `Quick test_rejects_bad_literals;
        ] );
      ( "properties",
        [
          qtest ~count:500 "solver agrees with brute force" random_cnf
            prop_matches_brute_force;
          qtest ~count:500 "returned models satisfy the formula" random_cnf
            prop_sat_models_check;
        ] );
    ]
