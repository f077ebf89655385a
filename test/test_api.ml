open Conddep_relational
open Conddep_core
open Helpers

module B = Conddep_fixtures.Bank

(* The facade's verdict mapping, and batch implication: [implies_many]
   must be bit-identical to the corresponding sequence of singleton
   calls. *)

let show = function
  | Cind_api.Yes (Some db) -> Fmt.str "yes:%a" Database.pp db
  | Cind_api.Yes None -> "yes"
  | Cind_api.No -> "no"
  | Cind_api.Unknown r -> "unknown:" ^ Guard.reason_to_string r

let check_shows = Alcotest.(check (list string))

(* --- verdict mapping --------------------------------------------------- *)

let test_verdict_mapping () =
  let bank = Sigma.normalize B.sigma in
  (match Cind_api.check ~k:60 ~rng:(Rng.make 5) B.schema bank with
  | Cind_api.Yes (Some _) -> ()
  | v -> Alcotest.failf "bank must be consistent with a witness, got %s" (show v));
  check_bool "to_bool yes" true (Cind_api.to_bool (Cind_api.Yes None));
  check_bool "to_bool unknown" false
    (Cind_api.to_bool (Cind_api.Unknown Guard.Fuel));
  match Cind_api.implies B.schema ~sigma:B.implication_sigma B.implication_goal with
  | Cind_api.Yes None -> ()
  | v -> Alcotest.failf "psi must be implied, got %s" (show v)

(* --- implies_many ------------------------------------------------------- *)

let test_implies_many_equivalence () =
  let sigma = B.implication_sigma in
  (* members + the composed goal, doubled *)
  let goals = B.implication_goal :: sigma in
  let goals = goals @ goals in
  let singles =
    List.map (fun g -> show (Cind_api.implies B.schema ~sigma g)) goals
  in
  check_shows "implies_many" singles
    (List.map show (Cind_api.implies_many B.schema ~sigma goals))

let () =
  Alcotest.run "api"
    [
      ("facade", [ Alcotest.test_case "verdict mapping" `Quick test_verdict_mapping ]);
      ( "batch",
        [
          Alcotest.test_case "implies_many == N singleton decisions" `Quick
            test_implies_many_equivalence;
        ] );
    ]
