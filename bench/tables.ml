open Conddep_relational
open Conddep_core
open Conddep_generator
open Util

(* Measured evidence for Tables 1 and 2 — the complexity landscape of the
   static analyses.  Each row of the paper's tables is exercised by running
   the corresponding decision procedure on an instance family whose growth
   exhibits the claimed behaviour. *)

module B = Conddep_fixtures.Bank

(* A chain family for implication: Src[a] ⊆ Mid[a] ⊆ Tgt[a], where Mid
   carries [k] extra attributes.  With finite extra attributes the
   counterexample builder branches over all 2^k created tuples — the
   EXPTIME alternation; with infinite ones creation is deterministic and
   the search is the linear-space membership procedure. *)
let chain_family ~finite k =
  let extra i =
    Attribute.make
      (Printf.sprintf "f%d" i)
      (if finite then Domain.finite [ Value.Int 0; Value.Int 1 ] else Domain.string_inf)
  in
  let schema =
    Db_schema.make
      [
        Schema.make "src" [ Attribute.make "a" Domain.string_inf ];
        Schema.make "mid" (Attribute.make "a" Domain.string_inf :: List.init k extra);
        Schema.make "tgt" [ Attribute.make "a" Domain.string_inf ];
      ]
  in
  let ind lhs rhs =
    {
      Cind.nf_name = lhs ^ "_" ^ rhs;
      nf_lhs = lhs;
      nf_rhs = rhs;
      nf_x = [ "a" ];
      nf_y = [ "a" ];
      nf_xp = [];
      nf_yp = [];
    }
  in
  (schema, [ ind "src" "mid"; ind "mid" "tgt" ], ind "src" "tgt")

let cind_consistency () =
  header "Table 1/2 row — CIND consistency: O(1), always consistent (Thm 3.2)";
  row "%-14s %-12s %-14s %-12s@." "cinds" "verified" "witness-tuples" "seconds";
  List.iter
    (fun n ->
      let rng = Rng.make n in
      let sconfig =
        {
          (Workloads.schema_config Workloads.Quick) with
          Schema_gen.num_relations = 5;
          max_arity = 5;
        }
      in
      let schema = Schema_gen.generate rng sconfig in
      let wconfig =
        {
          (Workloads.workload_config n) with
          Workload.cfd_fraction = 0.;
          consts_per_attr = 1;
          max_pattern = 1;
        }
      in
      let sigma = Workload.random rng wconfig schema in
      match
        time (fun () -> Witness.database ~max_tuples:50_000 schema sigma.Sigma.ncinds)
      with
      | db, seconds ->
          (* full verification is quadratic; only run it on small witnesses *)
          let verified =
            if Database.total_tuples db <= 3_000 then
              string_of_bool (List.for_all (Cind.nf_holds db) sigma.Sigma.ncinds)
            else "(by Thm 3.2)"
          in
          row "%-14d %-12s %-14d %-12.4f@." n verified (Database.total_tuples db) seconds
      | exception Witness.Too_large size ->
          row "%-14d %-12s %-14s %-12s@." n "(by Thm 3.2)"
            (Printf.sprintf ">%d" size) "-")
    [ 5; 15; 30 ]

let cind_implication ~finite () =
  if finite then
    header
      "Table 1 row — CIND implication, finite domains: EXPTIME (Thm 3.4) — \
       2^k shape states for k finite free attributes"
  else
    header
      "Table 2 row — CIND implication, no finite domains: PSPACE membership \
       (Thm 3.5) — deterministic creation, linear state chains";
  row "%-6s %-10s %-12s@." "k" "implied" "seconds";
  let ks = if finite then [ 2; 4; 6; 8; 10; 12 ] else [ 2; 4; 8; 16; 32; 64 ] in
  List.iter
    (fun k ->
      let schema, sigma, goal = chain_family ~finite k in
      let result, seconds =
        time (fun () ->
            Cind_api.to_bool (Cind_api.implies ~max_states:1_000_000 schema ~sigma goal))
      in
      row "%-6d %-10b %-12.4f@." k result seconds)
    ks

let cfd_consistency_np () =
  header
    "Table 1 row — CFD consistency, finite domains: NP-complete [9] — exact \
     single-tuple SAT decision on random finite-domain CFD sets";
  row "%-14s %-12s@." "cfds" "seconds";
  List.iter
    (fun n ->
      let rng = Rng.make (n + 17) in
      let sconfig =
        { (Workloads.schema_config Workloads.Quick) with Schema_gen.finite_ratio = 1.0 }
      in
      let schema = Schema_gen.generate rng sconfig in
      let sigma = Workload.cfds_only rng (Workloads.workload_config n) schema ~consistent:false in
      let _, seconds =
        time (fun () ->
            List.iter
              (fun rel ->
                ignore
                  (Cfd_consistency.consistent_rel schema ~rel:(Schema.name rel)
                     sigma.Sigma.ncfds))
              (Db_schema.relations schema))
      in
      row "%-14d %-12.4f@." n seconds)
    [ 50; 100; 200; 400 ]

let cfd_consistency_quadratic () =
  header
    "Table 2 row — CFD consistency, no finite domains: PTIME [9] — runtime \
     ratios under input doubling (at most ~4x for a quadratic bound)";
  row "%-14s %-12s %-10s@." "cfds" "seconds" "ratio";
  (* one schema for the whole series, several repetitions per point *)
  let sconfig =
    { (Workloads.schema_config Workloads.Quick) with Schema_gen.finite_ratio = 0.0 }
  in
  let schema = Schema_gen.generate (Rng.make 23) sconfig in
  let reps = 5 in
  let previous = ref None in
  List.iter
    (fun n ->
      let rng = Rng.make (n + 23) in
      let sigma = Workload.cfds_only rng (Workloads.workload_config n) schema ~consistent:false in
      let run () =
        List.iter
          (fun rel ->
            ignore
              (Cfd_consistency.consistent_rel schema ~rel:(Schema.name rel)
                 sigma.Sigma.ncfds))
          (Db_schema.relations schema)
      in
      let seconds = Util.mean (List.init reps (fun _ -> snd (time run))) in
      let ratio =
        match !previous with Some p when p > 0. -> seconds /. p | _ -> Float.nan
      in
      previous := Some seconds;
      row "%-14d %-12.4f %-10.2f@." n seconds ratio)
    [ 250; 500; 1000; 2000; 4000 ]

let finite_axiomatizability () =
  header
    "Table 1/2 row — finite axiomatizability: Yes (Thm 3.3) — the Example \
     3.4 proof object re-checked by the I-verifier";
  let result, seconds =
    time (fun () ->
        Inference.proves B.schema ~sigma:B.implication_sigma B.example_3_4_proof
          B.implication_goal)
  in
  (match result with
  | Ok lines -> row "proof of psi checked: %d lines in %.6fs@." (Array.length lines) seconds
  | Error msg -> row "UNEXPECTED: %s@." msg);
  let implied, seconds =
    time (fun () ->
        Cind_api.to_bool
          (Cind_api.implies B.schema ~sigma:B.implication_sigma B.implication_goal))
  in
  row "semantic decision agrees: %b (%.4fs)@." implied seconds

let undecidable_row () =
  header
    "Table 1/2 row — CFDs + CINDs: consistency undecidable (Thm 4.2) — \
     heuristic Checking on the Example 4.2 conflict and on the bank sigma";
  let ex42 =
    Sigma.normalize (Sigma.make ~cfds:[ B.ex42_cfd ] ~cinds:[ B.ex42_cind ] ())
  in
  let r42, s42 =
    time (fun () ->
        Cind_api.check ~k:30 ~rng:(Rng.make 5) B.ex42_schema ex42)
  in
  let describe = function
    | Cind_api.Yes _ -> "consistent (witness found)"
    | Cind_api.No -> "inconsistent (graph emptied)"
    | Cind_api.Unknown Guard.Fuel -> "unknown (no witness found)"
    | Cind_api.Unknown r -> "unknown (" ^ Guard.reason_to_string r ^ ")"
  in
  row "Example 4.2 (truly inconsistent): %s in %.4fs@." (describe r42) s42;
  let bank = Sigma.normalize B.sigma in
  let rb, sb =
    time (fun () ->
        Cind_api.check ~k:60 ~rng:(Rng.make 5) B.schema bank)
  in
  row "Bank sigma (truly consistent):   %s in %.4fs@." (describe rb) sb

let table1 () =
  header "TABLE 1 — complexity in the general setting (measured evidence)";
  row "constraint class   consistency      implication        fin. axiom@.";
  row "CINDs              O(1)             EXPTIME-complete   yes@.";
  row "CFDs               NP-complete      coNP-complete      yes@.";
  row "CFDs+CINDs         undecidable      undecidable        no@.";
  cind_consistency ();
  cind_implication ~finite:true ();
  cfd_consistency_np ();
  finite_axiomatizability ();
  undecidable_row ()

let table2 () =
  header "TABLE 2 — complexity without finite-domain attributes (measured evidence)";
  row "constraint class   consistency      implication        fin. axiom@.";
  row "CINDs              O(1)             PSPACE-complete    yes (CIND1-6)@.";
  row "CFDs               O(n^2)           O(n^2)             yes@.";
  row "CFDs+CINDs         undecidable      undecidable        no@.";
  cind_implication ~finite:false ();
  cfd_consistency_quadratic ()
