(* cindtool — command-line front end over the conditional-dependency
   library.  Operates on `.cind` files (see data/bank.cind for the format):

     cindtool parse data/bank.cind
     cindtool normalize data/bank.cind
     cindtool check-consistency data/bank.cind
     cindtool violations data/bank.cind [--repair] [--csv REL=FILE]
     cindtool implies data/bank.cind psi3
     cindtool witness data/bank.cind
     cindtool gen --relations 20 --constraints 240

   Global flags (accepted anywhere on the command line):

     cindtool --timeout 5 check-consistency data/bank.cind
     cindtool --fuel 100000 implies data/bank.cind psi3
     cindtool --profile out.trace.json check-consistency data/bank.cind

   `cindtool profile CMD ...` runs CMD under the profiler and prints a
   self-time table, then the nonzero counters and gauges, on stderr.

   Exit codes are uniform across subcommands:
     0 — decided / ok (consistent, clean, implied, proof found)
     1 — negative finding (inconsistent, violations found, not implied)
     2 — usage or parse error, or internal error
     3 — undetermined: heuristic gave up, or a resource budget
         (--timeout / --fuel) was exhausted; the reason is on stderr *)

open Cmdliner
open Conddep_relational
open Conddep_core
open Conddep_dsl

(* --- uniform exit codes ---------------------------------------------------- *)

let exit_ok = 0
let exit_negative = 1
let exit_usage = 2
let exit_undetermined = 3

let exits =
  [
    Cmd.Exit.info exit_ok ~doc:"decided / ok: consistent, clean, implied, proof found.";
    Cmd.Exit.info exit_negative
      ~doc:"negative finding: inconsistent, violations found, not implied.";
    Cmd.Exit.info exit_usage ~doc:"usage, parse, or internal error.";
    Cmd.Exit.info exit_undetermined
      ~doc:
        "undetermined: the heuristic gave up within its budgets, or a \
         resource budget ($(b,--timeout), $(b,--fuel)) was exhausted — the \
         exhaustion reason is printed on stderr.";
  ]

(* Flat self-time attribution, biggest first, then the search-effort
   counters and gauges that moved. *)
let pp_profile_table ppf =
  let table = Telemetry.self_time_table () in
  let total_self = List.fold_left (fun acc r -> acc +. r.Telemetry.r_self_s) 0. table in
  Fmt.pf ppf "@[<v>-- profile (by self time)@,";
  Fmt.pf ppf "%-34s %8s %10s %10s %6s %12s@," "span" "calls" "total" "self" "self%" "self_words";
  List.iter
    (fun (r : Telemetry.span_row) ->
      Fmt.pf ppf "%-34s %8d %10s %10s %5.1f%% %12.0f@," r.r_name r.r_calls
        (Telemetry.dur_to_string r.r_total_s)
        (Telemetry.dur_to_string r.r_self_s)
        (100. *. r.r_self_s /. Float.max total_self 1e-12)
        r.r_self_words)
    table;
  Fmt.pf ppf "-- counters and gauges (nonzero)@,";
  List.iter
    (fun (name, v) -> if v <> 0 then Fmt.pf ppf "%-40s %d@," name v)
    (Telemetry.counter_snapshot () @ Telemetry.gauge_snapshot ());
  Fmt.pf ppf "@]@."

(* Budget-exhaustion forensics: where was the process when the budget ran
   out, and who ate it.  Printed on stderr next to the exit-3 diagnostic
   whenever profiling is on. *)
let print_exhaustion_forensics () =
  if Telemetry.profiling () then begin
    (match Telemetry.exhaustion_snapshot () with
    | Some (reason, stack) ->
        Fmt.epr "cindtool: exhausted (%s) inside: %s@." reason
          (match stack with
          | [] -> "(no live span)"
          | st -> String.concat " < " st)
    | None -> ());
    match Telemetry.self_time_table () with
    | [] -> ()
    | table ->
        Fmt.epr "cindtool: top spans by self time:@.";
        List.iteri
          (fun i (r : Telemetry.span_row) ->
            if i < 3 then
              Fmt.epr "  %-34s calls=%-6d total=%s self=%s@." r.r_name r.r_calls
                (Telemetry.dur_to_string r.r_total_s)
                (Telemetry.dur_to_string r.r_self_s))
          table
  end

(* Every .cind load, as the profile's dsl.parse span. *)
let parse_file path = Telemetry.with_span "dsl.parse" (fun () -> Parser.parse_file path)

let load path =
  match parse_file path with
  | Ok doc -> doc
  | Error msg ->
      Fmt.epr "%s: %s@." path msg;
      exit exit_usage

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Constraint file (.cind).")

(* --- parse ---------------------------------------------------------------- *)

let parse_cmd =
  let run path =
    let doc = load path in
    Fmt.pr "%s" (Printer.document_to_string doc);
    Fmt.pr "@.-- ok: %d relation(s), %d CFD(s), %d CIND(s), %d instance(s)@."
      (List.length (Db_schema.relations doc.Parser.schema))
      (List.length doc.sigma.Sigma.cfds)
      (List.length doc.sigma.Sigma.cinds)
      (List.length doc.instances);
    exit_ok
  in
  Cmd.v
    (Cmd.info "parse" ~exits ~doc:"Parse, validate and pretty-print a constraint file.")
    Term.(const run $ file_arg)

(* --- normalize ------------------------------------------------------------ *)

let normalize_cmd =
  let run path =
    let doc = load path in
    let nf = Sigma.normalize doc.Parser.sigma in
    Fmt.pr "# normal forms (Prop 3.1 / CFD normal form)@.";
    List.iter (fun c -> Fmt.pr "%a@." Cfd.pp_nf c) nf.Sigma.ncfds;
    List.iter (fun c -> Fmt.pr "%a@." Cind.pp_nf c) nf.Sigma.ncinds;
    exit_ok
  in
  Cmd.v
    (Cmd.info "normalize" ~exits ~doc:"Print the normal form of every constraint.")
    Term.(const run $ file_arg)

(* --- check-consistency ------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed for the heuristics.")

let k_arg =
  Arg.(value & opt int 20 & info [ "k" ] ~docv:"K" ~doc:"Number of random runs (Fig 5).")

let backend_arg =
  let backends =
    [ ("chase", Cind_api.Chase_backend); ("sat", Cind_api.Sat_backend) ]
  in
  Arg.(
    value
    & opt (enum backends) Cind_api.Chase_backend
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:"CFD_Checking backend inside preProcessing: $(b,chase) or $(b,sat).")

let print_check_verdict = function
  | Cind_api.Yes (Some db) ->
      Fmt.pr "consistent — witness database:@.%a@." Database.pp db;
      exit_ok
  | Cind_api.Yes None ->
      Fmt.pr "consistent@.";
      exit_ok
  | Cind_api.No ->
      Fmt.pr "inconsistent (dependency-graph reduction emptied the graph)@.";
      exit_negative
  | Cind_api.Unknown Guard.Fuel when Guard.state (Guard.ambient ()) = None ->
      (* the paper's own K / K_CFD budgets ran out; no external limit hit *)
      Fmt.pr "unknown — no witness found within the budgets (heuristic)@.";
      exit_undetermined
  | Cind_api.Unknown r ->
      Fmt.pr "unknown — search cut short: %s@." (Guard.reason_to_string r);
      Fmt.epr "cindtool: resource budget exhausted (%s)@." (Guard.reason_to_string r);
      print_exhaustion_forensics ();
      exit_undetermined

let check_run path seed k backend =
  let doc = load path in
  print_check_verdict
    (Cind_api.check ~backend ~k ~rng:(Rng.make seed) doc.Parser.schema
       (Sigma.normalize doc.Parser.sigma))

let check_term =
  Term.(const check_run $ file_arg $ seed_arg $ k_arg $ backend_arg)

let check_doc = "Check the consistency of the constraint set (Checking, Fig 9)."

let check_cmd = Cmd.v (Cmd.info "check" ~exits ~doc:check_doc) check_term

let check_consistency_cmd =
  (* same command under its long name, used throughout the documentation *)
  Cmd.v (Cmd.info "check-consistency" ~exits ~doc:check_doc) check_term

(* --- violations ------------------------------------------------------------ *)

let repair_arg =
  Arg.(value & flag & info [ "repair" ] ~doc:"Apply suggested repairs and re-check.")

let csv_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "csv" ] ~docv:"REL=FILE"
        ~doc:
          "Load relation $(i,REL) from CSV file $(i,FILE) (repeatable), \
           replacing any instance declared in the constraint file.  \
           Malformed CSV aborts with exit code 2 and a file:line \
           diagnostic.")

(* REL=FILE pairs from --csv, loaded against the schema; any error is fatal
   with a file:line position. *)
let load_csvs schema specs db =
  List.fold_left
    (fun db spec ->
      match String.index_opt spec '=' with
      | None ->
          Fmt.epr "cindtool: --csv expects REL=FILE, got %S@." spec;
          exit exit_usage
      | Some i ->
          let rel = String.sub spec 0 i in
          let file = String.sub spec (i + 1) (String.length spec - i - 1) in
          let rel_schema =
            match Db_schema.find_opt schema rel with
            | Some s -> s
            | None ->
                Fmt.epr "cindtool: --csv: no relation %S in the schema@." rel;
                exit exit_usage
          in
          (match Csv.load rel_schema file with
          | Ok r -> Database.set_relation db r
          | Error msg ->
              Fmt.epr "%s: %s@." file msg;
              exit exit_usage))
    db specs

let violations_cmd =
  let run path repair csvs =
    let doc = load path in
    let db =
      match Parser.database doc with
      | Ok db -> db
      | Error msg ->
          Fmt.epr "instance error: %s@." msg;
          exit exit_usage
    in
    let db = load_csvs doc.Parser.schema csvs db in
    let nf = Sigma.normalize doc.Parser.sigma in
    let report = Conddep_cleaning.Report.build db nf in
    Fmt.pr "%a@." Conddep_cleaning.Report.pp report;
    if Conddep_cleaning.Report.count report = 0 then exit_ok
    else if repair then begin
      let repaired = Conddep_cleaning.Repair.repair ~max_rounds:8 doc.Parser.schema nf db in
      let left = List.length (Conddep_cleaning.Fast_detect.detect repaired nf) in
      Fmt.pr "after repair: %d violation(s) left@." left;
      Fmt.pr "%a@." Database.pp repaired;
      if left = 0 then exit_ok else exit_negative
    end
    else exit_negative
  in
  Cmd.v
    (Cmd.info "violations" ~exits
       ~doc:
         "Detect (and optionally repair) violations in the declared or \
          CSV-loaded instances.")
    Term.(const run $ file_arg $ repair_arg $ csv_arg)

(* --- implies ----------------------------------------------------------------- *)

let goal_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"GOAL" ~doc:"Name of the CIND to test against the remaining ones.")

let implies_cmd =
  let run path goal =
    let doc = load path in
    let nf = Sigma.normalize doc.Parser.sigma in
    let goals, rest =
      List.partition (fun c -> String.equal c.Cind.nf_name goal) nf.Sigma.ncinds
    in
    match goals with
    | [] ->
        Fmt.epr "no CIND named %S in %s@." goal path;
        exit_usage
    | goals ->
        (* one Σ compilation shared across all goals via the batch form *)
        let verdicts =
          Cind_api.implies_many doc.Parser.schema ~sigma:rest goals
        in
        List.fold_left2
          (fun code g v ->
            match v with
            | Cind_api.Yes _ ->
                Fmt.pr "%a@.  IS implied by the remaining CINDs@." Cind.pp_nf g;
                code
            | Cind_api.No ->
                Fmt.pr "%a@.  is NOT implied by the remaining CINDs@." Cind.pp_nf g;
                max code exit_negative
            | Cind_api.Unknown Guard.Fuel
              when Guard.state (Guard.ambient ()) = None ->
                (* the procedure's own max_states cap, no external limit *)
                Fmt.pr "%a@.  undetermined: search budget exceeded@." Cind.pp_nf g;
                max code exit_undetermined
            | Cind_api.Unknown r ->
                Fmt.pr "%a@.  undetermined: %s@." Cind.pp_nf g
                  (Guard.reason_to_string r);
                Fmt.epr "cindtool: resource budget exhausted (%s)@."
                  (Guard.reason_to_string r);
                print_exhaustion_forensics ();
                max code exit_undetermined)
          exit_ok goals verdicts
  in
  Cmd.v
    (Cmd.info "implies" ~exits
       ~doc:
         "Decide whether the named CIND is implied by the file's other CINDs \
          (exact procedure, Thm 3.4).")
    Term.(const run $ file_arg $ goal_arg)

(* --- prove ------------------------------------------------------------------- *)

let prove_cmd =
  let prove_row schema rest g =
    match Proof_search.derive schema ~sigma:rest g with
    | Some proof -> (
        Fmt.pr "derivation of %a from the remaining CINDs:@.%a" Cind.pp_nf g
          Inference.pp_proof proof;
        match Inference.proves schema ~sigma:rest proof g with
        | Ok _ ->
            Fmt.pr "(re-checked by the proof verifier)@.";
            exit_ok
        | Error msg ->
            Fmt.epr "internal error: emitted proof rejected: %s@." msg;
            exit_undetermined)
    | None ->
        Fmt.pr "%a is NOT implied by the remaining CINDs@." Cind.pp_nf g;
        exit_negative
    | exception Implication.Budget_exceeded ->
        (* the search's own max_states cap, as in [implies] *)
        Fmt.pr "%a@.  undetermined: search budget exceeded@." Cind.pp_nf g;
        exit_undetermined
    | exception Guard.Exhausted r ->
        Fmt.pr "%a@.  undetermined: %s@." Cind.pp_nf g (Guard.reason_to_string r);
        Fmt.epr "cindtool: resource budget exhausted (%s)@." (Guard.reason_to_string r);
        print_exhaustion_forensics ();
        exit_undetermined
    | exception Proof_search.Finite_domain { rel; attr } ->
        Fmt.epr
          "cindtool prove: CIND1-CIND6 proofs need infinite domains (Thm 3.5), but \
           relation %s has the finite-domain attribute %s; decide %s with cindtool \
           implies@."
          rel attr g.Cind.nf_name;
        exit_usage
    | exception Invalid_argument msg ->
        Fmt.epr "%s@." msg;
        exit_usage
  in
  let run path goal =
    let doc = load path in
    let nf = Sigma.normalize doc.Parser.sigma in
    let goals, rest =
      List.partition (fun c -> String.equal c.Cind.nf_name goal) nf.Sigma.ncinds
    in
    match goals with
    | [] ->
        Fmt.epr "no CIND named %S in %s@." goal path;
        exit_usage
    | goals ->
        (* every normal-form row of the goal, as in [implies] *)
        List.fold_left
          (fun code g -> max code (prove_row doc.Parser.schema rest g))
          exit_ok goals
  in
  Cmd.v
    (Cmd.info "prove" ~exits
       ~doc:
         "Derive the named CIND from the file's other CINDs as an explicit \
          CIND1-CIND6 proof (infinite-domain attributes only, Thm 3.5).")
    Term.(const run $ file_arg $ goal_arg)

(* --- logic ------------------------------------------------------------------- *)

let logic_cmd =
  let run path =
    let doc = load path in
    let nf = Sigma.normalize doc.Parser.sigma in
    Fmt.pr "# first-order readings (TGDs / EGDs with constants)@.";
    List.iter
      (fun c ->
        Fmt.pr "@[<v2>-- %s:@,%a@]@." c.Cfd.nf_name Logic.pp
          (Logic.cfd_to_formula doc.Parser.schema c))
      nf.Sigma.ncfds;
    List.iter
      (fun c ->
        Fmt.pr "@[<v2>-- %s:@,%a@]@." c.Cind.nf_name Logic.pp
          (Logic.cind_to_formula doc.Parser.schema c))
      nf.Sigma.ncinds;
    exit_ok
  in
  Cmd.v
    (Cmd.info "logic" ~exits
       ~doc:"Print every constraint as a first-order sentence (TGD/EGD form).")
    Term.(const run $ file_arg)

(* --- cover ------------------------------------------------------------------- *)

let cover_cmd =
  let run path =
    let doc = load path in
    let nf = Sigma.normalize doc.Parser.sigma in
    let cinds = Minimal_cover.cind_cover doc.Parser.schema (Minimal_cover.dedup_cinds nf.Sigma.ncinds) in
    let cfds = Minimal_cover.cfd_cover doc.Parser.schema (Minimal_cover.dedup_cfds nf.Sigma.ncfds) in
    Fmt.pr "# minimal cover: %d of %d CFDs, %d of %d CINDs retained@."
      (List.length cfds) (List.length nf.Sigma.ncfds) (List.length cinds)
      (List.length nf.Sigma.ncinds);
    List.iter (fun c -> Fmt.pr "%a@." Cfd.pp_nf c) cfds;
    List.iter (fun c -> Fmt.pr "%a@." Cind.pp_nf c) cinds;
    exit_ok
  in
  Cmd.v
    (Cmd.info "cover" ~exits
       ~doc:"Remove constraints implied by the rest (budgeted minimal cover).")
    Term.(const run $ file_arg)

(* --- witness ----------------------------------------------------------------- *)

let witness_cmd =
  let run path =
    let doc = load path in
    let nf = Sigma.normalize doc.Parser.sigma in
    match Witness.database doc.Parser.schema nf.Sigma.ncinds with
    | db ->
        Fmt.pr "Theorem 3.2 witness (%d tuples):@.%a@." (Database.total_tuples db)
          Database.pp db;
        exit_ok
    | exception Witness.Too_large n ->
        Fmt.epr "witness would have %d tuples; aborting@." n;
        exit_undetermined
  in
  Cmd.v
    (Cmd.info "witness" ~exits
       ~doc:"Build the cross-product witness database for the file's CINDs (Thm 3.2).")
    Term.(const run $ file_arg)

(* --- gen --------------------------------------------------------------------- *)

(* Random schema + workload in .cind syntax (the experimental setting of
   Section 6), mainly to produce reproducible hard inputs for the
   robustness smoke tests. *)
let gen_cmd =
  let run seed relations constraints profile =
    let rng = Rng.make seed in
    let sconfig =
      match profile with
      | `Random | `Consistent ->
          { Conddep_generator.Schema_gen.default with num_relations = relations }
      | `Needle ->
          (* every attribute finite with tiny domains, as in the Fig 10(b)
             experiment: the valuation space is dense with conflicts *)
          (* arities and domains kept small enough that each relation's
             secret is findable within K_CFD tries (so preProcessing does
             not just prune the graph) while the joint valuation across
             relations stays out of reach of random search *)
          {
            Conddep_generator.Schema_gen.num_relations = relations;
            min_arity = 3;
            max_arity = 5;
            finite_ratio = 1.0;
            finite_dom_min = 2;
            finite_dom_max = 2;
          }
    in
    let schema = Conddep_generator.Schema_gen.generate rng sconfig in
    let wconfig =
      { Conddep_generator.Workload.default with num_constraints = constraints }
    in
    let nf =
      match profile with
      | `Random -> Conddep_generator.Workload.random rng wconfig schema
      | `Consistent -> Conddep_generator.Workload.consistent rng wconfig schema
      | `Needle ->
          (* The Fig 10(b) needle family — per relation (almost) one
             satisfying finite-domain assignment, defeating bounded-K_CFD
             valuation search — joined with pattern-free CINDs so that every
             witness tuple triggers an inclusion and preProcessing cannot
             settle the answer on its own.  Deliberately adversarial: used
             by the robustness smoke tests to exercise --timeout / --fuel. *)
          let needles = Conddep_generator.Workload.needle_cfds rng schema in
          let cind_config = { wconfig with max_pattern = 0 } in
          let n_cinds = max 1 (constraints / 4) in
          let cinds =
            List.init n_cinds
              (Conddep_generator.Workload.gen_cind rng cind_config schema
                 ~consistent:false)
          in
          { needles with Sigma.ncinds = cinds }
    in
    let doc =
      { Parser.schema; sigma = Sigma.of_nf nf; instances = [] }
    in
    Fmt.pr "%s" (Printer.document_to_string doc);
    exit_ok
  in
  let profile_arg =
    Arg.(
      value
      & opt (enum [ ("random", `Random); ("consistent", `Consistent); ("needle", `Needle) ]) `Random
      & info [ "profile" ] ~docv:"PROFILE"
          ~doc:
            "Workload family: $(b,random) (may conflict), $(b,consistent) \
             (satisfiable by construction), or $(b,needle) (adversarial: \
             near-unique satisfying valuations, defeats bounded random \
             search).")
  in
  Cmd.v
    (Cmd.info "gen" ~exits
       ~doc:
         "Generate a random schema and constraint set (Section 6 workload) \
          in .cind syntax on stdout.")
    Term.(
      const run $ seed_arg
      $ Arg.(
          value & opt int 20
          & info [ "relations" ] ~docv:"N" ~doc:"Number of relations.")
      $ Arg.(
          value & opt int 100
          & info [ "constraints" ] ~docv:"N" ~doc:"Number of constraints.")
      $ profile_arg)

(* --- sat ---------------------------------------------------------------------- *)

(* Debug entry point for the SAT core: solve a DIMACS file directly, so a
   solver regression found in the field can be reproduced from an exported
   instance without rebuilding the CFD encoding around it.  Output follows
   the SAT-competition convention (`s` status line, `v` model line). *)
let sat_cmd =
  let module Solver = Conddep_sat.Solver in
  let module Cnf = Conddep_sat.Cnf in
  let run path =
    let text =
      match Csv.read_file path with
      | Ok s -> s
      | Error msg ->
          Fmt.epr "%s: %s@." path msg;
          exit exit_usage
    in
    match Conddep_sat.Dimacs.parse text with
    | Error msg ->
        Fmt.epr "%s: %s@." path msg;
        exit_usage
    | Ok cnf -> (
        Fmt.pr "c %s: %d vars, %d clauses@." (Filename.basename path)
          (Cnf.num_vars cnf) (Cnf.num_clauses cnf);
        match Solver.solve cnf with
        | Solver.Sat model ->
            (* Check the model before trusting it: a wrong model here is a
               solver bug, and this subcommand exists to catch those. *)
            if not (Cnf.eval model cnf) then begin
              Fmt.epr "cindtool: internal error: model does not satisfy %s@." path;
              exit exit_usage
            end;
            Fmt.pr "s SATISFIABLE@.";
            let buf = Buffer.create 256 in
            for v = 1 to Cnf.num_vars cnf do
              Buffer.add_string buf (string_of_int (if model.(v) then v else -v));
              Buffer.add_char buf ' '
            done;
            Buffer.add_char buf '0';
            Fmt.pr "v %s@." (Buffer.contents buf);
            exit_ok
        | Solver.Unsat ->
            Fmt.pr "s UNSATISFIABLE@.";
            exit_negative
        | Solver.Unknown r ->
            Fmt.pr "s UNKNOWN@.";
            Fmt.epr "cindtool: resource budget exhausted (%s)@."
              (Guard.reason_to_string r);
            exit_undetermined)
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"DIMACS CNF file.")
  in
  Cmd.v
    (Cmd.info "sat" ~exits
       ~doc:
         "Solve a DIMACS CNF file with the built-in CDCL SAT solver.  \
          Exit 0 with a verified $(b,v) model line when \
          satisfiable, 1 when unsatisfiable, 3 when a budget \
          ($(b,--timeout), $(b,--fuel)) ran out first.")
    Term.(const run $ file)

(* --- session ------------------------------------------------------------------ *)

(* Line-oriented driver over Cind_session: the same edit/query loop the
   benchmark's session workload runs.  One verdict per query line; the
   script's worst query verdict is the exit code (uniform with `check`). *)
let session_usage =
  [
    ("load", "load FILE");
    ("add", "add NAME");
    ("remove", "remove NAME");
    ("insert", "insert REL v1,v2,...");
    ("check", "check");
    ("consistent", "consistent REL");
    ("implies", "implies NAME");
    ("holds", "holds");
    ("stats", "stats");
  ]

let session_cmd =
  let run path seed backend =
    let sess = ref None in
    let pool :
        (string, [ `Cind of Cind.nf list | `Cfd of Cfd.nf list ]) Hashtbl.t =
      Hashtbl.create 16
    in
    let lineno = ref 0 in
    let fail msg =
      Fmt.epr "%s:%d: %s@." path !lineno msg;
      exit exit_usage
    in
    let usage cmd = fail ("usage: " ^ List.assoc cmd session_usage) in
    let require_session () =
      match !sess with
      | Some s -> s
      | None -> fail "no session yet: start the script with `load FILE`"
    in
    let known_rel s rel =
      if not (Db_schema.mem (Cind_session.schema s) rel) then
        fail (Printf.sprintf "unknown relation %S" rel)
    in
    let named name =
      match Hashtbl.find_opt pool name with
      | Some c -> c
      | None -> fail (Printf.sprintf "no constraint named %S in the loaded file" name)
    in
    let worst = ref exit_ok in
    let note = function
      | Cind_api.Yes _ -> ()
      | Cind_api.No -> worst := max !worst exit_negative
      | Cind_api.Unknown _ -> worst := max !worst exit_undetermined
    in
    (* Implication of a multi-row CIND is the conjunction over its normal
       forms; a definitive "not implied" beats an undetermined row. *)
    let conj a b =
      match (a, b) with
      | Cind_api.No, _ | _, Cind_api.No -> Cind_api.No
      | Cind_api.Unknown r, _ | _, Cind_api.Unknown r -> Cind_api.Unknown r
      | Cind_api.Yes _, Cind_api.Yes _ -> Cind_api.Yes None
    in
    let handle line =
      let words =
        String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
      in
      match words with
      | [] -> ()
      | w :: _ when String.length w > 0 && w.[0] = '#' -> ()
      | [ "load"; file ] ->
          if !sess <> None then fail "load: session already started";
          let doc =
            match parse_file file with
            | Ok doc -> doc
            | Error msg -> fail (Printf.sprintf "load: %s: %s" file msg)
          in
          let s = Cind_session.create ~backend ~seed doc.Parser.schema in
          List.iter
            (fun (c : Cind.t) ->
              Hashtbl.replace pool c.Cind.name (`Cind (Cind.normalize c)))
            doc.Parser.sigma.Sigma.cinds;
          List.iter
            (fun (f : Cfd.t) ->
              Hashtbl.replace pool f.Cfd.name (`Cfd (Cfd.normalize f)))
            doc.Parser.sigma.Sigma.cfds;
          List.iter
            (fun (rel, tuples) -> Cind_session.insert_tuples s ~rel tuples)
            doc.Parser.instances;
          sess := Some s
      | [ "add"; name ] -> (
          let s = require_session () in
          match named name with
          | `Cind nfs -> List.iter (Cind_session.add_cind s) nfs
          | `Cfd nfs -> List.iter (Cind_session.add_cfd s) nfs)
      | [ "remove"; name ] -> (
          let s = require_session () in
          match named name with
          | `Cind nfs -> List.iter (Cind_session.remove_cind s) nfs
          | `Cfd nfs -> List.iter (Cind_session.remove_cfd s) nfs)
      | "insert" :: rel :: rest -> (
          let s = require_session () in
          let values =
            String.concat " " rest |> String.split_on_char ','
            |> List.map String.trim
            |> List.filter (fun v -> v <> "")
            |> List.map Value.of_string
          in
          if values = [] then usage "insert";
          known_rel s rel;
          match Cind_session.insert_tuples s ~rel [ Tuple.make values ] with
          | () -> ()
          | exception Invalid_argument msg -> fail msg)
      | [ "check" ] ->
          let v = Cind_session.check (require_session ()) in
          note v;
          Fmt.pr "check: %a@." Cind_api.pp_verdict v
      | [ "consistent"; rel ] ->
          let s = require_session () in
          known_rel s rel;
          let v = Cind_session.consistent s ~rel in
          note v;
          Fmt.pr "consistent %s: %a@." rel Cind_api.pp_verdict v
      | [ "implies"; name ] -> (
          let s = require_session () in
          match named name with
          | `Cfd _ -> fail "implies: the goal must be a CIND"
          | `Cind nfs ->
              let v =
                List.fold_left
                  (fun acc nf -> conj acc (Cind_session.implies s nf))
                  (Cind_api.Yes None) nfs
              in
              note v;
              Fmt.pr "implies %s: %a@." name Cind_api.pp_verdict v)
      | [ "holds" ] ->
          let b = Cind_session.holds (require_session ()) in
          if not b then worst := max !worst exit_negative;
          Fmt.pr "holds: %b@." b
      | [ "stats" ] ->
          let st = Cind_session.stats (require_session ()) in
          Fmt.pr "stats: hits=%d misses=%d invalidations=%d entries=%d@."
            st.Cind_session.hits st.misses st.invalidations st.entries
      | w :: _ when List.mem_assoc w session_usage -> usage w
      | w :: _ -> fail (Printf.sprintf "unrecognized command %S" w)
    in
    let script =
      match Csv.read_file path with
      | Ok s -> s
      | Error msg ->
          Fmt.epr "%s: %s@." path msg;
          exit exit_usage
    in
    List.iter
      (fun line ->
        incr lineno;
        handle line)
      (String.split_on_char '\n' script);
    (match !sess with
    | Some s ->
        let st = Cind_session.stats s in
        Fmt.epr "cindtool: session: %d hit(s), %d miss(es), %d invalidation(s), %d live entries@."
          st.Cind_session.hits st.misses st.invalidations st.entries
    | None -> ());
    !worst
  in
  Cmd.v
    (Cmd.info "session" ~exits
       ~doc:
         "Run a line-oriented edit/query script over an incremental \
          re-checking session (verdict cache keyed by the query, with \
          read-set invalidation)."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "The script starts with $(b,load) $(i,FILE), which fixes the \
              schema, loads the file's declared instances into the session \
              database, and makes the file's named constraints available \
              as an edit pool — the session's Σ starts empty.  Subsequent \
              lines edit the session ($(b,add)/$(b,remove) $(i,NAME) for \
              constraints from the pool, $(b,insert) $(i,REL) \
              $(i,v1,v2,...) for tuples) or query it ($(b,check), \
              $(b,consistent) $(i,REL), $(b,implies) $(i,NAME), \
              $(b,holds), $(b,stats)); blank lines and $(b,#) comments \
              are skipped.  Each query prints one verdict line on stdout.";
           `P
             "Each query answers exactly what the one-shot command answers \
              on the session's current Σ and database: $(b,check) prints \
              the verdict of $(b,cindtool check --seed) $(i,N) with the \
              same backend, and every randomized query draws from the same \
              seed.  Answers are cached under the query itself, together \
              with the read set the derivation reported; an edit drops only \
              the entries whose read set it touches.  The cache counters \
              are exported as $(b,incremental.*) telemetry (visible via \
              $(b,cindtool profile session) $(i,SCRIPT)).";
           `P
             "Exit code: the worst query verdict in the script (0 all \
              yes, 1 a definitive no, 3 an undetermined answer), or 2 on \
              a script error: an unknown command or relation, a command \
              with the wrong number of words (its usage is printed), or a \
              file that cannot be read.  Script errors name \
              $(i,SCRIPT):$(i,LINE).";
         ])
    Term.(const run $ file_arg $ seed_arg $ backend_arg)

(* --- profile ------------------------------------------------------------------ *)

(* `cindtool profile CMD ...` is intercepted before cmdliner dispatch (the
   wrapped command keeps its own positional grammar); this stub exists so
   the subcommand shows up in --help and `cindtool profile` alone gets a
   usage error instead of "unknown command". *)
let profile_stub_cmd =
  let run () =
    Fmt.epr
      "cindtool: profile expects a subcommand to run, e.g. `cindtool \
       profile check-consistency FILE`@.";
    exit_usage
  in
  Cmd.v
    (Cmd.info "profile" ~exits
       ~doc:
         "Run any other subcommand under the profiler and print a self-time \
          table (calls, total, self, self% per span), then the nonzero \
          counters and gauges, on stderr at exit, e.g. $(b,cindtool \
          profile check-consistency FILE).  Combine with $(b,--profile) \
          $(i,FILE) to also export the trace.")
    Term.(const run $ const ())

(* --- global flags ------------------------------------------------------------ *)

(* --profile FILE / --timeout SECS / --fuel N are global: they may appear
   before or after the subcommand name.  Cmdliner selects the
   subcommand from the first positional token, which would misread
   `--timeout 5 check ...` (space-separated option values are ambiguous at
   selection time), so the flags are stripped from argv before cmdliner
   sees it. *)
type globals = {
  g_rest : string list;
  g_profile : string option;
  g_timeout : float option;
  g_fuel : int option;
}

(* The global --profile takes an output FILE whose extension picks the
   format (.json = Chrome trace, .folded = flamegraph stacks).  Claiming
   only those extensions also keeps it from shadowing `gen`'s own
   --profile PROFILE workload-family option. *)
let profile_file s =
  Filename.check_suffix s ".json" || Filename.check_suffix s ".folded"

let extract_globals argv =
  let split_eq prefix arg =
    let n = String.length prefix in
    if String.length arg > n && String.sub arg 0 n = prefix then
      Some (String.sub arg n (String.length arg - n))
    else None
  in
  let timeout_of s =
    match float_of_string_opt s with
    | Some t when t > 0. -> Ok (Some t)
    | _ -> Error (Printf.sprintf "--timeout expects a positive number of seconds, got %S" s)
  in
  let fuel_of s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok (Some n)
    | _ -> Error (Printf.sprintf "--fuel expects a positive step count, got %S" s)
  in
  let rec go g = function
    | [] -> Ok { g with g_rest = List.rev g.g_rest }
    | "--profile" :: path :: rest when profile_file path ->
        go { g with g_profile = Some path } rest
    | [ "--timeout" ] -> Error "option --timeout needs an argument"
    | "--timeout" :: secs :: rest -> (
        match timeout_of secs with
        | Ok t -> go { g with g_timeout = t } rest
        | Error _ as e -> e)
    | [ "--fuel" ] -> Error "option --fuel needs an argument"
    | "--fuel" :: n :: rest -> (
        match fuel_of n with
        | Ok f -> go { g with g_fuel = f } rest
        | Error _ as e -> e)
    | arg :: rest -> (
        match split_eq "--profile=" arg with
        | Some path when profile_file path -> go { g with g_profile = Some path } rest
        | _ -> (
            match split_eq "--timeout=" arg with
            | Some secs -> (
                match timeout_of secs with
                | Ok t -> go { g with g_timeout = t } rest
                | Error _ as e -> e)
            | None -> (
                match split_eq "--fuel=" arg with
                | Some n -> (
                    match fuel_of n with
                    | Ok f -> go { g with g_fuel = f } rest
                    | Error _ as e -> e)
                | None -> go { g with g_rest = arg :: g.g_rest } rest)))
  in
  go { g_rest = []; g_profile = None; g_timeout = None; g_fuel = None } argv

let setup_profiling ~profile ~table =
  if profile <> None || table then begin
    Telemetry.enable_profiling ();
    (match profile with
    | Some path ->
        at_exit (fun () ->
            let oc = open_out path in
            if Filename.check_suffix path ".folded" then Telemetry.write_folded oc
            else Telemetry.write_chrome_trace oc;
            close_out oc)
    | None -> ());
    if table then at_exit (fun () -> pp_profile_table Fmt.stderr)
  end

let setup_guard ~timeout ~fuel =
  if timeout <> None || fuel <> None then
    Guard.set_ambient (Guard.make ?timeout_s:timeout ?fuel ())

(* --- main --------------------------------------------------------------------- *)

let () =
  let man =
    [
      `S Manpage.s_common_options;
      `P
        "$(b,--timeout) $(i,SECS) (anywhere on the command line) bounds the \
         whole invocation by a wall-clock deadline; when it passes, the \
         command stops promptly, prints the reason on stderr and exits with \
         code 3.";
      `P
        "$(b,--fuel) $(i,N) (anywhere on the command line) bounds the whole \
         invocation by a deterministic step budget (decision-procedure \
         steps); exhaustion behaves like $(b,--timeout) but is reproducible \
         across machines.";
      `P
        "$(b,--profile) $(i,FILE) (anywhere on the command line) enables the \
         profiler and writes $(i,FILE) at exit: with a $(b,.json) extension, \
         a Chrome Trace Event file (open in chrome://tracing or Perfetto); \
         with $(b,.folded), folded stacks for $(b,flamegraph.pl)/$(b,inferno).  \
         The extension is required — it selects the format (and keeps the \
         flag distinct from $(b,gen)'s own $(b,--profile) option).  See also the \
         $(b,profile) subcommand, which prints a self-time table and the \
         nonzero counters instead.";
    ]
  in
  let info =
    Cmd.info "cindtool" ~version:"1.0.0" ~exits ~man
      ~doc:"Reasoning about conditional inclusion and functional dependencies."
  in
  match extract_globals (List.tl (Array.to_list Sys.argv)) with
  | Error msg ->
      Fmt.epr "cindtool: %s@." msg;
      exit exit_usage
  | Ok g ->
      (* `profile CMD ...` wraps CMD under the profiler with a self-time
         table at exit; a bare `profile` falls through to the stub. *)
      let g, profile_table =
        match g.g_rest with
        | "profile" :: (_ :: _ as rest) -> ({ g with g_rest = rest }, true)
        | _ -> (g, false)
      in
      setup_profiling ~profile:g.g_profile ~table:profile_table;
      setup_guard ~timeout:g.g_timeout ~fuel:g.g_fuel;
      let argv = Array.of_list (Sys.argv.(0) :: g.g_rest) in
      let group =
        Cmd.group info
          [
            parse_cmd;
            normalize_cmd;
            check_cmd;
            check_consistency_cmd;
            violations_cmd;
            implies_cmd;
            prove_cmd;
            logic_cmd;
            cover_cmd;
            witness_cmd;
            gen_cmd;
            sat_cmd;
            session_cmd;
            profile_stub_cmd;
          ]
      in
      (* No OCaml exception escapes: budget exhaustion anywhere in an engine
         is exit 3 with the structured reason on stderr; anything else is an
         internal error, exit 2. *)
      let code =
        (* The root span makes the profile tree account for the whole
           dispatch (parse + subcommand), so self times cover the run's
           wall clock rather than just the instrumented subtrees. *)
        try Telemetry.with_span "cindtool.main" (fun () -> Cmd.eval' ~catch:false ~argv group)
        with
        | Guard.Exhausted r ->
            Fmt.epr "cindtool: resource budget exhausted (%s)@."
              (Guard.reason_to_string r);
            print_exhaustion_forensics ();
            exit_undetermined
        | e ->
            Fmt.epr "cindtool: internal error: %s@." (Printexc.to_string e);
            exit_usage
      in
      (* cmdliner's CLI-error code is 124; fold it into the uniform scheme *)
      exit (if code = 124 || code = 123 || code = 125 then exit_usage else code)
