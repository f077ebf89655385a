(* In-process replay of one cindtool request through the library's public
   entry points, each call wrapped in a benchmark span, plus the answer
   oracles.  The replay mirrors what [cindtool] does for the request; the
   oracles use code off that path. *)

open Conddep_relational
open Conddep_core
open Conddep_dsl
module Api = Cind_api

(* --- spans --------------------------------------------------------------- *)

(* Spans are flat: every layer call of a request is a top-level span, so a
   layer's self time is its duration.  [probes] adds calls made only to
   time a layer on its own (off while measuring the tracing overhead). *)
let tracing = ref false
let probes = ref false
let spans : (string * float) list ref = ref []

let span name f =
  if not !tracing then f ()
  else
    let t0 = Proc.now () in
    let r = f () in
    spans := (name, Proc.now () -. t0) :: !spans;
    r

(* Counter deltas of the calls that mirror the request; probe calls made
   only to time a layer on its own run outside this window. *)
let counted f =
  if not !tracing then (f (), [])
  else
    let before = Telemetry.counter_snapshot () in
    let r = f () in
    let after = Telemetry.counter_snapshot () in
    (r, List.map (fun (k, b) -> (k, b - Option.value ~default:0 (List.assoc_opt k before))) after)

type replay = {
  code : int;  (** the exit code cindtool gives this answer *)
  out : string;  (** the text cindtool prints on stdout *)
  counters : (string * int) list;
  alloc_words : float;  (** minor words allocated by parsing *)
  verdict : Api.verdict option;  (** the in-process check verdict, when replayed *)
}

let load file = match Parser.parse_file file with Ok d -> d | Error e -> failwith (file ^ ": " ^ e)

let parse file =
  let w0 = Gc.minor_words () in
  let doc = span "dsl.parse" (fun () -> load file) in
  (doc, Gc.minor_words () -. w0)

let normalize (doc : Parser.document) = span "core.normalize" (fun () -> Sigma.normalize doc.Parser.sigma)

(* --- check ---------------------------------------------------------------- *)

let check_seed = 42
let check_k = 20

let render_check = function
  | Api.Yes (Some db) -> (0, Fmt.str "consistent — witness database:@.%a@." Database.pp db)
  | Api.Yes None -> (0, "consistent\n")
  | Api.No -> (1, "inconsistent (dependency-graph reduction emptied the graph)\n")
  | Api.Unknown Guard.Fuel -> (3, "unknown — no witness found within the budgets (heuristic)\n")
  | Api.Unknown r -> (3, Printf.sprintf "unknown — search cut short: %s\n" (Guard.reason_to_string r))

let run_check ~backend schema nf = Api.check ~backend ~k:check_k ~rng:(Rng.make check_seed) schema nf

let replay_check ~backend (req : Pools.request) =
  let ((code, out), alloc_words, v, (doc : Parser.document), nf), counters =
    counted (fun () ->
        let doc, alloc = parse req.file in
        let nf = normalize doc in
        let v = span "consistency.check" (fun () -> run_check ~backend doc.schema nf) in
        (span "output.print" (fun () -> render_check v), alloc, v, doc, nf))
  in
  if !probes then begin
    let schema = doc.schema in
    span "chase.compile" (fun () -> ignore (Conddep_chase.Chase.compile schema nf));
    span "consistency.preprocess" (fun () ->
        ignore (Api.preprocess ~backend ~rng:(Rng.make check_seed) schema nf));
    span "sat.cfd_consistent" (fun () ->
        List.iter
          (fun rel ->
            try ignore (Conddep_consistency.Cfd_checking.consistent_rel_sat schema (Sigma.cfds_on nf rel) ~rel)
            with Guard.Exhausted _ -> ())
          (Db_schema.rel_names schema))
  end;
  { code; out; counters; alloc_words; verdict = Some v }

(* A "No" on a consistent-by-construction input is wrong; a "Yes" must
   come with a witness that satisfies Σ, printed as cindtool printed it;
   and cindtool's exit code must match the in-process verdict. *)
let judge_check ~backend (req : Pools.request) { code; out; verdict; _ } =
  if code = 1 && req.expect = Pools.Not_inconsistent then Some "inconsistent on a consistent-by-construction input"
  else
    let doc = load req.file in
    let nf = Sigma.normalize doc.sigma in
    let v = match verdict with Some v -> v | None -> run_check ~backend doc.schema nf in
    let code', out' = render_check v in
    match v with
    | _ when code' <> code -> Some (Printf.sprintf "exit %d, in-process verdict gives %d" code code')
    | Api.Yes (Some db) when not (Sigma.nf_holds db nf) -> Some "witness violates Σ"
    | Api.Yes (Some _) when out' <> out -> Some "printed witness differs from the verified one"
    | _ -> None

(* --- implies --------------------------------------------------------------- *)

let split_goal (nf : Sigma.nf) = List.partition (fun c -> c.Cind.nf_name = "goal") nf.Sigma.ncinds

let render_implies goal = function
  | Implication.Implied -> (0, Fmt.str "%a@.  IS implied by the remaining CINDs@." Cind.pp_nf goal)
  | Implication.Not_implied -> (1, Fmt.str "%a@.  is NOT implied by the remaining CINDs@." Cind.pp_nf goal)
  | Implication.Undetermined Guard.Fuel ->
      (3, Fmt.str "%a@.  undetermined: search budget exceeded@." Cind.pp_nf goal)
  | Implication.Undetermined r ->
      (3, Fmt.str "%a@.  undetermined: %s@." Cind.pp_nf goal (Guard.reason_to_string r))

let replay_implies (req : Pools.request) =
  let ((code, out), alloc_words), counters =
    counted (fun () ->
        let doc, alloc = parse req.file in
        let nf = normalize doc in
        let goals, rest = split_goal nf in
        let goal = List.hd goals in
        let compiled =
          span "implication.compile" (fun () ->
              List.map (fun c -> Implication.compile doc.schema (Cind.canon_nf c)) rest)
        in
        let o = span "implication.decide" (fun () -> Implication.decide_compiled doc.schema compiled goal) in
        (span "output.print" (fun () -> render_implies goal o), alloc))
  in
  { code; out; counters; alloc_words; verdict = None }

(* The by-construction answer, and on infinite-domain inputs (as many
   per run as [proof_budget] allows) the axiomatic cross-check: a CIND1-CIND6
   derivation found by Proof_search and accepted by the proof checker
   means implied, none means not implied (Thm 3.5). *)
let judge_implies (req : Pools.request) ~code ~proof_budget =
  match req.expect with
  | Pools.Exit e when code <> 3 && code <> e -> Some (Printf.sprintf "exit %d, implied-by-construction answer is %d" code e)
  | _ when code = 3 || !proof_budget <= 0 -> None
  | _ -> (
      let doc = load req.file in
      if Db_schema.has_finite_attrs doc.schema then None
      else
        let goals, rest = split_goal (Sigma.normalize doc.sigma) in
        let goal = List.hd goals in
        decr proof_budget;
        match Proof_search.derive doc.schema ~sigma:rest goal with
        | Some proof -> (
            match Inference.proves doc.schema ~sigma:rest proof goal with
            | Error e -> Some ("derived proof rejected: " ^ e)
            | Ok _ when code = 1 -> Some "not implied, but a checked CIND1-CIND6 proof exists"
            | Ok _ -> None)
        | None when code = 0 -> Some "implied, but no CIND1-CIND6 proof exists"
        | None -> None
        | exception Implication.Budget_exceeded -> None)

(* --- violations --------------------------------------------------------------- *)

let load_database (doc : Parser.document) (req : Pools.request) =
  let db = match Parser.database doc with Ok db -> db | Error e -> failwith e in
  List.fold_left
    (fun db (rel, path) ->
      match Csv.load (Db_schema.find doc.schema rel) path with
      | Ok r -> Database.set_relation db r
      | Error e -> failwith (path ^ ": " ^ e))
    db req.csvs

let render_report (report : Conddep_cleaning.Report.t) =
  ((if report.violations = [] then 0 else 1), Fmt.str "%a@." Conddep_cleaning.Report.pp report)

let replay_violations (req : Pools.request) =
  let ((code, out), alloc_words), counters =
    counted (fun () ->
        let doc, alloc = parse req.file in
        let db = span "relational.csv_load" (fun () -> load_database doc req) in
        let nf = normalize doc in
        let report = span "cleaning.detect" (fun () -> Conddep_cleaning.Report.build db nf) in
        (span "output.print" (fun () -> render_report report), alloc))
  in
  { code; out; counters; alloc_words; verdict = None }

let sorted_lines s = String.split_on_char '\n' s |> List.sort String.compare

(* cindtool detects with the pairwise Detect; the oracle is the
   hash-grouped Fast_detect, compared as the set of printed lines. *)
let judge_violations (req : Pools.request) { code; out; _ } =
  let doc = load req.file in
  let db = load_database doc req in
  let violations = Conddep_cleaning.Fast_detect.detect db (Sigma.normalize doc.sigma) in
  let code', out' = render_report { Conddep_cleaning.Report.total_tuples = Database.total_tuples db; violations } in
  if code <> code' then Some (Printf.sprintf "exit %d, Fast_detect gives %d" code code')
  else if sorted_lines out <> sorted_lines out' then Some "violation set differs from Fast_detect's"
  else None
