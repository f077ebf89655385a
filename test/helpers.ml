open Conddep_relational

(* Shared helpers for the test suites. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let str s = Value.Str s
let int i = Value.Int i
let tup l = Tuple.make l
let stup l = Tuple.make (List.map str l)

let wildcard = Pattern.Wildcard
let const s = Pattern.Const (Value.Str s)

(* Build a quick single-relation schema with all-string attributes. *)
let string_schema rel attrs =
  Db_schema.make
    [ Schema.make rel (List.map (fun a -> Attribute.make a Domain.string_inf) attrs) ]

let ok_or_fail = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* Locate a repository data file regardless of the runner's working
   directory (dune runtest sandboxes vs direct execution). *)
let data_file name =
  let candidates =
    [
      Filename.concat "data" name;
      Filename.concat (Filename.concat (Filename.concat ".." "..") "..") (Filename.concat "data" name);
      Filename.concat
        (Filename.concat (Filename.concat (Filename.concat ".." "..") "..") "..")
        (Filename.concat "data" name);
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.failf "cannot locate data file %s from %s" name (Sys.getcwd ())

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* A random Σ over mostly finite two-valued attributes: the valuation
   space is dense with conflicts, so Checking has to search and small
   fuel budgets cut it at many different ticks. *)
let finite_workload ~seed ~relations ~constraints =
  let open Conddep_generator in
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng
      {
        Schema_gen.default with
        num_relations = relations;
        finite_ratio = 0.8;
        finite_dom_min = 2;
        finite_dom_max = 2;
      }
  in
  let sigma =
    Workload.random rng { Workload.default with num_constraints = constraints } schema
  in
  (schema, sigma)

(* A fuel budget spent before the call: its first tick or check raises
   [Guard.Exhausted Fuel]. *)
let spent_fuel () =
  let b = Guard.make ~fuel:1 () in
  (try Guard.tick ~cost:2 b with Guard.Exhausted _ -> ());
  b

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)
