open Conddep_relational
open Conddep_core
open Conddep_dsl
open Helpers

(* The constraint DSL: the shipped bank file, round-trips, and error
   diagnostics. *)

module B = Conddep_fixtures.Bank

let bank_path () = data_file "bank.cind"

let load_bank () =
  match Parser.parse_file (bank_path ()) with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "bank.cind failed to parse: %s" msg

let test_bank_parses () =
  let doc = load_bank () in
  check_int "five relations" 5 (List.length (Db_schema.relations doc.Parser.schema));
  check_int "three CFDs" 3 (List.length doc.sigma.Sigma.cfds);
  check_int "eight CINDs" 8 (List.length doc.sigma.Sigma.cinds);
  check_int "five instances" 5 (List.length doc.instances)

let test_bank_matches_fixtures () =
  (* The DSL file and the programmatic fixtures describe the same Σ. *)
  let doc = load_bank () in
  let parsed_nf = Sigma.normalize doc.Parser.sigma in
  let fixture_nf = Sigma.normalize B.sigma in
  check_int "same CIND count"
    (List.length fixture_nf.Sigma.ncinds)
    (List.length parsed_nf.Sigma.ncinds);
  List.iter
    (fun nf ->
      check_bool
        (Printf.sprintf "fixture CIND %s parsed" nf.Cind.nf_name)
        true
        (List.exists
           (fun nf' -> Cind.nf_equal (Cind.canon_nf nf) (Cind.canon_nf nf'))
           parsed_nf.ncinds))
    fixture_nf.ncinds

let test_bank_database_behaviour () =
  (* The declared instance reproduces Example 2.2 / 4.1: ψ6 and ϕ3 fail. *)
  let doc = load_bank () in
  let db = ok_or_fail (Parser.database doc) in
  let by_name name l = List.find (fun (c : Cind.t) -> c.Cind.name = name) l in
  check_bool "psi6 violated" false
    (Cind.holds db (by_name "psi6" doc.sigma.Sigma.cinds));
  check_bool "psi5 holds" true (Cind.holds db (by_name "psi5" doc.sigma.Sigma.cinds));
  let phi3 = List.find (fun (c : Cfd.t) -> c.Cfd.name = "phi3") doc.sigma.Sigma.cfds in
  check_bool "phi3 violated" false (Cfd.holds db phi3)

let test_roundtrip () =
  let doc = load_bank () in
  let printed = Printer.document_to_string doc in
  match Parser.parse printed with
  | Error msg -> Alcotest.failf "printed document failed to reparse: %s" msg
  | Ok doc' ->
      check_int "same relation count"
        (List.length (Db_schema.relations doc.Parser.schema))
        (List.length (Db_schema.relations doc'.Parser.schema));
      let nf = Sigma.normalize doc.sigma and nf' = Sigma.normalize doc'.sigma in
      check_int "same CFD nf count" (List.length nf.Sigma.ncfds) (List.length nf'.Sigma.ncfds);
      List.iter
        (fun c ->
          check_bool "cind preserved" true
            (List.exists
               (fun c' -> Cind.nf_equal (Cind.canon_nf c) (Cind.canon_nf c'))
               nf'.ncinds))
        nf.Sigma.ncinds;
      let db = ok_or_fail (Parser.database doc) in
      let db' = ok_or_fail (Parser.database doc') in
      check_int "same data" (Database.total_tuples db) (Database.total_tuples db')

(* Print then parse returns the same document, for generated documents
   with every kind of domain, CFDs, CINDs, instances and string constants
   over all 256 byte values. *)

let gen_string = QCheck.Gen.(string_size ~gen:char (int_bound 6))

let gen_domain =
  QCheck.Gen.(
    frequency
      [
        (2, return Domain.string_inf);
        (2, return Domain.int_inf);
        (1, return Domain.bool_dom);
        (2, map Domain.finite (list_size (int_range 1 4) (map (fun s -> Value.Str s) gen_string)));
        (1, map Domain.finite (list_size (int_range 1 4) (map (fun i -> Value.Int i) int)));
      ])

let gen_value dom =
  QCheck.Gen.(
    match Domain.values dom with
    | Some vs -> oneofl vs
    | None when Domain.mem dom (Value.Int 0) -> map (fun i -> Value.Int i) int
    | None -> map (fun s -> Value.Str s) gen_string)

let gen_cells doms =
  QCheck.Gen.(
    flatten_l
      (List.map
         (fun dom ->
           frequency [ (1, return Pattern.Wildcard); (2, map (fun v -> Pattern.Const v) (gen_value dom)) ])
         doms))

let gen_rows gen_row = QCheck.Gen.(list_size (int_range 1 2) gen_row)

(* A random sublist of [l] in random order. *)
let gen_sublist l =
  QCheck.Gen.(
    let* l = shuffle_l l in
    let+ k = int_bound (List.length l) in
    List.filteri (fun i _ -> i < k) l)

let gen_schema =
  QCheck.Gen.(
    let* k = int_range 1 3 in
    let+ rels =
      flatten_l
        (List.init k (fun i ->
             let* m = int_range 1 4 in
             let+ doms = list_repeat m gen_domain in
             Schema.make (Printf.sprintf "r%d" i)
               (List.mapi (fun j d -> Attribute.make (Printf.sprintf "a%d" j) d) doms)))
    in
    Db_schema.make rels)

let gen_cfd rels i =
  QCheck.Gen.(
    let* rel = oneofl rels in
    let names = Schema.attr_names rel in
    let* x = gen_sublist names in
    let* y = gen_sublist names in
    let* a = oneofl names in
    let y = if y = [] then [ a ] else y in
    let+ rows =
      gen_rows
        (let+ rx = gen_cells (List.map (Schema.domain_of rel) x)
         and+ ry = gen_cells (List.map (Schema.domain_of rel) y) in
         { Cfd.rx; ry })
    in
    Cfd.make ~name:(Printf.sprintf "f%d" i) ~rel:(Schema.name rel) ~x ~y rows)

(* Copy pairs (a, b) with dom(a) ⊆ dom(b), each attribute used once. *)
let copy_pairs r1 r2 =
  QCheck.Gen.(
    let* xs = gen_sublist (Schema.attr_names r1) in
    let+ ys = shuffle_l (Schema.attr_names r2) in
    List.fold_left
      (fun (pairs, free) a ->
        let fits b = Domain.subset (Schema.domain_of r1 a) (Schema.domain_of r2 b) in
        match List.find_opt fits free with
        | Some b -> (pairs @ [ (a, b) ], List.filter (( <> ) b) free)
        | None -> (pairs, free))
      ([], ys) xs
    |> fst)

let gen_cind rels i =
  QCheck.Gen.(
    let* r1 = oneofl rels in
    let* r2 = oneofl rels in
    let* pairs = copy_pairs r1 r2 in
    let x = List.map fst pairs and y = List.map snd pairs in
    let* xp = gen_sublist (List.filter (fun a -> not (List.mem a x)) (Schema.attr_names r1)) in
    let* yp = gen_sublist (List.filter (fun b -> not (List.mem b y)) (Schema.attr_names r2)) in
    let+ rows =
      gen_rows
        (let+ cx = gen_cells (List.map (Schema.domain_of r1) x)
         and+ cxp = gen_cells (List.map (Schema.domain_of r1) xp)
         and+ cyp = gen_cells (List.map (Schema.domain_of r2) yp) in
         { Cind.cx; cxp; cy = cx; cyp })
    in
    Cind.make ~name:(Printf.sprintf "c%d" i) ~lhs:(Schema.name r1) ~rhs:(Schema.name r2) ~x ~xp ~y
      ~yp rows)

let gen_instance rel =
  QCheck.Gen.(
    let+ tuples =
      list_size (int_bound 3)
        (let+ values = flatten_l (List.map (fun a -> gen_value (Attribute.domain a)) (Schema.attrs rel)) in
         Tuple.make values)
    in
    (Schema.name rel, tuples))

let gen_document =
  QCheck.Gen.(
    let* schema = gen_schema in
    let rels = Db_schema.relations schema in
    let* ncfds = int_bound 3 in
    let* cfds = flatten_l (List.init ncfds (gen_cfd rels)) in
    let* ncinds = int_bound 3 in
    let* cinds = flatten_l (List.init ncinds (gen_cind rels)) in
    let* with_data = gen_sublist rels in
    let+ instances = flatten_l (List.map gen_instance with_data) in
    { Parser.schema; sigma = Sigma.make ~cfds ~cinds (); instances })

let test_print_parse_identity =
  qtest ~count:300 "print then parse is the identity"
    (QCheck.make ~print:Printer.document_to_string gen_document)
    (fun doc -> Parser.parse (Printer.document_to_string doc) = Ok doc)

let expect_parse_error ?diag name src =
  match Parser.parse src with
  | Error msg -> Option.iter (fun d -> check_string name d msg) diag
  | Ok _ -> Alcotest.failf "%s: malformed input accepted" name

let test_errors () =
  expect_parse_error "unknown relation in cind"
    "schema r (a : string);\ncind c : r[a ; ] <= s[a ; ] with (_ ;  || _ ; );";
  expect_parse_error "arity mismatch"
    "schema r (a : string);\ncind c : r[a ; ] <= r[ ; ] with (_ ;  ||  ; );";
  expect_parse_error "bad token" "schema r (a : string) @;";
  expect_parse_error "missing semicolon" "schema r (a : string)";
  expect_parse_error "unterminated string" "schema r (a : \"oops);";
  expect_parse_error "empty finite domain" "schema r (a : {});";
  expect_parse_error "instance of unknown relation"
    "schema r (a : string);\ninstance s { (\"x\"); }";
  expect_parse_error "constant outside domain"
    "schema r (a : {\"u\"});\ncfd c : r(a -> a) with (\"z\" || _);";
  expect_parse_error ~diag:"line 2: integer literal out of range"
    "integer literal out of range"
    "schema r (a : int, b : int);\ninstance r { (1, 99999999999999999999 2); }"

let test_ill_typed_instance_rejected () =
  let doc =
    ok_or_fail (Parser.parse "schema r (a : int);\ninstance r { (\"notanint\"); }")
  in
  match Parser.database doc with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ill-typed instance accepted"

let test_comments_and_whitespace () =
  let src =
    "# hash comment\n-- dash comment\nschema r (a : string); -- trailing\n"
  in
  let doc = ok_or_fail (Parser.parse src) in
  check_int "one relation" 1 (List.length (Db_schema.relations doc.Parser.schema))

let test_literals () =
  let src = "schema r (a : int, b : bool, c : {1, 2, 3});\ninstance r { (7, true, 2); }" in
  let doc = ok_or_fail (Parser.parse src) in
  let db = ok_or_fail (Parser.database doc) in
  check_int "tuple loaded" 1 (Database.total_tuples db)

let () =
  Alcotest.run "dsl"
    [
      ( "bank-file",
        [
          Alcotest.test_case "parses" `Quick test_bank_parses;
          Alcotest.test_case "matches fixtures" `Quick test_bank_matches_fixtures;
          Alcotest.test_case "instance behaviour" `Quick test_bank_database_behaviour;
        ] );
      ( "roundtrip",
        [ Alcotest.test_case "print then parse" `Quick test_roundtrip; test_print_parse_identity ] );
      ( "errors",
        [
          Alcotest.test_case "malformed inputs" `Quick test_errors;
          Alcotest.test_case "ill-typed instances" `Quick test_ill_typed_instance_rejected;
          Alcotest.test_case "comments" `Quick test_comments_and_whitespace;
          Alcotest.test_case "literal kinds" `Quick test_literals;
        ] );
    ]
