(* The request pools of the four cindtool workloads, generated from the
   seed and written as files under the work directory. *)

(* What the input's construction says about the answer. *)
type expect =
  | Free  (** nothing is known by construction *)
  | Not_inconsistent  (** consistent by construction: exit 1 is wrong *)
  | Exit of int  (** implied (0) or not implied (1) by construction *)

type request = {
  label : string;  (** family and size, e.g. [consistent-1000] *)
  args : string list;  (** cindtool arguments *)
  file : string;  (** the .cind file *)
  csvs : (string * string) list;  (** relation, CSV file *)
  expect : expect;
}

let write path contents = Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* Fig 11 setting: 10 relations, 20% of the attributes finite.  Arity
   stays at most 8: with the paper's 15, about one Σ in a hundred makes a
   single chase run grow its template to the threshold, which takes
   seconds to minutes and dwarfs every other request. *)
let fig11_schema = { Gen.relations = 10; min_arity = 3; max_arity = 8; finite_ratio = 0.2; dom_min = 2; dom_max = 100 }

(* [families] lists (label, count, make); make writes input i and returns
   its request.  Inputs are numbered in family order; each family draws
   from its own split of the seed so resizing one family leaves the
   others' inputs unchanged. *)
let build ~dir r families =
  let i = ref 0 in
  List.concat_map
    (fun (label, count, make) ->
      let fr = Gen.split r in
      List.init count (fun _ ->
          let base = Filename.concat dir (Printf.sprintf "in%02d" !i) in
          incr i;
          make (Gen.split fr) ~label ~base))
    families

let family ~consistent n = Printf.sprintf "%s-%d" (if consistent then "consistent" else "random") n

(* --- check-chase / check-sat ---------------------------------------------- *)

let check_request ~backend doc ~expect ~label ~base =
  let file = base ^ ".cind" in
  write file (Gen.print_doc doc);
  let args = match backend with `Chase -> [ "check"; file ] | `Sat -> [ "check"; "--backend"; "sat"; file ] in
  { label; args; file; csvs = []; expect }

let fig11_check ~backend ~per ~consistent n =
  let make r ~label ~base =
    let rels = Gen.schema r fig11_schema in
    let cfds, cinds = Gen.sigma r (Gen.fig11 n) rels ~consistent in
    check_request ~backend { Gen.rels; cfds; cinds; instances = [] }
      ~expect:(if consistent then Not_inconsistent else Free)
      ~label ~base
  in
  (family ~consistent n, per, make)

let check_chase ~smoke ~dir r =
  let sizes = if smoke then [ 50; 100 ] else [ 1000; 2000; 4000 ] in
  let per = if smoke then 1 else 24 in
  build ~dir r
    (List.concat_map
       (fun consistent -> List.map (fig11_check ~backend:`Chase ~per ~consistent) sizes)
       [ true; false ])

let check_sat ~smoke ~dir r =
  let per = if smoke then 1 else 40 in
  let needle r ~label ~base =
    let doc = Gen.needle r ~relations:(if smoke then 4 else 10) ~cinds:(if smoke then 10 else 60) in
    check_request ~backend:`Sat doc ~expect:Free ~label ~base
  in
  let fig11 = fig11_check ~backend:`Sat ~per in
  build ~dir r
    (if smoke then [ fig11 ~consistent:true 100; fig11 ~consistent:false 100; ("needle", per, needle) ]
     else [ fig11 ~consistent:true 2000; fig11 ~consistent:false 2000; fig11 ~consistent:false 4000; ("needle", per, needle) ])

(* --- implies ---------------------------------------------------------------- *)

(* Random Σ for implication has infinite domains only.  With finite
   domains the exact procedure enumerates every combination of a created
   tuple's free finite fields: a few goals per hundred then take seconds,
   and with the Fig 11 domains of up to 100 values some exhaust memory
   (the known runaway [run.exe runaway] reproduces, kept out of the timed
   pool so no request fails).  Finite domains come in through the chain
   and bank families, whose cost is fixed by construction.  Infinite
   domains also let every random goal be cross-checked by proof search. *)
let implies_request doc ~expect ~label ~base =
  let file = base ^ ".cind" in
  write file (Gen.print_doc doc);
  { label; args = [ "implies"; file; "goal" ]; file; csvs = []; expect }

let random_goal ~consistent ~constraints r ~label ~base =
  let rels = Gen.schema r { fig11_schema with finite_ratio = 0. } in
  let c = Gen.fig11 constraints in
  let cfds, cinds = Gen.sigma r c rels ~consistent in
  let goal = Gen.gen_cind r c rels ~consistent "goal" in
  implies_request { Gen.rels; cfds; cinds = cinds @ [ goal ]; instances = [] } ~expect:Free ~label ~base

let implies ~smoke ~dir r =
  let per = if smoke then 1 else 40 in
  let random ~consistent n = (family ~consistent n, per, random_goal ~consistent ~constraints:(if smoke then n / 10 else n)) in
  build ~dir r
    [
      random ~consistent:false 500;
      random ~consistent:false 1000;
      random ~consistent:true 500;
      random ~consistent:true 1000;
      ("chain", per, fun r -> implies_request (Gen.chain r) ~expect:(Exit 0));
      ("chain-finite", per, fun r -> implies_request (Gen.finite_chain r ~k:(if smoke then 6 else 11)) ~expect:(Exit 0));
      ("bank", per, fun r -> implies_request (Gen.bank r ~broken:false) ~expect:(Exit 0));
      ("bank-broken", per, fun r -> implies_request (Gen.bank r ~broken:true) ~expect:(Exit 1));
    ]

(* --- violations -------------------------------------------------------------- *)

(* Σ holds on the clean rows by construction; 2% of the fields are then
   corrupted, so violations are few and the output stays small while the
   pairwise detector's work grows with the square of the table size. *)
let dirty ~rows r ~label ~base =
  let schema = { Gen.relations = 5; min_arity = 4; max_arity = 8; finite_ratio = 0.2; dom_min = 2; dom_max = 6 } in
  let rels = Gen.keyed (Gen.schema r schema) in
  let groups = max 2 (rows / 2) in
  let cfds, cinds = Gen.dirty_sigma r rels ~groups ~constraints:40 in
  let file = base ^ ".cind" in
  write file (Gen.print_doc { Gen.rels; cfds; cinds; instances = [] });
  let csvs =
    List.map
      (fun rel ->
        let path = Printf.sprintf "%s_%s.csv" base rel.Gen.rname in
        write path (Gen.print_csv (Gen.dirty_rows r rel ~rows ~groups ~error_rate:0.02));
        (rel.Gen.rname, path))
      rels
  in
  let args = ("violations" :: file :: List.concat_map (fun (rel, path) -> [ "--csv"; rel ^ "=" ^ path ]) csvs) in
  { label; args; file; csvs; expect = Free }

let violations ~smoke ~dir r =
  let sizes = if smoke then [ 20; 40 ] else [ 100; 200; 400 ] in
  let per = if smoke then 1 else 24 in
  build ~dir r (List.map (fun rows -> (Printf.sprintf "rows-%d" rows, per, dirty ~rows)) sizes)
