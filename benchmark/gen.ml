(* Input generator for the benchmark.

   It has its own PRNG (splitmix64) and prints the .cind, CSV and session
   text itself, so a change to the library's generator, RNG or DSL printer
   cannot change what the benchmark measures.  The families follow the
   paper's experimental setting (Section 6): random schemas over a shared
   attribute universe, Σ with 75% CFDs, a "consistent" family satisfied by
   a hidden one-tuple-per-relation witness and a "random" family whose
   constants may conflict. *)

(* --- splitmix64 ----------------------------------------------------------- *)

type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int seed }

let next64 r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let int r bound = Int64.(to_int (unsigned_rem (next64 r) (of_int bound)))
let float r = Int64.(to_float (shift_right_logical (next64 r) 11)) *. 0x1p-53
let chance r p = float r < p
let bool r = int r 2 = 0
let range r lo hi = lo + int r (hi - lo + 1)
let pick r l = List.nth l (int r (List.length l))
let split r = { state = next64 r }

let shuffle r l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let take n l = List.filteri (fun i _ -> i < n) l

(* --- documents ------------------------------------------------------------ *)

type dom = Inf | Fin of string list
type attr = { name : string; dom : dom }
type rel = { rname : string; attrs : attr list }
type cell = Any | Val of string

(* Constraints are emitted in normal form: one pattern row, one RHS
   attribute for CFDs, and Y named like X for CINDs. *)
type cfd = { cfd_name : string; cfd_rel : string; cfd_x : (string * cell) list; cfd_a : string * cell }

type cind = {
  cind_name : string;
  lhs : string;
  rhs : string;
  x : string list;
  xp : (string * string) list;
  yp : (string * string) list;
}

type doc = {
  rels : rel list;
  cfds : cfd list;
  cinds : cind list;
  instances : (string * string list list) list;
}

let print_doc doc =
  let b = Buffer.create 65536 in
  let p fmt = Printf.bprintf b fmt in
  let q s = "\"" ^ s ^ "\"" in
  let cell = function Any -> "_" | Val v -> q v in
  let comma = String.concat ", " in
  List.iter
    (fun r ->
      let attr a =
        match a.dom with
        | Inf -> a.name ^ " : string"
        | Fin vs -> a.name ^ " : {" ^ comma (List.map q vs) ^ "}"
      in
      p "schema %s (%s);\n" r.rname (comma (List.map attr r.attrs)))
    doc.rels;
  List.iter
    (fun c ->
      p "cfd %s : %s(%s -> %s) with (%s || %s);\n" c.cfd_name c.cfd_rel
        (comma (List.map fst c.cfd_x))
        (fst c.cfd_a)
        (comma (List.map (fun (_, c) -> cell c) c.cfd_x))
        (cell (snd c.cfd_a)))
    doc.cfds;
  List.iter
    (fun c ->
      let wild = comma (List.map (fun _ -> "_") c.x) in
      p "cind %s : %s[%s ; %s] <= %s[%s ; %s] with (%s ; %s || %s ; %s);\n"
        c.cind_name c.lhs (comma c.x)
        (comma (List.map fst c.xp))
        c.rhs (comma c.x)
        (comma (List.map fst c.yp))
        wild
        (comma (List.map (fun (_, v) -> q v) c.xp))
        wild
        (comma (List.map (fun (_, v) -> q v) c.yp)))
    doc.cinds;
  List.iter
    (fun (rel, rows) ->
      p "instance %s {\n" rel;
      List.iter (fun row -> p "  (%s);\n" (comma (List.map q row))) rows;
      p "}\n")
    doc.instances;
  Buffer.contents b

let print_csv rows =
  let b = Buffer.create 65536 in
  List.iter
    (fun row ->
      Buffer.add_string b (String.concat "," row);
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

(* --- schemas (Section 6 setting) ------------------------------------------ *)

type schema_config = {
  relations : int;
  min_arity : int;
  max_arity : int;
  finite_ratio : float;
  dom_min : int;
  dom_max : int;
}

(* Attribute a<i> carries one domain in every relation, so CIND attribute
   pairs satisfy dom(A) ⊆ dom(B); each relation holds a prefix of the
   universe. *)
let schema r c =
  let universe =
    List.init c.max_arity (fun i ->
        let name = Printf.sprintf "a%d" i in
        if chance r c.finite_ratio then
          let size = range r c.dom_min c.dom_max in
          { name; dom = Fin (List.init size (fun k -> Printf.sprintf "d%d_%d" i k)) }
        else { name; dom = Inf })
  in
  List.init c.relations (fun i ->
      { rname = Printf.sprintf "r%d" i; attrs = take (range r c.min_arity c.max_arity) universe })

(* --- Σ families ----------------------------------------------------------- *)

type sigma_config = {
  constraints : int;
  cfd_fraction : float;
  consts_per_attr : int;
  max_lhs : int;
  max_pattern : int;
}

let fig11 constraints =
  { constraints; cfd_fraction = 0.75; consts_per_attr = 4; max_lhs = 2; max_pattern = 2 }

let witness a = match a.dom with Fin (v :: _) -> v | _ -> "w_" ^ a.name

let const_pool c a =
  match a.dom with
  | Fin vs -> take (max 2 c.consts_per_attr) vs
  | Inf -> witness a :: List.init c.consts_per_attr (fun k -> Printf.sprintf "c_%s_%d" a.name k)

let subset r ~max_size l =
  if l = [] || max_size <= 0 then []
  else take (1 + int r (min max_size (List.length l))) (shuffle r l)

(* In the consistent family every conclusion (CFD RHS constant, CIND Yp
   constant) is the witness value, so the one-tuple-per-relation witness
   database satisfies Σ. *)
let gen_cfd r c rels ~consistent name =
  let rel = pick r rels in
  let xs = subset r ~max_size:c.max_lhs rel.attrs in
  let rest = List.filter (fun a -> not (List.memq a xs)) rel.attrs in
  let a = if rest = [] then List.hd rel.attrs else pick r rest in
  let cell_for attr =
    match int r 3 with
    | 0 -> Any
    | 1 -> Val (witness attr)
    | _ -> Val (pick r (const_pool c attr))
  in
  let cfd_x = List.map (fun attr -> (attr.name, cell_for attr)) xs in
  let ta =
    if consistent then if bool r then Val (witness a) else Any
    else if int r 4 = 0 then Any
    else Val (pick r (const_pool c a))
  in
  { cfd_name = name; cfd_rel = rel.rname; cfd_x; cfd_a = (a.name, ta) }

let gen_cind r c rels ~consistent name =
  let r1 = pick r rels and r2 = pick r rels in
  let common = List.filter (fun a -> List.exists (fun b -> b.name = a.name) r2.attrs) r1.attrs in
  let xs = subset r ~max_size:c.max_lhs common in
  let x = List.map (fun a -> a.name) xs in
  let xp_attrs = subset r ~max_size:c.max_pattern (List.filter (fun a -> not (List.memq a xs)) r1.attrs) in
  let xp =
    List.map
      (fun a -> (a.name, if consistent && bool r then witness a else pick r (const_pool c a)))
      xp_attrs
  in
  let yp_attrs =
    subset r ~max_size:c.max_pattern (List.filter (fun a -> not (List.mem a.name x)) r2.attrs)
  in
  let yp =
    List.map (fun a -> (a.name, if consistent then witness a else pick r (const_pool c a))) yp_attrs
  in
  { cind_name = name; lhs = r1.rname; rhs = r2.rname; x; xp; yp }

let sigma r c rels ~consistent =
  let cfds = ref [] and cinds = ref [] in
  for i = 0 to c.constraints - 1 do
    if chance r c.cfd_fraction then cfds := gen_cfd r c rels ~consistent (Printf.sprintf "cfd%d" i) :: !cfds
    else cinds := gen_cind r c rels ~consistent (Printf.sprintf "cind%d" i) :: !cinds
  done;
  (List.rev !cfds, List.rev !cinds)

(* Fig 10(b) "needle" CFDs: all attributes finite with two values; per
   relation a secret assignment satisfies every CFD (fi = a -> fj = b)
   while other assignments almost surely conflict.  Pattern-free CINDs
   join the relations so preProcessing cannot settle the answer alone. *)
let needle r ~relations ~cinds =
  let rels =
    schema r
      { relations; min_arity = 3; max_arity = 5; finite_ratio = 1.0; dom_min = 2; dom_max = 2 }
  in
  let n = ref 0 in
  let cfds =
    List.concat_map
      (fun rel ->
        let dom a = match a.dom with Fin vs -> vs | Inf -> [] in
        let finite = List.filter (fun a -> dom a <> []) rel.attrs in
        let secret = List.map (fun a -> (a.name, pick r (dom a))) finite in
        List.concat_map
          (fun fi ->
            List.concat_map
              (fun fj ->
                if fi == fj then []
                else
                  List.map
                    (fun v ->
                      let concl =
                        if v = List.assoc fi.name secret then List.assoc fj.name secret
                        else pick r (dom fj)
                      in
                      incr n;
                      {
                        cfd_name = Printf.sprintf "needle%d" !n;
                        cfd_rel = rel.rname;
                        cfd_x = [ (fi.name, Val v) ];
                        cfd_a = (fj.name, Val concl);
                      })
                    (dom fi))
              finite)
          finite)
      rels
  in
  let c = { (fig11 0) with max_pattern = 0 } in
  let cinds =
    List.init cinds (fun i -> gen_cind r c rels ~consistent:false (Printf.sprintf "cind%d" i))
  in
  { rels; cfds; cinds; instances = [] }

(* --- implication families -------------------------------------------------- *)

(* Table 2 chain: src ⊆ mid1 ⊆ ... ⊆ midL ⊆ tgt on attribute a, each mid
   carrying k extra infinite attributes; the goal src[a] ⊆ tgt[a] is
   implied by construction (Thm 3.5 setting: no finite domains). *)
let chain r =
  let len = range r 1 4 in
  let str name = { name; dom = Inf } in
  let mids =
    List.init len (fun i ->
        let k = range r 1 16 in
        {
          rname = Printf.sprintf "mid%d" i;
          attrs = str "a" :: List.init k (fun j -> str (Printf.sprintf "f%d" j));
        })
  in
  let src = { rname = "src"; attrs = [ str "a" ] } and tgt = { rname = "tgt"; attrs = [ str "a" ] } in
  let path = (src :: mids) @ [ tgt ] in
  let ind name lhs rhs = { cind_name = name; lhs; rhs; x = [ "a" ]; xp = []; yp = [] } in
  let rec links = function
    | a :: (b :: _ as rest) -> ind (a.rname ^ "_" ^ b.rname) a.rname b.rname :: links rest
    | _ -> []
  in
  { rels = path; cfds = []; cinds = links path @ [ ind "goal" "src" "tgt" ]; instances = [] }

(* Table 2 chain with finite extra attributes: src ⊆ mid ⊆ tgt where mid
   carries [k] two-valued attributes, so the counterexample search
   branches over all 2^k created tuples (the EXPTIME alternation).  The
   goal is implied; the cost is fixed by [k]. *)
let finite_chain r ~k =
  let str name = { name; dom = Inf } in
  let bit = pick r [ ("0", "1"); ("no", "yes"); ("f", "t") ] in
  let mid = { rname = "mid"; attrs = str "a" :: List.init k (fun j -> { name = Printf.sprintf "f%d" j; dom = Fin [ fst bit; snd bit ] }) } in
  let src = { rname = "src"; attrs = [ str "a" ] } and tgt = { rname = "tgt"; attrs = [ str "a" ] } in
  let ind name lhs rhs = { cind_name = name; lhs; rhs; x = [ "a" ]; xp = []; yp = [] } in
  {
    rels = [ src; mid; tgt ];
    cfds = [];
    cinds = [ ind "src_mid" "src" "mid"; ind "mid_tgt" "mid" "tgt"; ind "goal" "src" "tgt" ];
    instances = [];
  }

(* Example 3.3/3.4 generalised: an account relation whose finite type
   attribute has m values; each type routes its accounts through its own
   table into interest with that type fixed, so account[at] ⊆ interest[at]
   is implied (rule CIND8 merges the cases).  With [~broken:true] one
   type's route is missing and the goal is not implied. *)
let bank r ~broken =
  let m = range r 2 4 in
  let branch = pick r [ "EDI"; "NYC"; "LDN"; "SFO" ] in
  let types = List.init m (Printf.sprintf "type%d") in
  let str name = { name; dom = Inf } in
  let at = { name = "at"; dom = Fin types } in
  let person = [ str "an"; str "cn"; str "ca"; str "cp" ] in
  let account = { rname = "account"; attrs = person @ [ at ] } in
  let table t = { rname = "acct_" ^ t; attrs = person @ [ str "ab" ] } in
  let interest = { rname = "interest"; attrs = [ str "ab"; str "ct"; at; str "rt" ] } in
  let missing = if broken then Some (pick r types) else None in
  let cinds =
    List.concat_map
      (fun t ->
        let route =
          {
            cind_name = "route_" ^ t;
            lhs = "account";
            rhs = "acct_" ^ t;
            x = [ "an"; "cn"; "ca"; "cp" ];
            xp = [ ("at", t) ];
            yp = [ ("ab", branch) ];
          }
        in
        let rate =
          {
            cind_name = "rate_" ^ t;
            lhs = "acct_" ^ t;
            rhs = "interest";
            x = [];
            xp = [ ("ab", branch) ];
            yp = [ ("ab", branch); ("at", t); ("ct", "UK"); ("rt", Printf.sprintf "%d%%" (range r 1 9)) ];
          }
        in
        if missing = Some t then [ rate ] else [ route; rate ])
      types
  in
  let goal = { cind_name = "goal"; lhs = "account"; rhs = "interest"; x = [ "at" ]; xp = []; yp = [] } in
  { rels = (account :: List.map table types) @ [ interest ]; cfds = []; cinds = cinds @ [ goal ]; instances = [] }

(* --- dirty databases ------------------------------------------------------- *)

(* Clean row i takes, on every attribute, a value that is a function of
   i mod groups, so the Σ generated here holds on clean data: FDs agree
   within a residue class and every CIND finds its partner in the same
   class.  Each field is then corrupted with probability [error_rate].
   A finite value does not identify its class, so CFD left-hand sides and
   CIND Xp patterns use infinite attributes only; a0 is made infinite so
   every relation has one. *)
let clean_value a k =
  match a.dom with
  | Fin vs -> List.nth vs (k mod List.length vs)
  | Inf -> Printf.sprintf "v_%s_%d" a.name k

let keyed rels =
  List.map
    (fun rel -> { rel with attrs = List.map (fun a -> if a.name = "a0" then { a with dom = Inf } else a) rel.attrs })
    rels

let infinite rel = List.filter (fun a -> a.dom = Inf) rel.attrs

let dirty_sigma r rels ~groups ~constraints =
  let cfd i =
    let rel = pick r rels in
    let xs = subset r ~max_size:2 (infinite rel) in
    let rest = List.filter (fun a -> not (List.memq a xs)) rel.attrs in
    let a = pick r rest in
    let name = Printf.sprintf "cfd%d" i in
    if bool r then { cfd_name = name; cfd_rel = rel.rname; cfd_x = List.map (fun x -> (x.name, Any)) xs; cfd_a = (a.name, Any) }
    else
      let k = int r groups in
      {
        cfd_name = name;
        cfd_rel = rel.rname;
        cfd_x = List.map (fun x -> (x.name, Val (clean_value x k))) xs;
        cfd_a = (a.name, Val (clean_value a k));
      }
  in
  let cind i =
    let r1 = pick r rels and r2 = pick r rels in
    let common = List.filter (fun a -> List.exists (fun b -> b.name = a.name) r2.attrs) r1.attrs in
    let xs = subset r ~max_size:2 common in
    let x = List.map (fun a -> a.name) xs in
    let name = Printf.sprintf "cind%d" i in
    let free rel = List.filter (fun a -> not (List.mem a.name x)) rel.attrs in
    match (bool r, List.filter (fun a -> not (List.mem a.name x)) (infinite r1), free r2) with
    | true, (_ :: _ as f1), (_ :: _ as f2) ->
        let k = int r groups in
        let b = pick r f1 and c = pick r f2 in
        { cind_name = name; lhs = r1.rname; rhs = r2.rname; x; xp = [ (b.name, clean_value b k) ]; yp = [ (c.name, clean_value c k) ] }
    | _ -> { cind_name = name; lhs = r1.rname; rhs = r2.rname; x; xp = []; yp = [] }
  in
  let cfds = ref [] and cinds = ref [] in
  for i = 0 to constraints - 1 do
    if chance r 0.75 then cfds := cfd i :: !cfds else cinds := cind i :: !cinds
  done;
  (List.rev !cfds, List.rev !cinds)

let dirty_rows r rel ~rows ~groups ~error_rate =
  List.init rows (fun i ->
      List.map
        (fun a ->
          if chance r error_rate then
            match a.dom with Fin vs -> pick r vs | Inf -> Printf.sprintf "x%d" (int r 100000)
          else clean_value a (i mod groups))
        rel.attrs)
