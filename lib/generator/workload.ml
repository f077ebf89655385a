open Conddep_relational
open Conddep_core

(* Random constraint workloads (Section 6).

   Two families per the paper: *consistent* sets — built so that a hidden
   witness tuple per relation (one shared value per attribute name)
   satisfies everything — and *random* sets, whose constants are drawn
   freely and may conflict.  Σ mixes 75% CFDs and 25% CINDs by default. *)

type config = {
  num_constraints : int;
  cfd_fraction : float; (* fraction of CFDs in Σ (the paper uses 0.75) *)
  consts_per_attr : int; (* size of the constant pool per infinite attribute *)
  max_lhs : int; (* maximum |X| of generated constraints *)
  max_pattern : int; (* maximum |Xp| / |Yp| *)
}

let default =
  { num_constraints = 100; cfd_fraction = 0.75; consts_per_attr = 4; max_lhs = 2; max_pattern = 2 }

(* --- value pools -------------------------------------------------------- *)

(* The hidden witness value of each attribute, shared across relations
   (attribute names carry one domain globally, see Schema_gen). *)
let witness_value attr =
  match Domain.values (Attribute.domain attr) with
  | Some (v :: _) -> v
  | Some [] -> assert false
  | None -> Value.Str (Printf.sprintf "w_%s" (Attribute.name attr))

(* Constants available for patterns on an attribute; the witness value is
   always in the pool. *)
let const_pool config attr =
  match Domain.values (Attribute.domain attr) with
  | Some vs ->
      List.filteri (fun i _ -> i < max 2 config.consts_per_attr) vs
  | None ->
      witness_value attr
      :: List.init config.consts_per_attr (fun k ->
             Value.Str (Printf.sprintf "c_%s_%d" (Attribute.name attr) k))

(* --- helpers ------------------------------------------------------------ *)

let sample_subset rng ~max_size candidates =
  if candidates = [] || max_size <= 0 then []
  else
    let size = 1 + Rng.int rng (min max_size (List.length candidates)) in
    List.filteri (fun i _ -> i < size) (Rng.shuffle rng candidates)

let pick_rel rng schema = Rng.pick rng (Db_schema.relations schema)

(* --- CFD generation ----------------------------------------------------- *)

(* One normal-form CFD on a random relation.  When [consistent] is set, the
   CFD is satisfied by the witness tuple: if the generated LHS pattern
   matches the witness, the RHS is the witness value (or a wildcard). *)
let gen_cfd rng config schema ~consistent idx =
  let rel = pick_rel rng schema in
  let attrs = Schema.attrs rel in
  let x_attrs = sample_subset rng ~max_size:config.max_lhs attrs in
  let rest = List.filter (fun a -> not (List.memq a x_attrs)) attrs in
  let a_attr = if rest = [] then List.hd attrs else Rng.pick rng rest in
  let cell_for attr =
    let roll = Rng.int rng 3 in
    if roll = 0 then Pattern.Wildcard
    else if roll = 1 then Pattern.Const (witness_value attr)
    else Pattern.Const (Rng.pick rng (const_pool config attr))
  in
  let tx = List.map cell_for x_attrs in
  (* Consistent mode keeps every conclusion witness-compatible even when
     the premise does not match the witness: the chase may reach tuples the
     witness never exhibits, and random conclusions there would create
     constant clashes between derived tuples.  The paper's consistent sets
     behaved the same way (Section 6 notes the difficulty of generating
     consistent sets complex enough to defeat the heuristics). *)
  let ta =
    if consistent then
      if Rng.bool rng then Pattern.Const (witness_value a_attr) else Pattern.Wildcard
    else if Rng.int rng 4 = 0 then Pattern.Wildcard
    else Pattern.Const (Rng.pick rng (const_pool config a_attr))
  in
  {
    Cfd.nf_name = Printf.sprintf "cfd%d" idx;
    nf_rel = Schema.name rel;
    nf_x = List.map Attribute.name x_attrs;
    nf_a = Attribute.name a_attr;
    nf_tx = tx;
    nf_ta = ta;
  }

(* --- CIND generation ---------------------------------------------------- *)

(* One normal-form CIND between two random relations.  Attribute names are
   shared across relations, so X maps to identically-named Y.  When
   [consistent] is set and the witness tuple triggers the CIND, the Yp
   constants are witness values (which the witness tuple of the target
   relation carries). *)
let gen_cind rng config schema ~consistent idx =
  let r1 = pick_rel rng schema and r2 = pick_rel rng schema in
  let common =
    List.filter (fun a -> Schema.mem_attr r2 (Attribute.name a)) (Schema.attrs r1)
  in
  let x_attrs = sample_subset rng ~max_size:config.max_lhs common in
  let xp_candidates =
    List.filter (fun a -> not (List.memq a x_attrs)) (Schema.attrs r1)
  in
  let xp_attrs = sample_subset rng ~max_size:config.max_pattern xp_candidates in
  let xp =
    List.map
      (fun attr ->
        let v =
          if consistent && Rng.bool rng then witness_value attr
          else Rng.pick rng (const_pool config attr)
        in
        (Attribute.name attr, v))
      xp_attrs
  in
  let x_names = List.map Attribute.name x_attrs in
  let yp_candidates =
    List.filter (fun a -> not (List.mem (Attribute.name a) x_names)) (Schema.attrs r2)
  in
  let yp_attrs = sample_subset rng ~max_size:config.max_pattern yp_candidates in
  (* Consistent mode binds Yp to witness values unconditionally — see the
     matching remark in [gen_cfd]: even CINDs the witness never triggers
     may fire during a chase, and random Yp constants there would clash. *)
  let yp =
    List.map
      (fun attr ->
        let v =
          if consistent then witness_value attr
          else Rng.pick rng (const_pool config attr)
        in
        (Attribute.name attr, v))
      yp_attrs
  in
  {
    Cind.nf_name = Printf.sprintf "cind%d" idx;
    nf_lhs = Schema.name r1;
    nf_rhs = Schema.name r2;
    nf_x = x_names;
    nf_y = x_names;
    nf_xp = xp;
    nf_yp = yp;
  }

(* --- workloads ---------------------------------------------------------- *)

let generate_sigma rng config schema ~consistent =
  let cfds = ref [] and cinds = ref [] in
  for idx = 0 to config.num_constraints - 1 do
    if Rng.chance rng config.cfd_fraction then
      cfds := gen_cfd rng config schema ~consistent idx :: !cfds
    else cinds := gen_cind rng config schema ~consistent idx :: !cinds
  done;
  { Sigma.ncfds = !cfds; ncinds = !cinds }

let consistent rng config schema = generate_sigma rng config schema ~consistent:true
let random rng config schema = generate_sigma rng config schema ~consistent:false

(* The witness database the consistent generator guarantees: one tuple per
   relation carrying the witness values.  Exposed for tests. *)
let witness_db schema =
  List.fold_left
    (fun db rel ->
      Database.add_tuple db (Schema.name rel)
        (Tuple.make (List.map witness_value (Schema.attrs rel))))
    (Database.empty schema)
    (Db_schema.relations schema)

(* CFD-only workloads for the Fig 10 experiments. *)
let cfds_only rng config schema ~consistent =
  {
    Sigma.ncfds =
      List.init config.num_constraints (fun idx -> gen_cfd rng config schema ~consistent idx);
    ncinds = [];
  }

(* Hard "needle" CFD sets for the Fig 10(b) accuracy experiment: per
   relation, a secret assignment of the finite-domain attributes is chosen
   and CFDs of the form (fi = a -> fj = b) are emitted so that the secret
   satisfies everything while other valuations almost surely conflict.
   Bounded-K random valuation search (chase-based CFD_Checking) then fails
   with probability about (1 - p)^K where p is the density of satisfying
   valuations — exactly the accuracy-vs-K_CFD trade-off of Fig 10(b). *)
let needle_cfds rng schema =
  let cfds = ref [] in
  let idx = ref 0 in
  List.iter
    (fun rel ->
      let finite = List.filter Attribute.is_finite (Schema.attrs rel) in
      if List.length finite >= 2 then begin
        let secret =
          List.map
            (fun attr ->
              (Attribute.name attr, Rng.pick rng (Option.get (Domain.values (Attribute.domain attr)))))
            finite
        in
        let pairs =
          List.concat_map
            (fun a -> List.filter_map (fun b -> if a == b then None else Some (a, b)) finite)
            finite
        in
        List.iter
          (fun (fi, fj) ->
            let dom_i = Option.get (Domain.values (Attribute.domain fi)) in
            let dom_j = Option.get (Domain.values (Attribute.domain fj)) in
            List.iter
              (fun a ->
                let conclusion =
                  if Value.equal a (List.assoc (Attribute.name fi) secret) then
                    List.assoc (Attribute.name fj) secret
                  else Rng.pick rng dom_j
                in
                incr idx;
                cfds :=
                  {
                    Cfd.nf_name = Printf.sprintf "needle%d" !idx;
                    nf_rel = Schema.name rel;
                    nf_x = [ Attribute.name fi ];
                    nf_a = Attribute.name fj;
                    nf_tx = [ Pattern.Const a ];
                    nf_ta = Pattern.Const conclusion;
                  }
                  :: !cfds)
              dom_i)
          pairs
      end)
    (Db_schema.relations schema);
  { Sigma.ncfds = !cfds; ncinds = [] }

(* Planted 3-SAT as the CFDs of one relation: n boolean attributes and a
   hidden assignment; each of round(4.3 n) random 3-clauses is redrawn
   until the assignment satisfies it.  A literal is "attribute = value",
   and the clause lx ∨ ly ∨ lz becomes r(ax, ay -> az) with
   (¬lx, ¬ly || lz): a single tuple satisfies CFD(r) iff it is a model.
   Satisfiable by construction, yet near the 3-SAT phase transition
   bounded random valuation search rarely finds a model. *)
let planted_3sat rng ~n =
  let attr i = Printf.sprintf "a%d" i in
  let schema =
    Db_schema.make
      [ Schema.make "r" (List.init n (fun i -> Attribute.make (attr i) Domain.bool_dom)) ]
  in
  let planted = Array.init n (fun _ -> Rng.bool rng) in
  let rec clause () =
    let rec distinct acc k =
      if k = 0 then acc
      else
        let v = Rng.int rng n in
        if List.mem v acc then distinct acc k else distinct (v :: acc) (k - 1)
    in
    let lits = List.map (fun v -> (v, Rng.bool rng)) (distinct [] 3) in
    if List.exists (fun (v, b) -> planted.(v) = b) lits then lits else clause ()
  in
  let m = int_of_float (Float.round (4.3 *. float_of_int n)) in
  let cfd idx = function
    | [ (x, bx); (y, by); (z, bz) ] ->
        {
          Cfd.nf_name = Printf.sprintf "c%d" idx;
          nf_rel = "r";
          nf_x = [ attr x; attr y ];
          nf_a = attr z;
          nf_tx = [ Pattern.Const (Value.Bool (not bx)); Pattern.Const (Value.Bool (not by)) ];
          nf_ta = Pattern.Const (Value.Bool bz);
        }
    | _ -> assert false
  in
  (schema, { Sigma.ncfds = List.init m (fun idx -> cfd idx (clause ())); ncinds = [] })

(* A dirty-data generator for the cleaning examples: start from clean
   tuples derived from the witness, then corrupt a fraction of fields. *)
let dirty_database rng schema ~tuples_per_rel ~error_rate =
  List.fold_left
    (fun db rel ->
      let attrs = Schema.attrs rel in
      let rows =
        List.init tuples_per_rel (fun i ->
            Tuple.make
              (List.map
                 (fun attr ->
                   if Rng.chance rng error_rate then
                     match Domain.values (Attribute.domain attr) with
                     | Some vs -> Rng.pick rng vs
                     | None -> Value.Str (Printf.sprintf "dirty%d" (Rng.int rng 1000))
                   else
                     (* clean rows share per-attribute values so keys collide *)
                     match Domain.values (Attribute.domain attr) with
                     | Some (v :: _) -> v
                     | _ -> Value.Str (Printf.sprintf "v_%s_%d" (Attribute.name attr) (i mod 3))
                 )
                 attrs))
      in
      List.fold_left (fun db t -> Database.add_tuple db (Schema.name rel) t) db rows)
    (Database.empty schema)
    (Db_schema.relations schema)
