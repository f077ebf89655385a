open Conddep_relational
open Conddep_core

(* Cache coherence in one sentence: a hit must be verdict-bit-identical
   to recomputing against the current session state.  Everything below —
   context fingerprints, the per-query rng seeding, the never-cache rule
   for non-deterministic Unknowns, the read-set invalidation rules — is
   in service of that invariant; the property tests replay random edit
   scripts against a cache-off oracle to enforce it. *)

let () = Guard.register_probe "incremental.invalidate"

let m_hits = Telemetry.counter "incremental.hits" ~doc:"session queries answered from the verdict cache"
let m_misses = Telemetry.counter "incremental.misses" ~doc:"session queries recomputed (cold, dirtied, or uncacheable)"
let m_invalidations = Telemetry.counter "incremental.invalidations" ~doc:"cache entries dropped by edit invalidation"

(* Live entries across every session in the process; sessions come and
   go with their caches, so the gauge reads a shared counter maintained
   on insert/drop rather than walking session objects. *)
let live_entries = Atomic.make 0

let () =
  Telemetry.register_gauge "incremental.cache_entries"
    ~doc:"live verdict-cache entries across all incremental sessions"
    (fun () -> Atomic.get live_entries)

(* Query kinds, also the first component of the cache key. *)
let kcheck = 0
let kconsistent = 1
let kimplies = 2
let kholds = 3

(* Stored structural targets: every fingerprint hit is confirmed by a
   structural comparison, so a 64-bit collision costs a miss, never a
   wrong verdict. *)
type target =
  | T_sigma of Sigma.nf
  | T_rel of string
  | T_psi of Cind.nf
  | T_cfd of Cfd.nf

type stored = S_verdict of Cind_api.verdict | S_bool of bool

type entry = {
  e_target : target;
  e_stored : stored;
  mutable e_context : Fingerprint.t;
      (* the wholesale-read part of the state (see the .mli); refreshed
         on edits the entry survives *)
  e_read_cinds : (Fingerprint.t, unit) Hashtbl.t;
  e_read_cfds : (Fingerprint.t, unit) Hashtbl.t;
  e_read_rels : (string, unit) Hashtbl.t;
}

type t = {
  s_schema : Db_schema.t;
  s_seed : int;
  s_backend : Cind_api.backend;
  s_k : int option;
  s_k_cfd : int option;
  s_max_states : int option;
  s_cache_on : bool;
  mutable s_sigma : Sigma.nf;
  mutable s_db : Database.t;
  s_gens : (string, int) Hashtbl.t;
  (* memoised state fingerprints: a hit must cost O(entry), not O(|Σ|),
     so the context fingerprints every lookup compares against are
     computed once per edit, not once per query.  Also used with the
     cache off — the rng seeding discipline reads them. *)
  mutable s_fp_sigma : Fingerprint.t option;
  mutable s_fp_cinds : Fingerprint.t option;
  s_fp_cfds_on : (string, Fingerprint.t) Hashtbl.t;
  s_cache : (int * Fingerprint.t, entry) Hashtbl.t;
  (* warm-start state, keyed by the fingerprints of what it was compiled
     from *)
  mutable s_imp : (Fingerprint.t * Implication.compiled list) option;
  (* per-CIND compile memo feeding [s_imp]: after a single edit the new Σ
     compiles by looking up every surviving CIND and compiling only the
     delta.  Keyed by content fingerprint, guarded structurally. *)
  s_imp_units : (Fingerprint.t, Cind.nf * Implication.compiled) Hashtbl.t;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_inval : int;
}

let create ?(backend = Cind_api.Chase_backend) ?k ?k_cfd ?max_states
    ?(cache = true) ~seed schema =
  {
    s_schema = schema;
    s_seed = seed;
    s_backend = backend;
    s_k = k;
    s_k_cfd = k_cfd;
    s_max_states = max_states;
    s_cache_on = cache;
    s_sigma = { Sigma.ncfds = []; ncinds = [] };
    s_db = Database.empty schema;
    s_gens = Hashtbl.create 16;
    s_fp_sigma = None;
    s_fp_cinds = None;
    s_fp_cfds_on = Hashtbl.create 16;
    s_cache = Hashtbl.create 64;
    s_imp = None;
    s_imp_units = Hashtbl.create 64;
    s_hits = 0;
    s_misses = 0;
    s_inval = 0;
  }

let schema t = t.s_schema
let sigma t = t.s_sigma
let database t = t.s_db

(* --- fingerprints of the current state ----------------------------- *)

let fp_sigma t =
  match t.s_fp_sigma with
  | Some fp -> fp
  | None ->
      let fp = Fingerprint.sigma t.s_sigma in
      t.s_fp_sigma <- Some fp;
      fp

let ctx_implies t =
  match t.s_fp_cinds with
  | Some fp -> fp
  | None ->
      let fp = Fingerprint.cind_set t.s_sigma.Sigma.ncinds in
      t.s_fp_cinds <- Some fp;
      fp

let ctx_consistent t rel cfds =
  match Hashtbl.find_opt t.s_fp_cfds_on rel with
  | Some fp -> fp
  | None ->
      let fp = Fingerprint.cfd_set cfds in
      Hashtbl.replace t.s_fp_cfds_on rel fp;
      fp

(* Edits mutated Σ: every derived fingerprint memo is stale. *)
let dirty_cind_fps t =
  t.s_fp_sigma <- None;
  t.s_fp_cinds <- None

let dirty_cfd_fps t rel =
  t.s_fp_sigma <- None;
  Hashtbl.remove t.s_fp_cfds_on rel

let gen t rel = Option.value ~default:0 (Hashtbl.find_opt t.s_gens rel)

(* Context of one dependency's [holds] entry: the generation vector of
   the relations that dependency reads. *)
let ctx_dep_holds t rels =
  List.fold_left
    (fun h r -> Fingerprint.add_int (Fingerprint.add_fp h (Fingerprint.rel r)) (gen t r))
    Fingerprint.empty rels

(* Per-query rng: seeded from (session seed, kind, target, context), so
   it is stable exactly as long as the cache entry survives — a cached
   verdict and its from-scratch recomputation see the same stream. *)
let rng_for t kind target ctx =
  Rng.make
    (Int64.to_int
       (Fingerprint.add_int
          (Fingerprint.add_fp
             (Fingerprint.add_fp
                (Fingerprint.add_int Fingerprint.empty t.s_seed)
                target)
             ctx)
          kind))

(* --- structural target comparison (collision guard) ---------------- *)

let sigma_equal (a : Sigma.nf) (b : Sigma.nf) =
  List.length a.Sigma.ncfds = List.length b.Sigma.ncfds
  && List.length a.Sigma.ncinds = List.length b.Sigma.ncinds
  && List.for_all2 Cfd.nf_equal a.Sigma.ncfds b.Sigma.ncfds
  && List.for_all2 Cind.nf_equal a.Sigma.ncinds b.Sigma.ncinds

(* --- cache primitives ----------------------------------------------- *)

let lookup t kind target_fp ~ctx ~same_target =
  if not t.s_cache_on then None
  else
    match Hashtbl.find_opt t.s_cache (kind, target_fp) with
    | Some e when Fingerprint.equal e.e_context ctx && same_target e.e_target ->
        t.s_hits <- t.s_hits + 1;
        Telemetry.incr m_hits;
        Some e.e_stored
    | _ ->
        t.s_misses <- t.s_misses + 1;
        Telemetry.incr m_misses;
        None

(* Only verdicts deterministic under replay may be cached: the paper's
   own K / K_CFD / max_states give-ups re-run identically, but a
   deadline, memory ceiling or injected fault would not. *)
let cacheable = function
  | S_verdict (Cind_api.Unknown r) -> (
      match r with
      | Guard.Fuel -> true
      | Guard.Deadline | Guard.Memory | Guard.Fault _ -> false)
  | S_verdict (Cind_api.Yes _ | Cind_api.No) | S_bool _ -> true

let tbl_of_list xs =
  let h = Hashtbl.create (max 4 (List.length xs)) in
  List.iter (fun x -> Hashtbl.replace h x ()) xs;
  h

let store t kind target_fp e =
  if t.s_cache_on && cacheable e.e_stored then begin
    let key = (kind, target_fp) in
    if not (Hashtbl.mem t.s_cache key) then Atomic.incr live_entries;
    Hashtbl.replace t.s_cache key e
  end

let entry_of_recorder ~target ~stored ~ctx recorder =
  let cinds, rels =
    match recorder with
    | None -> ([], [])
    | Some r -> (Read_set.cinds r, Read_set.rels r)
  in
  {
    e_target = target;
    e_stored = stored;
    e_context = ctx;
    e_read_cinds = tbl_of_list (List.map Fingerprint.cind cinds);
    e_read_cfds = tbl_of_list [];
    e_read_rels = tbl_of_list rels;
  }

(* --- invalidation ---------------------------------------------------- *)

let note_dropped t n =
  if n > 0 then begin
    t.s_inval <- t.s_inval + n;
    Telemetry.add m_invalidations n;
    ignore (Atomic.fetch_and_add live_entries (-n))
  end

let flush t =
  note_dropped t (Hashtbl.length t.s_cache);
  Hashtbl.reset t.s_cache;
  t.s_imp <- None;
  Hashtbl.reset t.s_imp_units

let drop_where t pred =
  let doomed =
    Hashtbl.fold
      (fun ((kind, _) as key) e acc -> if pred kind e then key :: acc else acc)
      t.s_cache []
  in
  List.iter (Hashtbl.remove t.s_cache) doomed;
  note_dropped t (List.length doomed)

let refresh_implies_ctx t =
  let ctx = ctx_implies t in
  Hashtbl.iter
    (fun (kind, _) e -> if kind = kimplies then e.e_context <- ctx)
    t.s_cache

(* Edits probe the chaos site; an injected fault degrades to a full
   flush — always coherent, never escapes the edit. *)
let invalidating t f =
  if t.s_cache_on then
    match Guard.probe "incremental.invalidate" with
    | () -> f ()
    | exception Guard.Exhausted _ -> flush t

(* --- edits ----------------------------------------------------------- *)

let mem_cind t nf =
  let c = Cind.canon_nf nf in
  List.exists (fun x -> Cind.nf_equal (Cind.canon_nf x) c) t.s_sigma.Sigma.ncinds

let mem_cfd t nf = List.exists (Cfd.nf_equal nf) t.s_sigma.Sigma.ncfds

let add_cind t nf =
  if not (mem_cind t nf) then begin
    t.s_sigma <- { t.s_sigma with Sigma.ncinds = t.s_sigma.Sigma.ncinds @ [ nf ] };
    dirty_cind_fps t;
    invalidating t (fun () ->
        (* A new CIND can only change an implication search that explored
           shapes of its LHS relation (it could now be applicable there);
           [check] reads all of Σ, [consistent] reads none of the CINDs,
           and [holds] entries are per-dependency (the new CIND simply
           gets its own entry on the next [holds]). *)
        drop_where t (fun kind e ->
            kind = kcheck
            || (kind = kimplies && Hashtbl.mem e.e_read_rels nf.Cind.nf_lhs));
        refresh_implies_ctx t)
  end

let remove_cind t nf =
  if mem_cind t nf then begin
    let c = Cind.canon_nf nf in
    let removed = ref false in
    t.s_sigma <-
      {
        t.s_sigma with
        Sigma.ncinds =
          List.filter
            (fun x ->
              if (not !removed) && Cind.nf_equal (Cind.canon_nf x) c then begin
                removed := true;
                false
              end
              else true)
            t.s_sigma.Sigma.ncinds;
      };
    dirty_cind_fps t;
    let fp = Fingerprint.cind nf in
    invalidating t (fun () ->
        (* Removing a CIND no derivation step found applicable changes
           neither the reachable shape set nor the budget spent — the
           precision the bench's single-edit re-check rides on. *)
        drop_where t (fun kind e ->
            kind = kcheck
            || (kind = kimplies && Hashtbl.mem e.e_read_cinds fp));
        refresh_implies_ctx t)
  end

let add_cfd t nf =
  if not (mem_cfd t nf) then begin
    t.s_sigma <- { t.s_sigma with Sigma.ncfds = t.s_sigma.Sigma.ncfds @ [ nf ] };
    dirty_cfd_fps t nf.Cfd.nf_rel;
    invalidating t (fun () ->
        drop_where t (fun kind e ->
            kind = kcheck
            || (kind = kconsistent && Hashtbl.mem e.e_read_rels nf.Cfd.nf_rel)))
  end

let remove_cfd t nf =
  if mem_cfd t nf then begin
    let removed = ref false in
    t.s_sigma <-
      {
        t.s_sigma with
        Sigma.ncfds =
          List.filter
            (fun x ->
              if (not !removed) && Cfd.nf_equal x nf then begin
                removed := true;
                false
              end
              else true)
            t.s_sigma.Sigma.ncfds;
      };
    dirty_cfd_fps t nf.Cfd.nf_rel;
    let fp = Fingerprint.cfd nf in
    invalidating t (fun () ->
        drop_where t (fun kind e ->
            kind = kcheck
            || (kind = kconsistent && Hashtbl.mem e.e_read_cfds fp)))
  end

let insert_tuples t ~rel tuples =
  if not (List.mem rel (Db_schema.rel_names t.s_schema)) then
    invalid_arg ("Cind_session.insert_tuples: unknown relation " ^ rel);
  if tuples <> [] then begin
    t.s_db <-
      List.fold_left (fun db tp -> Database.add_tuple db rel tp) t.s_db tuples;
    Hashtbl.replace t.s_gens rel (gen t rel + 1);
    invalidating t (fun () ->
        (* Only [holds] reads the database; entries over relations the
           edit didn't touch keep their generation vector valid. *)
        drop_where t (fun kind e ->
            kind = kholds && Hashtbl.mem e.e_read_rels rel))
  end

(* --- queries ---------------------------------------------------------- *)

let as_verdict = function S_verdict v -> v | S_bool _ -> assert false

let check t =
  let fps = fp_sigma t in
  let same_target = function
    | T_sigma s -> sigma_equal s t.s_sigma
    | _ -> false
  in
  match lookup t kcheck fps ~ctx:fps ~same_target with
  | Some s -> as_verdict s
  | None ->
      let rng = rng_for t kcheck fps fps in
      let v =
        Cind_api.check ~backend:t.s_backend ?k:t.s_k ?k_cfd:t.s_k_cfd ~rng
          t.s_schema t.s_sigma
      in
      (* no read set: every Σ edit drops [check] entries unconditionally,
         and inserts drop only [holds] entries *)
      store t kcheck fps
        (entry_of_recorder ~target:(T_sigma t.s_sigma) ~stored:(S_verdict v)
           ~ctx:fps None);
      v

let consistent t ~rel =
  let cfds = Sigma.cfds_on t.s_sigma rel in
  let tfp = Fingerprint.rel rel in
  let ctx = ctx_consistent t rel cfds in
  let same_target = function T_rel r -> String.equal r rel | _ -> false in
  match lookup t kconsistent tfp ~ctx ~same_target with
  | Some s -> as_verdict s
  | None ->
      let rng = rng_for t kconsistent tfp ctx in
      let v =
        Cind_api.consistent ~backend:t.s_backend ?k_cfd:t.s_k_cfd ~rng
          t.s_schema cfds ~rel
      in
      (* [consistent] reads exactly [rel] and CFD(rel) — no recorder
         needed, the read set is syntactic. *)
      let e =
        {
          e_target = T_rel rel;
          e_stored = S_verdict v;
          e_context = ctx;
          e_read_cinds = tbl_of_list [];
          e_read_cfds = tbl_of_list (List.map Fingerprint.cfd cfds);
          e_read_rels = tbl_of_list [ rel ];
        }
      in
      store t kconsistent tfp e;
      v

(* Warm-started compiled Σ for the implication procedure, keyed by the
   CIND-set fingerprint; compilation order matches [Implication.decide]. *)
let warm_implication t ctx =
  match t.s_imp with
  | Some (fp, compiled) when t.s_cache_on && Fingerprint.equal fp ctx ->
      compiled
  | _ ->
      let compile_one nf =
        let nf = Cind.canon_nf nf in
        if not t.s_cache_on then Implication.compile t.s_schema nf
        else
          let fp = Fingerprint.cind nf in
          match Hashtbl.find_opt t.s_imp_units fp with
          | Some (stored_nf, compiled) when Cind.nf_equal stored_nf nf ->
              compiled
          | _ ->
              let compiled = Implication.compile t.s_schema nf in
              Hashtbl.replace t.s_imp_units fp (nf, compiled);
              compiled
      in
      let compiled = List.map compile_one t.s_sigma.Sigma.ncinds in
      if t.s_cache_on then t.s_imp <- Some (ctx, compiled);
      compiled

let implies t psi =
  let psi = Cind.canon_nf psi in
  let tfp = Fingerprint.cind psi in
  let ctx = ctx_implies t in
  let same_target = function T_psi p -> Cind.nf_equal p psi | _ -> false in
  match lookup t kimplies tfp ~ctx ~same_target with
  | Some s -> as_verdict s
  | None ->
      let recorder = if t.s_cache_on then Some (Read_set.create ()) else None in
      let compiled = warm_implication t ctx in
      let v =
        match
          Implication.decide_compiled ?max_states:t.s_max_states ?recorder
            t.s_schema compiled psi
        with
        | Implication.Implied -> Cind_api.Yes None
        | Implication.Not_implied -> Cind_api.No
        | Implication.Undetermined r -> Cind_api.Unknown r
      in
      store t kimplies tfp
        (entry_of_recorder ~target:(T_psi psi) ~stored:(S_verdict v) ~ctx
           recorder);
      v

(* [Sigma.nf_holds] is a pure conjunction over the dependencies, so it
   caches per dependency: the entry for one CFD/CIND reads only that
   dependency's relations (its generation vector is the context) and no
   other part of Σ — a Σ edit leaves every existing [holds] entry valid,
   and an insert dirties only the dependencies over that relation. *)

let as_bool = function S_bool b -> b | S_verdict _ -> assert false

let cfd_holds t (f : Cfd.nf) =
  let tfp = Fingerprint.cfd f in
  let ctx = ctx_dep_holds t [ f.Cfd.nf_rel ] in
  let same_target = function T_cfd g -> Cfd.nf_equal g f | _ -> false in
  match lookup t kholds tfp ~ctx ~same_target with
  | Some s -> as_bool s
  | None ->
      let b = Cfd.nf_holds t.s_db f in
      store t kholds tfp
        {
          e_target = T_cfd f;
          e_stored = S_bool b;
          e_context = ctx;
          e_read_cinds = tbl_of_list [];
          e_read_cfds = tbl_of_list [ tfp ];
          e_read_rels = tbl_of_list [ f.Cfd.nf_rel ];
        };
      b

let cind_holds t (c : Cind.nf) =
  let tfp = Fingerprint.cind c in
  let ctx = ctx_dep_holds t [ c.Cind.nf_lhs; c.Cind.nf_rhs ] in
  let same_target = function T_psi p -> Cind.nf_equal p c | _ -> false in
  match lookup t kholds tfp ~ctx ~same_target with
  | Some s -> as_bool s
  | None ->
      let b = Cind.nf_holds t.s_db c in
      store t kholds tfp
        {
          e_target = T_psi c;
          e_stored = S_bool b;
          e_context = ctx;
          e_read_cinds = tbl_of_list [ tfp ];
          e_read_cfds = tbl_of_list [];
          e_read_rels = tbl_of_list [ c.Cind.nf_lhs; c.Cind.nf_rhs ];
        };
      b

let holds t =
  (* same conjunction order as [Sigma.nf_holds] *)
  List.for_all (cfd_holds t) t.s_sigma.Sigma.ncfds
  && List.for_all (cind_holds t) t.s_sigma.Sigma.ncinds

(* --- introspection ---------------------------------------------------- *)

type stats = { hits : int; misses : int; invalidations : int; entries : int }

let stats t =
  {
    hits = t.s_hits;
    misses = t.s_misses;
    invalidations = t.s_inval;
    entries = Hashtbl.length t.s_cache;
  }
