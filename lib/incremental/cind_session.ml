open Conddep_relational
open Conddep_core

(* Cache coherence in one sentence: a hit answers exactly what the
   one-shot [Cind_api] call answers on the current session state.  Every
   query draws its randomness from [Rng.make seed], as that call does, so
   coherence reduces to two rules: an edit drops every entry whose read
   set it touches, and an answer the caller's budget cut short is never
   stored. *)

let m_hits = Telemetry.counter "incremental.hits" ~doc:"session queries answered from the verdict cache"
let m_misses = Telemetry.counter "incremental.misses" ~doc:"session queries recomputed (cold, dirtied, or uncacheable)"
let m_invalidations = Telemetry.counter "incremental.invalidations" ~doc:"cache entries dropped by edit invalidation"

(* Live entries across every session in the process; sessions come and
   go with their caches, so the gauge reads a shared count maintained on
   insert/drop rather than walking session objects. *)
let live_entries = ref 0

let () =
  Telemetry.register_gauge "incremental.cache_entries"
    ~doc:"live verdict-cache entries across all incremental sessions"
    (fun () -> !live_entries)

(* The cache key is the query itself.  Dependencies are keyed unnamed,
   CINDs also canonical, so a renamed or re-ordered copy shares the
   entry.  [holds] is a pure conjunction and caches per dependency. *)
type key =
  | Check
  | Consistent of string
  | Implies of Cind.nf
  | Holds_cfd of Cfd.nf
  | Holds_cind of Cind.nf

type answer = Verdict of Cind_api.verdict | Bool of bool

(* An answer, and for [implies] the read set its search recorded; every
   other key's read set is syntactic and follows from the key. *)
type entry = answer * Read_set.t option

type t = {
  s_schema : Db_schema.t;
  s_seed : int;
  s_backend : Cind_api.backend;
  mutable s_sigma : Sigma.nf;
  mutable s_compiled : Implication.compiled list;
      (* Σ's CINDs compiled in key form, in Σ order *)
  mutable s_db : Database.t;
  s_cache : (key, entry) Hashtbl.t;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_inval : int;
}

let create ?(backend = Cind_api.Chase_backend) ~seed schema =
  {
    s_schema = schema;
    s_seed = seed;
    s_backend = backend;
    s_sigma = { Sigma.ncfds = []; ncinds = [] };
    s_compiled = [];
    s_db = Database.empty schema;
    s_cache = Hashtbl.create 64;
    s_hits = 0;
    s_misses = 0;
    s_inval = 0;
  }

let schema t = t.s_schema
let sigma t = t.s_sigma
let database t = t.s_db
let cind_key nf = { (Cind.canon_nf nf) with Cind.nf_name = "" }
let cfd_key nf = { nf with Cfd.nf_name = "" }

let require_rel t fn rel =
  if not (Db_schema.mem t.s_schema rel) then
    invalid_arg (Printf.sprintf "Cind_session.%s: unknown relation %S" fn rel)

(* --- cache primitives ----------------------------------------------- *)

(* Only answers deterministic under replay may be cached: the paper's
   own K / K_CFD / max_states give-ups re-run identically, but a run the
   caller's budget cut short would not.  [Unknown Fuel] is the query's
   own cap only while the ambient budget is unspent after the query. *)
let cacheable = function
  | Verdict (Cind_api.Unknown Guard.Fuel) -> Guard.state (Guard.ambient ()) = None
  | Verdict (Cind_api.Unknown Guard.Deadline) -> false
  | Verdict (Cind_api.Yes _ | Cind_api.No) | Bool _ -> true

let cached t key compute =
  match Hashtbl.find_opt t.s_cache key with
  | Some (answer, _) ->
      t.s_hits <- t.s_hits + 1;
      Telemetry.incr m_hits;
      answer
  | None ->
      t.s_misses <- t.s_misses + 1;
      Telemetry.incr m_misses;
      let ((answer, _) as e) = compute () in
      if cacheable answer then begin
        Hashtbl.replace t.s_cache key e;
        incr live_entries
      end;
      answer

let drop_where t stale =
  let doomed =
    Hashtbl.fold
      (fun key (_, read) acc -> if stale key read then key :: acc else acc)
      t.s_cache []
  in
  List.iter (Hashtbl.remove t.s_cache) doomed;
  let n = List.length doomed in
  if n > 0 then begin
    t.s_inval <- t.s_inval + n;
    Telemetry.add m_invalidations n;
    live_entries := !live_entries - n
  end

(* --- edits ----------------------------------------------------------- *)

let without i xs = List.filteri (fun j _ -> j <> i) xs

(* The position in Σ of the CIND with key [k]. *)
let cind_index t k =
  List.find_index (fun x -> Cind.nf_equal (Cind.canon_nf x) k) t.s_sigma.Sigma.ncinds

let cfd_index t nf = List.find_index (Cfd.nf_equal nf) t.s_sigma.Sigma.ncfds

let add_cind t nf =
  let k = cind_key nf in
  if cind_index t k = None then begin
    t.s_sigma <- { t.s_sigma with Sigma.ncinds = t.s_sigma.Sigma.ncinds @ [ nf ] };
    t.s_compiled <- t.s_compiled @ [ Implication.compile t.s_schema k ];
    (* A new CIND can only change an implication search that explored
       shapes of its LHS relation (it could now be applicable there);
       [check] reads all of Σ, [consistent] reads none of the CINDs, and
       the new CIND's [holds] key is simply missing until asked. *)
    drop_where t (fun key read ->
        match (key, read) with
        | Check, _ -> true
        | Implies _, Some r -> Read_set.mem_rel r nf.Cind.nf_lhs
        | _ -> false)
  end

let remove_cind t nf =
  let k = cind_key nf in
  match cind_index t k with
  | None -> ()
  | Some i ->
      t.s_sigma <- { t.s_sigma with Sigma.ncinds = without i t.s_sigma.Sigma.ncinds };
      t.s_compiled <- without i t.s_compiled;
      (* Removing a CIND no derivation step found applicable changes
         neither the reachable shape set nor the budget spent — the
         precision the single-edit re-check rides on. *)
      drop_where t (fun key read ->
          match (key, read) with
          | Check, _ -> true
          | Implies _, Some r -> Read_set.mem_cind r k
          | _ -> false)

(* [consistent rel] reads exactly CFD(rel). *)
let cfd_edited t (nf : Cfd.nf) =
  drop_where t (fun key _ ->
      match key with
      | Check -> true
      | Consistent rel -> String.equal rel nf.Cfd.nf_rel
      | _ -> false)

let add_cfd t nf =
  if cfd_index t nf = None then begin
    t.s_sigma <- { t.s_sigma with Sigma.ncfds = t.s_sigma.Sigma.ncfds @ [ nf ] };
    cfd_edited t nf
  end

let remove_cfd t nf =
  match cfd_index t nf with
  | None -> ()
  | Some i ->
      t.s_sigma <- { t.s_sigma with Sigma.ncfds = without i t.s_sigma.Sigma.ncfds };
      cfd_edited t nf

let insert_tuples t ~rel tuples =
  require_rel t "insert_tuples" rel;
  if tuples <> [] then begin
    t.s_db <-
      List.fold_left (fun db tp -> Database.add_tuple db rel tp) t.s_db tuples;
    (* Only [holds] reads the database. *)
    drop_where t (fun key _ ->
        match key with
        | Holds_cfd f -> String.equal f.Cfd.nf_rel rel
        | Holds_cind c -> String.equal c.Cind.nf_lhs rel || String.equal c.Cind.nf_rhs rel
        | _ -> false)
  end

(* --- queries ---------------------------------------------------------- *)

let verdict = function Verdict v -> v | Bool _ -> assert false
let bool = function Bool b -> b | Verdict _ -> assert false

let check t =
  verdict
    (cached t Check (fun () ->
         ( Verdict
             (Cind_api.check ~backend:t.s_backend ~rng:(Rng.make t.s_seed)
                t.s_schema t.s_sigma),
           None )))

let consistent t ~rel =
  require_rel t "consistent" rel;
  verdict
    (cached t (Consistent rel) (fun () ->
         ( Verdict
             (Cind_api.consistent ~backend:t.s_backend ~rng:(Rng.make t.s_seed)
                t.s_schema
                (Sigma.cfds_on t.s_sigma rel)
                ~rel),
           None )))

let implies t psi =
  let psi = cind_key psi in
  verdict
    (cached t (Implies psi) (fun () ->
         let read = Read_set.create () in
         let v =
           match
             Implication.decide_compiled ~recorder:read t.s_schema t.s_compiled psi
           with
           | Implication.Implied -> Cind_api.Yes None
           | Implication.Not_implied -> Cind_api.No
           | Implication.Undetermined r -> Cind_api.Unknown r
         in
         (Verdict v, Some read)))

let holds t =
  let dep key holds = bool (cached t key (fun () -> (Bool (holds ()), None))) in
  (* same conjunction order as [Sigma.nf_holds] *)
  List.for_all
    (fun f -> dep (Holds_cfd (cfd_key f)) (fun () -> Cfd.nf_holds t.s_db f))
    t.s_sigma.Sigma.ncfds
  && List.for_all
       (fun c -> dep (Holds_cind (cind_key c)) (fun () -> Cind.nf_holds t.s_db c))
       t.s_sigma.Sigma.ncinds

(* --- introspection ---------------------------------------------------- *)

type stats = { hits : int; misses : int; invalidations : int; entries : int }

let stats t =
  {
    hits = t.s_hits;
    misses = t.s_misses;
    invalidations = t.s_inval;
    entries = Hashtbl.length t.s_cache;
  }
