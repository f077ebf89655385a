open Conddep_relational
open Conddep_core
open Conddep_chase

(* The dependency graph G[Σ] of Section 5.3, mutated by preProcessing
   (extended CFD sets, deleted vertices).  Vertices are relation positions
   ([Db_schema.find_indexed]), so every per-relation table is an array, and
   an edge Ri -> Rj is the CINDs of Σ from Ri to Rj.  [make] files each
   constraint under its positions, once; a constraint is compiled for the
   chase when first needed (the SAT backend's preProcessing compiles
   nothing) and kept, so preProcessing and RandomChecking share one
   compilation.  Orders come from the input: vertices and components follow
   schema declaration order, successors, predecessors and edge labels Σ. *)

type cind = {
  nf : Cind.nf;
  src : int;
  dst : int;
  mutable compiled : Chase.compiled_cind option;
}

type t = {
  schema : Db_schema.t;
  order : int list; (* positions in declaration order *)
  cfds : Cfd.nf list array;
  compiled : Chase.compiled_cfd list option array;
  pushed : Cfd.nf list array; (* the CFDs pushed to a vertex, newest first *)
  live : bool array;
  cinds : cind list; (* Σ order *)
  out_cinds : cind list array; (* Σ order *)
  in_cinds : cind list array; (* Σ order *)
}

let make schema (sigma : Sigma.nf) =
  Telemetry.with_span "checking.depgraph.build" @@ fun () ->
  let n = Db_schema.cardinal schema in
  let pos rel = snd (Db_schema.find_indexed schema rel) in
  let cfds = Array.make n [] and out_cinds = Array.make n [] and in_cinds = Array.make n [] in
  List.iter
    (fun (c : Cfd.nf) ->
      let i = pos c.nf_rel in
      cfds.(i) <- c :: cfds.(i))
    (List.rev sigma.Sigma.ncfds);
  let cinds =
    List.map
      (fun (nf : Cind.nf) -> { nf; src = pos nf.nf_lhs; dst = pos nf.nf_rhs; compiled = None })
      sigma.ncinds
  in
  List.iter
    (fun c ->
      out_cinds.(c.src) <- c :: out_cinds.(c.src);
      in_cinds.(c.dst) <- c :: in_cinds.(c.dst))
    (List.rev cinds);
  {
    schema;
    order = List.map (fun r -> pos (Schema.name r)) (Db_schema.relations schema);
    cfds;
    compiled = Array.make n None;
    pushed = Array.make n [];
    live = Array.make n true;
    cinds;
    out_cinds;
    in_cinds;
  }

let live g = List.filter (fun r -> g.live.(r)) g.order
let is_live g r = g.live.(r)
let remove g r = g.live.(r) <- false
let cfds g r = g.cfds.(r)

let compiled_cfds g r =
  match g.compiled.(r) with
  | Some l -> l
  | None ->
      let l = List.map (Chase.compile_cfd g.schema) g.cfds.(r) in
      g.compiled.(r) <- Some l;
      l

let push_cfds g r extra =
  g.cfds.(r) <- extra @ g.cfds.(r);
  g.pushed.(r) <- extra @ g.pushed.(r);
  Option.iter
    (fun l -> g.compiled.(r) <- Some (List.map (Chase.compile_cfd g.schema) extra @ l))
    g.compiled.(r)

let compiled_cind g (c : cind) =
  match c.compiled with
  | Some k -> k
  | None ->
      let k = Chase.compile_cind g.schema c.nf in
      c.compiled <- Some k;
      k

let triggers g r tau = List.exists (fun c -> Chase.triggers (compiled_cind g c) tau) g.out_cinds.(r)

(* The live vertices [f c] of [cinds], each once, in order of first
   appearance. *)
let ends g f cinds =
  List.rev
    (List.fold_left
       (fun acc c ->
         let v = f c in
         if g.live.(v) && not (List.mem v acc) then v :: acc else acc)
       [] cinds)

let predecessors g r =
  List.map
    (fun s -> (s, List.filter_map (fun c -> if c.src = s then Some c.nf else None) g.in_cinds.(r)))
    (ends g (fun c -> c.src) g.in_cinds.(r))

(* Tarjan's strongly-connected-components algorithm.  SCCs are emitted in
   reverse topological order of the condensation: every SCC appears after
   all SCCs it reaches — i.e. targets first, which is exactly the
   processing order Fig 7 wants (Rj precedes Ri when there is an edge
   Ri -> Rj; vertices on a cycle in arbitrary order). *)
let sccs g =
  Telemetry.with_span "checking.depgraph.sccs" @@ fun () ->
  let n = Array.length g.live in
  let index = Array.make n (-1) and lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (ends g (fun c -> c.dst) g.out_cinds.(v));
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun v -> if index.(v) < 0 then strongconnect v) (live g);
  List.rev !components

type component = { members : string list; compiled : Chase.compiled; avoid : Value.t list }

(* Weakly connected components of the live graph, by union-find over the
   CINDs between live vertices, each with its extended CFD sets and the
   CINDs inside it. *)
let components g ~avoid =
  let parent = Array.init (Array.length g.live) Fun.id in
  let rec find r =
    if parent.(r) = r then r
    else begin
      let root = find parent.(r) in
      parent.(r) <- root;
      root
    end
  in
  let inside = List.filter (fun c -> g.live.(c.src) && g.live.(c.dst)) g.cinds in
  List.iter
    (fun c ->
      let a = find c.src and b = find c.dst in
      if a <> b then parent.(a) <- b)
    inside;
  let live = live g in
  (* one component per root, in schema order of its first member *)
  let roots =
    List.fold_left (fun roots v -> if List.mem (find v) roots then roots else find v :: roots) [] live
  in
  List.rev_map
    (fun root ->
      let members = List.filter (fun v -> find v = root) live in
      let cinds = List.filter (fun c -> find c.src = root) inside in
      {
        members = List.map (Db_schema.name_at g.schema) members;
        compiled =
          {
            Chase.cfds = List.concat_map (compiled_cfds g) members;
            cinds = List.map (compiled_cind g) cinds;
          };
        avoid =
          List.concat_map (fun v -> List.concat_map Cfd.nf_constants g.pushed.(v)) members
          |> List.map snd |> List.rev_append avoid |> List.sort_uniq Value.compare;
      })
    roots
