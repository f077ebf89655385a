open Conddep_relational
open Conddep_core

(* The dependency graph G[Σ] of Section 5.3: one vertex per relation,
   carrying CFD(R); an edge Ri -> Rj for each nonempty CIND(Ri, Rj).
   preProcessing mutates the graph (extends CFD sets, deletes vertices), so
   the structure is imperative.

   Every order is fixed by the input: vertices and components follow the
   schema, successors and predecessors follow Σ (the position of the first
   CIND on each edge), so traversals do not depend on hashing. *)

type t = {
  schema : Db_schema.t;
  cfds : (string, Cfd.nf list) Hashtbl.t;
  all_cinds : Cind.nf list;
  edge_labels : (string * string, Cind.nf list) Hashtbl.t; (* src, dst *)
  edge_list : (string * string) list; (* Σ order of each edge's first CIND *)
  mutable live : string list; (* schema order *)
}

let make schema (sigma : Sigma.nf) =
  Telemetry.with_span "checking.depgraph.build" @@ fun () ->
  let cfds = Hashtbl.create 16 in
  let rels = Db_schema.rel_names schema in
  List.iter
    (fun r ->
      Hashtbl.replace cfds r
        (List.filter (fun c -> String.equal c.Cfd.nf_rel r) sigma.Sigma.ncfds))
    rels;
  let edge_labels = Hashtbl.create 64 in
  let edge_list =
    List.fold_left
      (fun edge_list (c : Cind.nf) ->
        let key = (c.Cind.nf_lhs, c.nf_rhs) in
        match Hashtbl.find_opt edge_labels key with
        | Some cinds ->
            Hashtbl.replace edge_labels key (c :: cinds);
            edge_list
        | None ->
            Hashtbl.replace edge_labels key [ c ];
            key :: edge_list)
      [] sigma.ncinds
    |> List.rev
  in
  { schema; cfds; all_cinds = sigma.Sigma.ncinds; edge_labels; edge_list; live = rels }

let schema t = t.schema
let live t = t.live
let is_live t r = List.mem r t.live

let cfd_set t r = match Hashtbl.find_opt t.cfds r with Some l -> l | None -> []

let add_cfds t r extra = Hashtbl.replace t.cfds r (extra @ cfd_set t r)

let remove t r = t.live <- List.filter (fun x -> not (String.equal x r)) t.live

(* CINDs of Σ between two live vertices — the edge label CIND(Ri, Rj). *)
let cinds_between t ~src ~dst =
  Option.value ~default:[] (Hashtbl.find_opt t.edge_labels (src, dst))

let successors t r =
  List.filter_map
    (fun (s, d) -> if String.equal s r && is_live t d then Some d else None)
    t.edge_list

let predecessors t r =
  List.filter_map
    (fun (s, d) -> if String.equal d r && is_live t s then Some s else None)
    t.edge_list

let indegree t r = List.length (predecessors t r)

let edges t = List.concat_map (fun s -> List.map (fun d -> (s, d)) (successors t s)) t.live

(* Tarjan's strongly-connected-components algorithm.  SCCs are emitted in
   reverse topological order of the condensation: every SCC appears after
   all SCCs it reaches — i.e. targets first, which is exactly the
   processing order Fig 7 wants (Rj precedes Ri when there is an edge
   Ri -> Rj; vertices on a cycle in arbitrary order). *)
let sccs t =
  Telemetry.with_span "checking.depgraph.sccs" @@ fun () ->
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.find_opt on_stack w = Some true then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (successors t v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.replace on_stack w false;
            if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) t.live;
  List.rev !components

(* Topological processing order for Fig 7: flatten the SCCs in Tarjan's
   emission order (reverse topological on the condensation). *)
let topo_order t = List.concat (sccs t)

(* Weakly connected components of the live graph — the components Checking
   (Fig 9) analyses independently. *)
let weak_components t =
  let parent = Hashtbl.create 16 in
  let rec find r =
    match Hashtbl.find_opt parent r with
    | Some p when p <> r ->
        let root = find p in
        Hashtbl.replace parent r root;
        root
    | _ -> r
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  List.iter (fun r -> Hashtbl.replace parent r r) t.live;
  List.iter (fun (s, d) -> union s d) (edges t);
  (* one component per root, in schema order of its first member *)
  let roots =
    List.fold_left
      (fun roots r ->
        let root = find r in
        if List.mem root roots then roots else root :: roots)
      [] t.live
  in
  List.rev_map (fun root -> List.filter (fun r -> find r = root) t.live) roots

(* The constraints over one component: its (extended) CFD sets plus the
   CINDs both of whose endpoints lie inside. *)
let component_sigma t members =
  {
    Sigma.ncfds = List.concat_map (cfd_set t) members;
    ncinds =
      List.filter
        (fun c -> List.mem c.Cind.nf_lhs members && List.mem c.nf_rhs members)
        t.all_cinds;
  }

let pp ppf t =
  Fmt.pf ppf "@[<v>vertices: %a@,edges: %a@]"
    Fmt.(list ~sep:comma string)
    (live t)
    Fmt.(list ~sep:comma (pair ~sep:(any "->") string string))
    (edges t)
