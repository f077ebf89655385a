open Conddep_relational
open Conddep_core

(** The dependency graph G\[Σ\] of Section 5.3: vertices are relations
    (carrying their CFD sets and tuple templates), edges carry the CIND
    sets between relations.  Mutated in place by preProcessing. *)

type t

val make : Db_schema.t -> Sigma.nf -> t

val live : t -> string list
(** Vertices not yet deleted. *)

val is_live : t -> string -> bool

val cfd_set : t -> string -> Cfd.nf list
(** The current (possibly extended) CFD(R). *)

val add_cfds : t -> string -> Cfd.nf list -> unit
(** Extend CFD(R), e.g. with the non-triggering CFDs CIND(Rj, R)⊥. *)

val remove : t -> string -> unit

val cinds_between : t -> src:string -> dst:string -> Cind.nf list
(** The edge label CIND(src, dst), on live vertices. *)

val successors : t -> string -> string list
val predecessors : t -> string -> string list
val indegree : t -> string -> int
val edges : t -> (string * string) list

val sccs : t -> string list list
(** Tarjan's strongly connected components, emitted targets-first (reverse
    topological order of the condensation). *)

val weak_components : t -> string list list
(** Weakly connected components — the units Checking analyses separately. *)

val component_sigma : t -> string list -> Sigma.nf
(** Extended CFDs of the members plus CINDs internal to the component. *)
