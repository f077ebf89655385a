(** A stub left for the benchmark's per-layer reading
    [relational.interner_values].  Values and names are compared
    directly, so nothing is interned and the count is always 0.  Delete
    this module with that reading. *)

val value_count : unit -> int
(** Always 0. *)
