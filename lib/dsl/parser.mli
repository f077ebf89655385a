open Conddep_relational
open Conddep_core

(** Recursive-descent parser for the constraint DSL (see [data/bank.cind]
    for a complete example: schemas, CINDs, CFDs and instances). *)

type document = {
  schema : Db_schema.t;
  sigma : Sigma.t;
  instances : (string * Tuple.t list) list;
}

exception Parse_error of string

val parse : string -> (document, string) result
(** Parse and validate a document (constraints are checked against the
    declared schemas; instance relation names must exist). *)

val parse_file : string -> (document, string) result
(** {!parse} on a file's contents; an unreadable file is an [Error] with
    the reason ({!Csv.read_file}). *)

val database : document -> (Database.t, string) result
(** Materialize the declared instances (tuples are type-checked here). *)
