(** Minimal CSV import/export for relation instances.

    Field values are coerced according to the schema's attribute domains;
    lines starting with ['#'] and blank lines are skipped.  Double-quoted
    fields support doubled-quote escapes. *)

val split_line : string -> (string list, int) result
(** Split one CSV line into fields; [Error col] is the 1-based column of an
    unterminated opening quote. *)

val parse_string : Schema.t -> string -> (Relation.t, string) result
(** Errors carry physical [line %d] (and, for quoting errors,
    [column %d]) positions into the input. *)

val read_file : string -> (string, string) result
(** The whole contents of a file.  [Error] carries the system's reason
    without the path (e.g. ["No such file or directory"], ["Is a
    directory"]), so the caller names the path once. *)

val load : Schema.t -> string -> (Relation.t, string) result
(** {!read_file}, then {!parse_string}. *)

val to_string : Relation.t -> string
