(* Minimal CSV reader/writer used by the examples to ship datasets as plain
   files.  Supports double-quoted fields with doubled-quote escapes. *)

(* [Error col] reports the 1-based column of the quote that was never
   closed, so parse errors can point at the offending character. *)
let split_line line =
  let buf = Buffer.create 16 in
  let fields = ref [] in
  let n = String.length line in
  let rec plain i =
    if i >= n then finish i
    else
      match line.[i] with
      | ',' ->
          fields := Buffer.contents buf :: !fields;
          Buffer.clear buf;
          plain (i + 1)
      | '"' when Buffer.length buf = 0 -> quoted i (i + 1)
      | c ->
          Buffer.add_char buf c;
          plain (i + 1)
  and quoted opened i =
    if i >= n then Error (opened + 1)
    else
      match line.[i] with
      | '"' when i + 1 < n && line.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          quoted opened (i + 2)
      | '"' -> plain (i + 1)
      | c ->
          Buffer.add_char buf c;
          quoted opened (i + 1)
  and finish _ =
    fields := Buffer.contents buf :: !fields;
    Ok (List.rev !fields)
  in
  plain 0

let coerce domain raw =
  let v =
    match domain with
    | Domain.Infinite Domain.Dint | Domain.Finite { values = Value.Int _ :: _; _ } -> (
        match int_of_string_opt raw with Some i -> Value.Int i | None -> Value.Str raw)
    | Domain.Finite { values = Value.Bool _ :: _; _ } -> (
        match bool_of_string_opt raw with Some b -> Value.Bool b | None -> Value.Str raw)
    | Domain.Infinite Domain.Dstring | Domain.Finite _ -> Value.Str raw
  in
  if Domain.mem domain v then Ok v
  else Error (Fmt.str "value %S outside domain %a" raw Domain.pp domain)

let parse_string schema contents =
  (* physical line numbers: blank and '#' lines are skipped but counted *)
  let lines =
    String.split_on_char '\n' contents
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  let arity = Schema.arity schema in
  let parse_line lineno line =
    match split_line line with
    | Error col ->
        Error
          (Printf.sprintf "line %d, column %d: unterminated quoted field" lineno col)
    | Ok fields ->
        if List.length fields <> arity then
          Error
            (Printf.sprintf "line %d: expected %d fields, got %d" lineno arity
               (List.length fields))
        else
          let rec coerce_all i acc = function
            | [] -> Ok (Tuple.make (List.rev acc))
            | raw :: rest -> (
                match coerce (Attribute.domain (Schema.attr schema i)) raw with
                | Ok v -> coerce_all (i + 1) (v :: acc) rest
                | Error e ->
                    Error (Printf.sprintf "line %d, field %d: %s" lineno (i + 1) e))
          in
          coerce_all 0 [] fields
  in
  let rec go acc = function
    | [] -> Ok (Relation.of_list schema (List.rev acc))
    | (lineno, line) :: rest -> (
        match parse_line lineno line with
        | Ok t -> go (t :: acc) rest
        | Error e -> Error e)
  in
  go [] lines

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg ->
      (* an open failure names the path, a read failure does not *)
      let prefix = path ^ ": " in
      if String.starts_with ~prefix msg then
        Error (String.sub msg (String.length prefix) (String.length msg - String.length prefix))
      else Error msg

let load schema path = Result.bind (read_file path) (parse_string schema)

let field_to_string = function
  | Value.Int i -> string_of_int i
  | Value.Bool b -> string_of_bool b
  | Value.Str s ->
      if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
        "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
      else s

let to_string rel =
  let buf = Buffer.create 256 in
  Relation.iter
    (fun t ->
      Buffer.add_string buf
        (String.concat "," (List.map field_to_string (Tuple.to_list t)));
      Buffer.add_char buf '\n')
    rel;
  Buffer.contents buf
