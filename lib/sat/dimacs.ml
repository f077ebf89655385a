(* DIMACS CNF reader/printer, for interoperability and golden tests.
   Every parse error names its 1-based line, as the DSL's do. *)

(* DIMACS separates tokens by any whitespace: blanks or tabs. *)
let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse contents =
  let num_vars = ref (-1) in
  (* literals carry the line they were read on, so a range error found
     after the whole file is read can still be located *)
  let clauses = ref [] in
  let current = ref [] in
  let current_line = ref 0 in
  let first_clause_line = ref 0 in
  let error line fmt = Printf.ksprintf (fun s -> Error (Printf.sprintf "line %d: %s" line s)) fmt in
  let finish () =
    let clauses = List.rev !clauses in
    if !current <> [] then error !current_line "unterminated clause (missing trailing 0)"
    else if !num_vars < 0 then error (max 1 !first_clause_line) "missing problem line"
    else
      match
        List.find_map
          (List.find_opt (fun (l, _) -> abs l > !num_vars))
          clauses
      with
      | Some (l, line) ->
          error line "literal %d out of range (the problem line declares %d variable%s)" l
            !num_vars (if !num_vars = 1 then "" else "s")
      | None -> Ok (Cnf.make ~num_vars:!num_vars (List.map (List.map fst) clauses))
  in
  let rec process lineno = function
    | [] -> finish ()
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = 'c' then process (lineno + 1) rest
        else if line.[0] = 'p' then begin
          match tokens line with
          | [ "p"; "cnf"; nv; _nc ] -> (
              match int_of_string_opt nv with
              | Some n when n >= 0 ->
                  num_vars := n;
                  process (lineno + 1) rest
              | _ -> error lineno "malformed problem line: %s" line)
          | _ -> error lineno "malformed problem line: %s" line
        end
        else
          let rec consume = function
            | [] -> Ok ()
            | tok :: toks -> (
                if !first_clause_line = 0 then first_clause_line := lineno;
                match int_of_string_opt tok with
                | Some 0 ->
                    clauses := List.rev !current :: !clauses;
                    current := [];
                    consume toks
                | Some l ->
                    if !current = [] then current_line := lineno;
                    current := (l, lineno) :: !current;
                    consume toks
                | None -> error lineno "bad literal %S" tok)
          in
          match consume (tokens line) with Ok () -> process (lineno + 1) rest | Error _ as e -> e)
  in
  process 1 (String.split_on_char '\n' contents)

let print cnf = Fmt.str "%a@." Cnf.pp cnf
