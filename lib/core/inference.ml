open Conddep_relational

(* The inference system I of Fig 3, sound and complete for CIND implication
   (Theorem 3.3).  Proofs are explicit, machine-checkable objects: each line
   is an axiom of Σ or a rule application referencing earlier lines.

   All CINDs are kept in canonical normal form (pattern bindings sorted by
   attribute), which quotients out the Xp/Yp permutations of rule CIND2;
   CIND2 therefore only projects/permutes the X/Y portion here.  Rules
   CIND7/CIND8 identify the distinguished finite-domain attribute by name
   rather than by position, absorbing another CIND2 permutation. *)

type premise = int (* 0-based index of an earlier proof line *)

type rule =
  | Reflexivity of { rel : string; x : string list } (* CIND1 *)
  | Proj_perm of { prem : premise; indices : int list } (* CIND2 *)
  | Transitivity of { first : premise; second : premise } (* CIND3 *)
  | Instantiate of { prem : premise; attr : string; value : Value.t } (* CIND4 *)
  | Augment of { prem : premise; attr : string; value : Value.t } (* CIND5 *)
  | Reduce of { prem : premise; keep_yp : string list } (* CIND6 *)
  | Finite_drop of { prems : premise list; attr : string } (* CIND7 *)
  | Finite_restore of { prems : premise list; attr_a : string; attr_b : string }
(* CIND8 *)

type line =
  | Axiom of Cind.nf
  | Infer of rule

type proof = line list

let rule_name = function
  | Reflexivity _ -> "CIND1"
  | Proj_perm _ -> "CIND2"
  | Transitivity _ -> "CIND3"
  | Instantiate _ -> "CIND4"
  | Augment _ -> "CIND5"
  | Reduce _ -> "CIND6"
  | Finite_drop _ -> "CIND7"
  | Finite_restore _ -> "CIND8"

let ( let* ) = Result.bind

let err fmt = Fmt.kstr (fun s -> Error s) fmt

let fetch prior i =
  match prior i with Some nf -> Ok nf | None -> err "premise %d out of range" i

let bindings_equal =
  List.equal (fun (a1, v1) (a2, v2) -> String.equal a1 a2 && Value.equal v1 v2)

let remove_binding attr bindings = List.filter (fun (a, _) -> not (String.equal a attr)) bindings

let find_binding attr bindings =
  List.find_opt (fun (a, _) -> String.equal a attr) bindings |> Option.map snd

(* Check that the distinguished constants of a CIND7/CIND8 premise family
   cover exactly the finite domain of [attr]. *)
let covers_domain schema rel attr values =
  match Db_schema.find_opt schema rel with
  | None -> err "unknown relation %s" rel
  | Some r -> (
      match Schema.position_opt r attr with
      | None -> err "unknown attribute %s in %s" attr rel
      | Some pos -> (
          match Domain.values (Attribute.domain (Schema.attr r pos)) with
          | None -> err "attribute %s of %s does not have a finite domain" attr rel
          | Some dom ->
              let seen = List.sort_uniq Value.compare values in
              if List.equal Value.equal seen dom then Ok ()
              else err "constants for %s do not cover dom(%s)" attr attr))

(* Shared premise-family analysis for CIND7/CIND8: all premises must agree
   once the distinguished bindings are removed. *)
let family_common schema prior prems ~strip =
  match prems with
  | [] -> err "empty premise family"
  | first :: rest ->
      let* nf0 = fetch prior first in
      let* stripped0 = strip nf0 in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | p :: ps ->
            let* nf = fetch prior p in
            let* stripped = strip nf in
            if Cind.nf_equal (fst stripped) (fst stripped0) then go (stripped :: acc) ps
            else err "premises of the family differ beyond the distinguished attribute"
      in
      let* all = go [ stripped0 ] rest in
      ignore schema;
      Ok (fst stripped0, List.map snd all)

let apply schema prior rule =
  let result =
    match rule with
    | Reflexivity { rel; x } -> (
        match Db_schema.find_opt schema rel with
        | None -> err "unknown relation %s" rel
        | Some r ->
            if x = [] then err "CIND1 needs a nonempty attribute sequence"
            else if List.exists (fun a -> not (Schema.mem_attr r a)) x then
              err "CIND1: attribute outside %s" rel
            else if List.length (List.sort_uniq String.compare x) <> List.length x then
              err "CIND1: attributes must be distinct"
            else
              Ok
                {
                  Cind.nf_name = "derived";
                  nf_lhs = rel;
                  nf_rhs = rel;
                  nf_x = x;
                  nf_y = x;
                  nf_xp = [];
                  nf_yp = [];
                })
    | Proj_perm { prem; indices } ->
        let* nf = fetch prior prem in
        let m = List.length nf.Cind.nf_x in
        if List.exists (fun i -> i < 0 || i >= m) indices then
          err "CIND2: index out of range"
        else if List.length (List.sort_uniq Int.compare indices) <> List.length indices
        then err "CIND2: indices must be distinct"
        else
          let xa = Array.of_list nf.nf_x and ya = Array.of_list nf.nf_y in
          Ok
            {
              nf with
              Cind.nf_x = List.map (fun i -> xa.(i)) indices;
              nf_y = List.map (fun i -> ya.(i)) indices;
            }
    | Transitivity { first; second } ->
        let* a = fetch prior first in
        let* b = fetch prior second in
        if not (String.equal a.Cind.nf_rhs b.Cind.nf_lhs) then
          err "CIND3: middle relations differ (%s vs %s)" a.nf_rhs b.nf_lhs
        else if not (List.equal String.equal a.nf_y b.nf_x) then
          err "CIND3: Y of the first premise must equal X of the second"
        else if not (bindings_equal a.nf_yp b.nf_xp) then
          err "CIND3: pattern tuples disagree on the middle relation (t1[Yp] <> t2[Yp])"
        else
          Ok
            {
              a with
              Cind.nf_rhs = b.nf_rhs;
              nf_y = b.nf_y;
              nf_yp = b.nf_yp;
            }
    | Instantiate { prem; attr; value } -> (
        let* nf = fetch prior prem in
        let rec locate i = function
          | [] -> None
          | a :: _ when String.equal a attr -> Some i
          | _ :: rest -> locate (i + 1) rest
        in
        match locate 0 nf.Cind.nf_x with
        | None -> err "CIND4: %s is not in X" attr
        | Some j ->
            let bj = List.nth nf.nf_y j in
            let r1 = Db_schema.find schema nf.nf_lhs in
            let r2 = Db_schema.find schema nf.nf_rhs in
            if not (Domain.mem (Schema.domain_of r1 attr) value) then
              err "CIND4: %a outside dom(%s)" Value.pp value attr
            else if not (Domain.mem (Schema.domain_of r2 bj) value) then
              err "CIND4: %a outside dom(%s)" Value.pp value bj
            else
              let drop_nth l = List.filteri (fun i _ -> i <> j) l in
              Ok
                {
                  nf with
                  Cind.nf_x = drop_nth nf.nf_x;
                  nf_y = drop_nth nf.nf_y;
                  nf_xp = (attr, value) :: nf.nf_xp;
                  nf_yp = (bj, value) :: nf.nf_yp;
                })
    | Augment { prem; attr; value } -> (
        let* nf = fetch prior prem in
        match Db_schema.find_opt schema nf.Cind.nf_lhs with
        | None -> err "unknown relation %s" nf.nf_lhs
        | Some r ->
            if not (Schema.mem_attr r attr) then err "CIND5: unknown attribute %s" attr
            else if List.mem attr nf.nf_x || List.mem_assoc attr nf.nf_xp then
              err "CIND5: %s already occurs in X or Xp" attr
            else if not (Domain.mem (Schema.domain_of r attr) value) then
              err "CIND5: %a outside dom(%s)" Value.pp value attr
            else Ok { nf with Cind.nf_xp = (attr, value) :: nf.nf_xp })
    | Reduce { prem; keep_yp } ->
        let* nf = fetch prior prem in
        if List.exists (fun a -> not (List.mem_assoc a nf.Cind.nf_yp)) keep_yp then
          err "CIND6: kept attribute not in Yp"
        else
          Ok
            {
              nf with
              Cind.nf_yp = List.filter (fun (a, _) -> List.mem a keep_yp) nf.nf_yp;
            }
    | Finite_drop { prems; attr } ->
        let strip nf =
          match find_binding attr nf.Cind.nf_xp with
          | None -> err "CIND7: premise lacks an Xp binding for %s" attr
          | Some v -> Ok (Cind.canon_nf { nf with Cind.nf_xp = remove_binding attr nf.nf_xp }, v)
        in
        let* common, values = family_common schema prior prems ~strip in
        let* () = covers_domain schema common.Cind.nf_lhs attr values in
        Ok common
    | Finite_restore { prems; attr_a; attr_b } ->
        let strip nf =
          match (find_binding attr_a nf.Cind.nf_xp, find_binding attr_b nf.Cind.nf_yp) with
          | None, _ -> err "CIND8: premise lacks an Xp binding for %s" attr_a
          | _, None -> err "CIND8: premise lacks a Yp binding for %s" attr_b
          | Some va, Some vb ->
              if not (Value.equal va vb) then
                err "CIND8: ti[%s] <> ti[%s] in a premise" attr_a attr_b
              else
                Ok
                  ( Cind.canon_nf
                      {
                        nf with
                        Cind.nf_xp = remove_binding attr_a nf.nf_xp;
                        nf_yp = remove_binding attr_b nf.nf_yp;
                      },
                    va )
        in
        let* common, values = family_common schema prior prems ~strip in
        let* () = covers_domain schema common.Cind.nf_lhs attr_a values in
        Ok
          {
            common with
            Cind.nf_x = common.nf_x @ [ attr_a ];
            nf_y = common.nf_y @ [ attr_b ];
          }
  in
  let* nf = result in
  let nf = Cind.canon_nf nf in
  (* Every derived CIND must itself be well-formed. *)
  match Cind.validate_nf schema nf with
  | Ok () -> Ok nf
  | Error e -> err "%s derives an ill-formed CIND: %s" (rule_name rule) e

let check schema ~sigma proof =
  let sigma = List.map Cind.canon_nf sigma in
  let concls = Hashtbl.create 64 in
  let rec go idx = function
    | [] -> Ok (Array.init idx (Hashtbl.find concls))
    | line :: rest -> (
        match line with
        | Axiom nf ->
            let nf = Cind.canon_nf nf in
            if List.exists (Cind.nf_equal nf) sigma then begin
              Hashtbl.replace concls idx nf;
              go (idx + 1) rest
            end
            else err "line %d: axiom %a is not in Sigma" idx Cind.pp_nf nf
        | Infer rule -> (
            match apply schema (Hashtbl.find_opt concls) rule with
            | Ok nf ->
                Hashtbl.replace concls idx nf;
                go (idx + 1) rest
            | Error e -> err "line %d (%s): %s" idx (rule_name rule) e))
  in
  go 0 proof

let proves schema ~sigma proof goal =
  match check schema ~sigma proof with
  | Error _ as e -> e
  | Ok lines ->
      if Array.length lines = 0 then err "empty proof"
      else
        let last = lines.(Array.length lines - 1) in
        if Cind.nf_equal last (Cind.canon_nf goal) then Ok lines
        else err "proof concludes %a, not %a" Cind.pp_nf last Cind.pp_nf goal

let pp_rule ppf rule =
  match rule with
  | Reflexivity { rel; x } ->
      Fmt.pf ppf "CIND1 %s[%a]" rel Fmt.(list ~sep:comma string) x
  | Proj_perm { prem; indices } ->
      Fmt.pf ppf "CIND2 (%d) keep %a" prem Fmt.(list ~sep:comma int) indices
  | Transitivity { first; second } -> Fmt.pf ppf "CIND3 (%d),(%d)" first second
  | Instantiate { prem; attr; value } ->
      Fmt.pf ppf "CIND4 (%d) %s := %a" prem attr Value.pp value
  | Augment { prem; attr; value } ->
      Fmt.pf ppf "CIND5 (%d) add %s = %a" prem attr Value.pp value
  | Reduce { prem; keep_yp } ->
      Fmt.pf ppf "CIND6 (%d) keep {%a}" prem Fmt.(list ~sep:comma string) keep_yp
  | Finite_drop { prems; attr } ->
      Fmt.pf ppf "CIND7 (%a) drop %s" Fmt.(list ~sep:comma int) prems attr
  | Finite_restore { prems; attr_a; attr_b } ->
      Fmt.pf ppf "CIND8 (%a) restore %s = %s" Fmt.(list ~sep:comma int) prems attr_a attr_b

let pp_line ppf = function
  | Axiom nf -> Fmt.pf ppf "axiom  %a" Cind.pp_nf nf
  | Infer rule -> Fmt.pf ppf "infer  %a" pp_rule rule

(* One line per proof line: an [h] box keeps the lists' break hints
   from wrapping it. *)
let pp_proof ppf proof =
  List.iteri (fun i line -> Fmt.pf ppf "@[<h>(%d) %a@]@." i pp_line line) proof
