open Conddep_relational

(* Constructive Theorem 3.5: in the absence of finite-domain attributes,
   rules CIND1–CIND6 are complete for implication.  This module turns the
   semantic decision procedure's reachability certificate into an explicit
   machine-checkable proof in the inference system I.

   Over infinite domains tuple creation is deterministic: from the generic
   shape of a ψ-trigger t1 (marks on X, ψ's Xp constants, anonymous
   elsewhere), each applicable σ ∈ Σ produces exactly one successor shape.
   {!Implication.witness_path} finds a path

       t1  --σ1-->  s1  --σ2-->  ...  --σk-->  sk (a ψ-witness shape)

   and this module replays it as a derivation: the invariant CIND for s_i,

       D_i = ( Ra[U_i; Xp_ψ]  ⊆  R_i[Z_i; Zp_i],  (Xp_ψ-values || Zp_i-values) )

   says that every ψ-trigger has a partner in R_i carrying its U_i values
   on Z_i (the mark fields of s_i) and the constants Zp_i (the constant
   fields of s_i).  D_0 comes from CIND1 + CIND4 (+ a CIND2 projection);
   the step from D_i to D_{i+1} massages σ_{i+1} with CIND2 (drop the
   anonymous copy pairs), CIND4 (pin the constant copy pairs) and CIND5
   (match the untested constants of s_i), projects D_i with CIND2, and
   composes with CIND3; the final D_k yields ψ by CIND2 and CIND6. *)

exception Finite_domain of { rel : string; attr : string }

let ensure_infinite schema (nfs : Cind.nf list) =
  let check rel =
    match Schema.finite_attrs (Db_schema.find schema rel) with
    | [] -> ()
    | a :: _ -> raise (Finite_domain { rel; attr = Attribute.name a })
  in
  List.iter
    (fun (nf : Cind.nf) ->
      check nf.Cind.nf_lhs;
      check nf.nf_rhs)
    nfs

(* --- replaying a path as a derivation ----------------------------------- *)

(* The constant fields of a shape of relation [r], as (attribute, value)
   pairs. *)
let shape_consts r (s : Implication.state) =
  List.concat
    (List.mapi
       (fun pos attr ->
         match s.fields.(pos) with
         | Implication.Cst v -> [ (Attribute.name attr, v) ]
         | Mark _ | Anon -> [])
       (Schema.attrs r))

(* The position of attribute [a] in [names], which contains it. *)
let index_of a names = Option.get (List.find_index (String.equal a) names)

(* Proof under construction: lines are emitted into a growing buffer and
   their conclusions computed immediately with {!Inference.apply}, so a
   construction bug surfaces as an error here rather than as an unsound
   proof.  [emit] returns the index of the added line. *)
type builder = {
  schema : Db_schema.t;
  mutable lines : Inference.line list; (* reversed *)
  concls : (int, Cind.nf) Hashtbl.t; (* line index -> conclusion *)
  mutable len : int;
}

let conclusion b i = Hashtbl.find b.concls i

let emit b line =
  let concl =
    match line with
    | Inference.Axiom nf -> Cind.canon_nf nf
    | Inference.Infer rule -> (
        match Inference.apply b.schema (Hashtbl.find_opt b.concls) rule with
        | Ok nf -> nf
        | Error msg ->
            invalid_arg
              (Fmt.str "Proof_search: internal rule application failed (%s): %s"
                 (Inference.rule_name rule) msg))
  in
  b.lines <- line :: b.lines;
  Hashtbl.replace b.concls b.len concl;
  b.len <- b.len + 1;
  b.len - 1

(* D_0: ( Ra[X; Xp] ⊆ Ra[X; Xp-as-Yp] ) — reflexivity on X @ Xp-attrs,
   then CIND4 on each Xp binding; if X and Xp are both empty, reflexivity
   on an arbitrary attribute projected away.  Returns the line index. *)
let derive_start b (psi : Cind.nf) =
  let schema = b.schema in
  let xp_attrs = List.map fst psi.Cind.nf_xp in
  let base = psi.nf_x @ xp_attrs in
  if base = [] then begin
    let r1 = Db_schema.find schema psi.nf_lhs in
    let a0 = Attribute.name (Schema.attr r1 0) in
    let refl = emit b (Inference.Infer (Inference.Reflexivity { rel = psi.nf_lhs; x = [ a0 ] })) in
    emit b (Inference.Infer (Inference.Proj_perm { prem = refl; indices = [] }))
  end
  else begin
    let line =
      ref (emit b (Inference.Infer (Inference.Reflexivity { rel = psi.nf_lhs; x = base })))
    in
    List.iter
      (fun (a, v) ->
        line := emit b (Inference.Infer (Inference.Instantiate { prem = !line; attr = a; value = v })))
      psi.nf_xp;
    !line
  end

(* One composition step: from the line deriving D_i and the applied CIND σ
   (an axiom of Σ), derive D_{i+1}.  [s_i] is the shape before the step. *)
let derive_step b ~di_line ~(sigma_nf : Cind.nf) (s_i : Implication.state) =
  let schema = b.schema in
  let di = conclusion b di_line in
  let r1 = Db_schema.find schema sigma_nf.Cind.nf_lhs in
  (* classify σ's copy pairs by the field they copy *)
  let classified =
    List.map2
      (fun a bname -> (a, bname, s_i.fields.(Schema.position r1 a)))
      sigma_nf.nf_x sigma_nf.nf_y
  in
  let mark_pairs =
    List.filter (fun (_, _, f) -> match f with Implication.Mark _ -> true | _ -> false) classified
  in
  let cst_pairs =
    List.filter (fun (_, _, f) -> match f with Implication.Cst _ -> true | _ -> false) classified
  in
  (* σ projected onto the mark and constant pairs (CIND2) *)
  let keep_indices =
    List.filter (fun (_, _, f) -> match f with Implication.Anon -> false | _ -> true) classified
    |> List.map (fun (a, _, _) -> index_of a sigma_nf.nf_x)
  in
  let sigma_line = emit b (Inference.Axiom sigma_nf) in
  let line =
    ref (emit b (Inference.Infer (Inference.Proj_perm { prem = sigma_line; indices = keep_indices })))
  in
  (* pin the constant copy pairs with CIND4 *)
  List.iter
    (fun (a, _, f) ->
      match f with
      | Implication.Cst v ->
          line := emit b (Inference.Infer (Inference.Instantiate { prem = !line; attr = a; value = v }))
      | Mark _ | Anon -> ())
    cst_pairs;
  (* σ's LHS pattern now tests Xpσ ∪ pinned; augment with the rest of s_i's
     constant fields so it matches D_i's RHS pattern exactly (CIND5) *)
  let tested =
    List.map fst sigma_nf.nf_xp @ List.map (fun (a, _, _) -> a) cst_pairs
  in
  List.iter
    (fun (a, v) ->
      if not (List.exists (String.equal a) tested) then
        line := emit b (Inference.Infer (Inference.Augment { prem = !line; attr = a; value = v })))
    (shape_consts r1 s_i);
  (* project D_i's inclusion onto σ's mark-source attributes, in order *)
  let di_indices = List.map (fun (a, _, _) -> index_of a di.Cind.nf_y) mark_pairs in
  let di_projected = emit b (Inference.Infer (Inference.Proj_perm { prem = di_line; indices = di_indices })) in
  emit b (Inference.Infer (Inference.Transitivity { first = di_projected; second = !line }))

(* Finish: D_k covers ψ's witness requirements; project its inclusion onto
   ψ's Y (CIND2) and drop the extra RHS bindings (CIND6). *)
let derive_finish b (psi : Cind.nf) ~dk_line =
  let dk = conclusion b dk_line in
  let indices = List.map (fun y -> index_of y dk.Cind.nf_y) psi.Cind.nf_y in
  let projected = emit b (Inference.Infer (Inference.Proj_perm { prem = dk_line; indices })) in
  emit b (Inference.Infer (Inference.Reduce { prem = projected; keep_yp = List.map fst psi.nf_yp }))

let derive ?max_states schema ~sigma psi =
  ensure_infinite schema (psi :: sigma);
  Implication.witness_path ?max_states schema ~sigma psi
  |> Option.map (fun path ->
         let psi = Cind.canon_nf psi in
         let b = { schema; lines = []; concls = Hashtbl.create 64; len = 0 } in
         let dk_line =
           List.fold_left
             (fun di_line (sigma_nf, s_i) -> derive_step b ~di_line ~sigma_nf s_i)
             (derive_start b psi) path
         in
         ignore (derive_finish b psi ~dk_line);
         List.rev b.lines)
