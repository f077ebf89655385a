open Conddep_relational

(* First-order readings of conditional dependencies.

   The paper remarks (Section 1) that CINDs "do not introduce a new logical
   formalism": in first-order logic they are tuple-generating dependencies
   with constants, and CFDs are equality-generating dependencies with
   constants.  This module renders both, for documentation, debugging and
   interoperability with TGD-based tooling (the test suite evaluates the
   renderings against the native semantics):

     CIND (R1[X; Xp] ⊆ R2[Y; Yp], tp):
       ∀x̄ ( R1(x̄) ∧ x_at = 'saving'
             → ∃ȳ ( R2(ȳ) ∧ y_an = x_an ∧ ... ∧ y_ab = 'EDI' ) )

     CFD (R : X -> A, tp):
       ∀x̄ ∀x̄' ( R(x̄) ∧ R(x̄') ∧ x_ct = x'_ct ∧ x_ct = 'UK' ∧ ...
                 → x_rt = x'_rt ∧ x_rt = '1.5%' ) *)

type term =
  | Var of string
  | Const of Value.t

type atom =
  | Rel of string * term list (* R(t1, ..., tn) *)
  | Eq of term * term

type formula =
  | Forall of string list * formula
  | Exists of string list * formula
  | Implies of formula * formula
  | And of formula list
  | Atom of atom

(* --- construction --------------------------------------------------------- *)

let var_of rel attr = Printf.sprintf "%s_%s" rel attr

(* variables x_<attr> for every attribute of [rel], with prefix *)
let vars_for schema ~prefix rel =
  let r = Db_schema.find schema rel in
  List.map (fun a -> var_of prefix a) (Schema.attr_names r)

let rel_atom schema ~prefix rel =
  Rel (rel, List.map (fun v -> Var v) (vars_for schema ~prefix rel))

(* The TGD of a normal-form CIND. *)
let cind_to_formula schema (nf : Cind.nf) =
  let xs = vars_for schema ~prefix:"x" nf.Cind.nf_lhs in
  let ys = vars_for schema ~prefix:"y" nf.nf_rhs in
  let premise =
    And
      (Atom (rel_atom schema ~prefix:"x" nf.nf_lhs)
      :: List.map
           (fun (a, v) -> Atom (Eq (Var (var_of "x" a), Const v)))
           nf.nf_xp)
  in
  let conclusion_eqs =
    List.map2
      (fun a b -> Atom (Eq (Var (var_of "y" b), Var (var_of "x" a))))
      nf.nf_x nf.nf_y
    @ List.map (fun (b, v) -> Atom (Eq (Var (var_of "y" b), Const v))) nf.nf_yp
  in
  let conclusion =
    Exists (ys, And (Atom (rel_atom schema ~prefix:"y" nf.nf_rhs) :: conclusion_eqs))
  in
  Forall (xs, Implies (premise, conclusion))

(* The EGD of a normal-form CFD. *)
let cfd_to_formula schema (nf : Cfd.nf) =
  let xs = vars_for schema ~prefix:"x" nf.Cfd.nf_rel in
  let xs' = vars_for schema ~prefix:"x'" nf.nf_rel in
  let premise_eqs =
    List.concat_map
      (fun (a, cell) ->
        Atom (Eq (Var (var_of "x" a), Var (var_of "x'" a)))
        ::
        (match cell with
        | Pattern.Const v -> [ Atom (Eq (Var (var_of "x" a), Const v)) ]
        | Pattern.Wildcard -> []))
      (List.combine nf.nf_x nf.nf_tx)
  in
  let premise =
    And
      (Atom (rel_atom schema ~prefix:"x" nf.nf_rel)
      :: Atom (rel_atom schema ~prefix:"x'" nf.nf_rel)
      :: premise_eqs)
  in
  let conclusion_eqs =
    Atom (Eq (Var (var_of "x" nf.nf_a), Var (var_of "x'" nf.nf_a)))
    ::
    (match nf.nf_ta with
    | Pattern.Const v -> [ Atom (Eq (Var (var_of "x" nf.nf_a), Const v)) ]
    | Pattern.Wildcard -> [])
  in
  Forall (xs @ xs', Implies (premise, And conclusion_eqs))

(* --- printing -------------------------------------------------------------- *)

let pp_term ppf = function
  | Var x -> Fmt.string ppf x
  | Const v -> Value.pp ppf v

let pp_atom ppf = function
  | Rel (r, ts) -> Fmt.pf ppf "@[<h>%s(%a)@]" r Fmt.(list ~sep:comma pp_term) ts
  | Eq (t1, t2) -> Fmt.pf ppf "%a = %a" pp_term t1 pp_term t2

let rec pp ppf = function
  | Forall (vs, f) ->
      Fmt.pf ppf "@[<hv2>forall @[<h>%a@].@ %a@]" Fmt.(list ~sep:comma string) vs pp f
  | Exists (vs, f) ->
      Fmt.pf ppf "@[<hv2>exists @[<h>%a@].@ %a@]" Fmt.(list ~sep:comma string) vs pp f
  | Implies (p, q) -> Fmt.pf ppf "@[<hv>(%a@ -> %a)@]" pp p pp q
  | And [] -> Fmt.string ppf "true"
  | And [ f ] -> pp ppf f
  | And fs -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " /\\ ") pp) fs
  | Atom a -> pp_atom ppf a
