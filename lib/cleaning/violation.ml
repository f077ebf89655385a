open Conddep_relational
open Conddep_core

(* A CFD/CIND violation found in a database, with enough provenance to
   explain and repair it. *)

type t =
  | Cfd_violation of { nf : Cfd.nf; t1 : Tuple.t; t2 : Tuple.t }
  | Cind_violation of { nf : Cind.nf; tuple : Tuple.t (* LHS tuple lacking a witness *) }

let constraint_name = function
  | Cfd_violation { nf; _ } -> nf.Cfd.nf_name
  | Cind_violation { nf; _ } -> nf.Cind.nf_name

let pp ppf = function
  | Cfd_violation { nf; t1; t2 } ->
      if Tuple.equal t1 t2 then
        Fmt.pf ppf "@[<h>CFD %s violated in %s by tuple %a@]" nf.Cfd.nf_name nf.nf_rel
          Tuple.pp t1
      else
        Fmt.pf ppf "@[<h>CFD %s violated in %s by tuples %a and %a@]" nf.nf_name
          nf.nf_rel Tuple.pp t1 Tuple.pp t2
  | Cind_violation { nf; tuple } ->
      Fmt.pf ppf "@[<h>CIND %s violated: %s tuple %a has no match in %s@]"
        nf.Cind.nf_name nf.nf_lhs Tuple.pp tuple nf.nf_rhs
