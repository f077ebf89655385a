open Conddep_relational
open Conddep_core

(* A CFD/CIND violation found in a database, with enough provenance to
   explain and repair it. *)

type t =
  | Cfd_violation of {
      constraint_name : string;
      rel : string;
      nf : Cfd.nf;
      t1 : Tuple.t;
      t2 : Tuple.t;
    }
  | Cind_violation of {
      constraint_name : string;
      lhs : string;
      rhs : string;
      nf : Cind.nf;
      tuple : Tuple.t; (* LHS tuple lacking a witness *)
    }

let constraint_name = function
  | Cfd_violation v -> v.constraint_name
  | Cind_violation v -> v.constraint_name

let pp ppf = function
  | Cfd_violation { constraint_name; rel; t1; t2; _ } ->
      if Tuple.equal t1 t2 then
        Fmt.pf ppf "@[<h>CFD %s violated in %s by tuple %a@]" constraint_name rel
          Tuple.pp t1
      else
        Fmt.pf ppf "@[<h>CFD %s violated in %s by tuples %a and %a@]" constraint_name
          rel Tuple.pp t1 Tuple.pp t2
  | Cind_violation { constraint_name; lhs; rhs; tuple; _ } ->
      Fmt.pf ppf "@[<h>CIND %s violated: %s tuple %a has no match in %s@]"
        constraint_name lhs Tuple.pp tuple rhs
