(* A stub with no behaviour.  Its only caller is benchmark/run.ml:71,
   [Supervise.Policy.set_ambient Supervise.Policy.supervised]; nothing
   reads the policy.  Delete this library with that line and the
   [conddep_supervise] entry in benchmark/dune. *)

module Policy = struct
  type t = unit

  let supervised = ()
  let set_ambient () = ()
end
