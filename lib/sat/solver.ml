(* A CDCL SAT solver — conflict-driven clause learning with two-watched-
   literal propagation, first-UIP conflict analysis, non-chronological
   backjumping and activity branching — standing in for SAT4j in the
   paper's SAT-based CFD_Checking: any complete solver preserves the
   algorithm's accuracy; only absolute running times differ.

   The core is fitted to the CNFs it is given: on the single-tuple CFD
   encodings, every conflict measured so far occurred at decision level 0,
   where it ends the search without learning a clause.  So nothing here
   pays off only on long searches: no restarts, no learned-clause
   deletion or shrinking, no phase saving, no priority queue. *)

type result =
  | Sat of bool array (* indexed by variable, index 0 unused *)
  | Unsat
  | Unknown of Guard.reason (* search stopped by a budget *)

let m_solves = Telemetry.counter "sat.solve_calls" ~doc:"CNF instances handed to the SAT solver"
let m_decisions = Telemetry.counter "sat.decisions" ~doc:"branching decisions"
let m_propagations = Telemetry.counter "sat.propagations" ~doc:"literals assigned by unit propagation"
let m_conflicts = Telemetry.counter "sat.conflicts" ~doc:"clauses falsified during propagation"
let m_learned = Telemetry.counter "sat.learned" ~doc:"asserting clauses learned by first-UIP conflict analysis"
let m_backjumps = Telemetry.counter "sat.backjump_levels" ~doc:"decision levels skipped by non-chronological backjumps (beyond the one chronological level)"
let m_sat = Telemetry.counter "sat.results_sat" ~doc:"instances decided satisfiable"
let m_unsat = Telemetry.counter "sat.results_unsat" ~doc:"instances decided unsatisfiable"
let m_unknown = Telemetry.counter "sat.results_unknown" ~doc:"instances left undecided: budget exhausted"

exception Found_unsat

let lit_index l = if l > 0 then 2 * l else (2 * -l) + 1

(* Remove duplicate literals; detect tautological clauses (contain l and -l). *)
let simplify_clause clause =
  let sorted = List.sort_uniq Int.compare clause in
  if List.exists (fun l -> List.mem (-l) sorted) sorted then None else Some sorted

(* A clause is its literal array, permuted in place so that positions 0
   and 1 are its watches.  Clauses are never deleted, so an implication
   reason is the clause itself; [no_reason] marks decisions and level-0
   units. *)
let no_reason = [||]

type cdcl = {
  num_vars : int;
  (* assignment + implication graph *)
  assign : int array; (* 0 unassigned, 1 true, -1 false *)
  level : int array; (* decision level at which each variable was set *)
  reason : int array array; (* clause that propagated the variable, or no_reason *)
  trail : int array;
  mutable trail_len : int;
  mutable qhead : int;
  trail_lim : int array; (* trail length at the start of each decision level *)
  mutable dlevel : int;
  (* two-watched-literal scheme, keyed by falsified-literal index *)
  watch : int array list array;
  (* activity branching *)
  activity : float array;
  mutable var_inc : float;
  pos_occ : int array; (* positive-literal occurrences: the branching polarity *)
  occ : int array; (* total occurrences *)
  (* first-UIP analysis scratch *)
  seen : bool array;
}

let lit_value st l =
  let v = st.assign.(abs l) in
  if v = 0 then 0 else if (l > 0) = (v = 1) then 1 else -1

(* --- activity branching ------------------------------------------------------ *)

let var_decay = 1.0 /. 0.95
let rescale_limit = 1e100

let bump_var st v =
  st.activity.(v) <- st.activity.(v) +. st.var_inc;
  if st.activity.(v) > rescale_limit then begin
    for u = 1 to st.num_vars do
      st.activity.(u) <- st.activity.(u) *. (1.0 /. rescale_limit)
    done;
    st.var_inc <- st.var_inc *. (1.0 /. rescale_limit)
  end

let decay_activities st = st.var_inc <- st.var_inc *. var_decay

(* The unassigned variable of highest activity, lowest index on ties, so
   branching (and therefore verdict shape) is reproducible; its polarity is
   the one occurring more often in the problem clauses. *)
let pick_branch st =
  let best = ref 0 in
  for v = 1 to st.num_vars do
    if st.assign.(v) = 0 && (!best = 0 || st.activity.(v) > st.activity.(!best))
    then best := v
  done;
  let v = !best in
  if v = 0 then None else Some (if 2 * st.pos_occ.(v) >= st.occ.(v) then v else -v)

(* --- trail ------------------------------------------------------------------- *)

let push_assign st l reason =
  let v = abs l in
  st.assign.(v) <- (if l > 0 then 1 else -1);
  st.level.(v) <- st.dlevel;
  st.reason.(v) <- reason;
  st.trail.(st.trail_len) <- l;
  st.trail_len <- st.trail_len + 1

(* Undo every decision level above [lvl].  [trail_lim.(d)] is the trail
   length just before level [d]'s decision, so keeping levels [0..lvl]
   means keeping [trail_lim.(lvl + 1)] entries. *)
let cancel_until st lvl =
  if st.dlevel > lvl then begin
    let keep = st.trail_lim.(lvl + 1) in
    for i = st.trail_len - 1 downto keep do
      let v = abs st.trail.(i) in
      st.assign.(v) <- 0;
      st.reason.(v) <- no_reason
    done;
    st.trail_len <- keep;
    st.qhead <- keep;
    st.dlevel <- lvl
  end

let watch_clause st c =
  st.watch.(lit_index c.(0)) <- c :: st.watch.(lit_index c.(0));
  st.watch.(lit_index c.(1)) <- c :: st.watch.(lit_index c.(1))

(* --- unit propagation -------------------------------------------------------- *)

(* Watched-literal propagation recording implication reasons.  Returns a
   falsified clause, or [no_reason] when a fixpoint is reached. *)
let propagate st =
  let conflict = ref no_reason in
  while !conflict == no_reason && st.qhead < st.trail_len do
    let l = st.trail.(st.qhead) in
    st.qhead <- st.qhead + 1;
    let falsified = -l in
    let wl = lit_index falsified in
    let pending = st.watch.(wl) in
    st.watch.(wl) <- [];
    let rec process = function
      | [] -> ()
      | c :: rest ->
          (* Keep the falsified literal at position 1. *)
          if c.(0) = falsified then begin
            c.(0) <- c.(1);
            c.(1) <- falsified
          end;
          if lit_value st c.(0) = 1 then begin
            st.watch.(wl) <- c :: st.watch.(wl);
            process rest
          end
          else begin
            let len = Array.length c in
            let rec find_watch k =
              if k >= len then -1
              else if lit_value st c.(k) <> -1 then k
              else find_watch (k + 1)
            in
            let k = find_watch 2 in
            if k >= 0 then begin
              c.(1) <- c.(k);
              c.(k) <- falsified;
              let wl' = lit_index c.(1) in
              st.watch.(wl') <- c :: st.watch.(wl');
              process rest
            end
            else begin
              st.watch.(wl) <- c :: st.watch.(wl);
              match lit_value st c.(0) with
              | -1 ->
                  Telemetry.incr m_conflicts;
                  conflict := c;
                  st.watch.(wl) <- List.rev_append rest st.watch.(wl)
              | 0 ->
                  Telemetry.incr m_propagations;
                  push_assign st c.(0) c;
                  process rest
              | _ -> process rest
            end
          end
    in
    process pending
  done;
  !conflict

(* --- first-UIP conflict analysis --------------------------------------------- *)

(* Resolve the conflicting clause backwards along the trail until exactly
   one literal of the current decision level remains — the first unique
   implication point.  Returns the asserting learned clause (UIP negation
   first, a highest-remaining-level literal second) and the backjump level
   (the second-highest level in the clause; 0 for a unit).  Every variable
   met on the way gets an activity bump. *)
let analyze st confl =
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref 0 in
  let c = ref confl in
  let idx = ref (st.trail_len - 1) in
  let continue = ref true in
  while !continue do
    let lits = !c in
    (* [lits.(0)] of a reason clause is the literal it propagated — skip it
       when resolving on that literal (the first round resolves nothing and
       visits the whole conflict clause). *)
    let start = if !p = 0 then 0 else 1 in
    for i = start to Array.length lits - 1 do
      let q = lits.(i) in
      let v = abs q in
      if (not st.seen.(v)) && st.level.(v) > 0 then begin
        st.seen.(v) <- true;
        bump_var st v;
        if st.level.(v) >= st.dlevel then incr counter
        else learnt := q :: !learnt
      end
    done;
    (* next seen literal walking the trail backwards *)
    while not st.seen.(abs st.trail.(!idx)) do decr idx done;
    let lit = st.trail.(!idx) in
    decr idx;
    st.seen.(abs lit) <- false;
    decr counter;
    p := lit;
    if !counter = 0 then continue := false else c := st.reason.(abs lit)
  done;
  (* every current-level variable was unmarked on the walk; the learnt
     literals' variables are the only ones still marked *)
  List.iter (fun q -> st.seen.(abs q) <- false) !learnt;
  (* asserting literal first; swap a maximum-level literal into position 1
     so it can serve as the second watch after the backjump *)
  let lits = Array.of_list (- !p :: !learnt) in
  let blevel =
    if Array.length lits = 1 then 0
    else begin
      let max_i = ref 1 in
      for i = 2 to Array.length lits - 1 do
        if st.level.(abs lits.(i)) > st.level.(abs lits.(!max_i)) then max_i := i
      done;
      let tmp = lits.(1) in
      lits.(1) <- lits.(!max_i);
      lits.(!max_i) <- tmp;
      st.level.(abs lits.(1))
    end
  in
  (lits, blevel)

(* --- the CDCL search loop ------------------------------------------------------ *)

let solve_cdcl ~num_vars units long =
  let st =
    {
      num_vars;
      assign = Array.make (num_vars + 1) 0;
      level = Array.make (num_vars + 1) 0;
      reason = Array.make (num_vars + 1) no_reason;
      trail = Array.make (num_vars + 1) 0;
      trail_len = 0;
      qhead = 0;
      trail_lim = Array.make (num_vars + 2) 0;
      dlevel = 0;
      watch = Array.make ((2 * num_vars) + 2) [];
      activity = Array.make (num_vars + 1) 0.;
      var_inc = 1.0;
      pos_occ = Array.make (num_vars + 1) 0;
      occ = Array.make (num_vars + 1) 0;
      seen = Array.make (num_vars + 1) false;
    }
  in
  List.iter
    (fun clause ->
      let c = Array.of_list clause in
      watch_clause st c;
      Array.iter
        (fun l ->
          let v = abs l in
          st.occ.(v) <- st.occ.(v) + 1;
          if l > 0 then st.pos_occ.(v) <- st.pos_occ.(v) + 1)
        c)
    long;
  (* occurrence counts seed the activities, so the first decisions follow
     a static occurrence-count score *)
  for v = 1 to num_vars do
    st.activity.(v) <- float_of_int st.occ.(v) *. 1e-9
  done;
  (* Every conflict and every decision ticks the ambient budget, the only
     bound on the search. *)
  let rec search () =
    let confl = propagate st in
    if confl != no_reason then begin
      Guard.tick ();
      if st.dlevel = 0 then raise Found_unsat;
      let lits, blevel =
        Telemetry.with_span "sat.analyze" (fun () -> analyze st confl)
      in
      Telemetry.incr m_learned;
      Telemetry.add m_backjumps (st.dlevel - blevel - 1);
      cancel_until st blevel;
      if Array.length lits = 1 then push_assign st lits.(0) no_reason
      else begin
        watch_clause st lits;
        push_assign st lits.(0) lits
      end;
      decay_activities st;
      search ()
    end
    else
      match pick_branch st with
      | None -> Sat (Array.map (fun a -> a = 1) st.assign)
      | Some l ->
          Telemetry.incr m_decisions;
          Guard.tick ();
          st.dlevel <- st.dlevel + 1;
          st.trail_lim.(st.dlevel) <- st.trail_len;
          push_assign st l no_reason;
          search ()
  in
  try
    (* Assert top-level unit clauses at level 0. *)
    List.iter
      (fun l ->
        match lit_value st l with
        | -1 -> raise Found_unsat
        | 0 -> push_assign st l no_reason
        | _ -> ())
      units;
    search ()
  with Found_unsat -> Unsat

(* --- front end ------------------------------------------------------------------ *)

let solve cnf =
  Telemetry.incr m_solves;
  Telemetry.with_span "sat.solve" @@ fun () ->
  let result =
    try
      let simplified = List.filter_map simplify_clause (Cnf.clauses cnf) in
      if List.exists (fun c -> c = []) simplified then Unsat
      else
        let units = List.filter_map (function [ l ] -> Some l | _ -> None) simplified in
        let long = List.filter (fun c -> List.length c >= 2) simplified in
        solve_cdcl ~num_vars:(Cnf.num_vars cnf) units long
    with Guard.Exhausted r -> Unknown r
  in
  (match result with
  | Sat _ -> Telemetry.incr m_sat
  | Unsat -> Telemetry.incr m_unsat
  | Unknown _ -> Telemetry.incr m_unknown);
  result
