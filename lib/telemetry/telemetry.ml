(* Process-wide telemetry: monotonic counters, pull-based gauges, and a
   profiler (hierarchical span attribution + a trace buffer for export).

   Design constraints (see DESIGN.md, "Observability" and "Profiling &
   trace export"):
   - near-zero overhead when disabled: counter updates are guarded by the
     single [enabled] flag and [with_span] by the [profiling] flag, and the
     disabled paths allocate nothing — counters are created once at
     module-initialisation time, so [incr]/[add] are a load, a test and
     (when enabled) a store;
   - recording never perturbs the algorithms: no RNG use, no reordering,
     no exceptions;
   - one domain: lib/ runs on its caller's domain and must be driven from
     one domain, so counters are plain refs and there is one frame stack,
     one trace buffer and one profile tree, none of them locked;
   - metric keys follow [subsystem.event] (dots separate levels,
     snake_case within a level), e.g. [sat.decisions],
     [checking.cfd.kcfd_retries]. *)

(* --- global switches ------------------------------------------------------ *)

let enabled_flag = ref false

let enable () = enabled_flag := true
let disable () = enabled_flag := false

(* Profiling is a second tier on top of [enabled]: spans feed the profile
   tree and the trace buffer.  It implies [enabled] (a profile wants the
   counters that explain it) but not the other way round. *)
let profiling_flag = ref false

let profiling () = !profiling_flag

(* --- counters ------------------------------------------------------------ *)

type counter = int ref

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter ?doc:_ name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.replace counters name c;
      c

let incr c = if !enabled_flag then c := !c + 1

let add c n =
  if n < 0 then invalid_arg "Telemetry.add: counters are monotonic";
  if !enabled_flag then c := !c + n

let count c = !c

(* --- gauges -------------------------------------------------------------- *)

(* Gauges are pull-based: a registered callback is sampled at snapshot
   time, never on a hot path. *)

let gauges : (string, unit -> int) Hashtbl.t = Hashtbl.create 16

let register_gauge ?doc:_ name read = Hashtbl.replace gauges name read

(* --- snapshots ----------------------------------------------------------- *)

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let counter_snapshot () =
  Hashtbl.fold (fun name c acc -> (name, !c) :: acc) counters [] |> by_name

let gauge_snapshot () =
  Hashtbl.fold (fun name read acc -> (name, read ()) :: acc) gauges []
  |> by_name

(* --- profiler: the trace buffer ------------------------------------------- *)

(* Completed (and begun) spans are kept as begin/end events for the Chrome
   Trace Event export.  The cap bounds memory on runaway runs; drops are
   counted, never silent. *)

type phase = Begin | End

type trace_event = {
  te_name : string;
  te_ph : phase;
  te_ts : float; (* absolute Unix time, seconds *)
  te_err : bool;
}

let trace_cap = 1_000_000

let m_dropped =
  counter "profile.events_dropped" ~doc:"trace events discarded by the buffer cap"

(* Newest first. *)
let trace_buf : trace_event list ref = ref []
let trace_len = ref 0

let push_event ev =
  if !trace_len >= trace_cap then incr m_dropped
  else begin
    trace_buf := ev :: !trace_buf;
    trace_len := !trace_len + 1
  end

let trace_events () = List.rev !trace_buf

(* --- profiler: span-tree attribution --------------------------------------- *)

(* Live frames, innermost first.  A frame accumulates the inclusive wall
   time of its direct children so self time is a subtraction at span end,
   not a tree walk. *)
type frame = {
  f_name : string;
  f_t0 : float;
  f_w0 : float; (* Gc.minor_words at entry *)
  mutable f_child_s : float;
}

let frames : frame list ref = ref []

(* The profile tree: one node per distinct span path, updated once per
   completed span. *)
type pnode = {
  pn_name : string;
  mutable pn_count : int;
  mutable pn_total_s : float; (* inclusive wall *)
  mutable pn_child_s : float; (* sum of direct children's inclusive wall *)
  mutable pn_alloc_w : float; (* inclusive minor words *)
  mutable pn_errors : int;
  pn_children : (string, pnode) Hashtbl.t;
}

let new_pnode name =
  {
    pn_name = name;
    pn_count = 0;
    pn_total_s = 0.;
    pn_child_s = 0.;
    pn_alloc_w = 0.;
    pn_errors = 0;
    pn_children = Hashtbl.create 8;
  }

let profile_root = new_pnode ""

(* Reason and innermost-first span stack captured by [mark_exhaustion] at
   the instant a budget ran out — the "who ate my budget" forensics.  Only
   the first mark is kept: the initial exhaustion is the interesting one,
   the sticky re-raises that follow are fallout. *)
let exhaustion_cell : (string * string list) option ref = ref None

let mark_exhaustion reason =
  if !profiling_flag && !exhaustion_cell = None then
    exhaustion_cell := Some (reason, List.map (fun f -> f.f_name) !frames)

let exhaustion_snapshot () = !exhaustion_cell

let find_or_create parent name =
  match Hashtbl.find_opt parent.pn_children name with
  | Some n -> n
  | None ->
      let n = new_pnode name in
      Hashtbl.replace parent.pn_children name n;
      n

(* [path] is the outermost-first ancestor list (after popping the span's
   own frame); the node lives at [path @ [name]] under the root. *)
let profile_record path name dur alloc child_s err =
  let parent = List.fold_left find_or_create profile_root path in
  let n = find_or_create parent name in
  n.pn_count <- n.pn_count + 1;
  n.pn_total_s <- n.pn_total_s +. dur;
  n.pn_child_s <- n.pn_child_s +. child_s;
  n.pn_alloc_w <- n.pn_alloc_w +. alloc;
  if err then n.pn_errors <- n.pn_errors + 1

(* --- with_span -------------------------------------------------------------- *)

let with_span name f =
  if not !profiling_flag then f ()
  else begin
    let fr =
      { f_name = name; f_t0 = Unix.gettimeofday (); f_w0 = Gc.minor_words (); f_child_s = 0. }
    in
    frames := fr :: !frames;
    push_event { te_name = name; te_ph = Begin; te_ts = fr.f_t0; te_err = false };
    let finish err =
      let t1 = Unix.gettimeofday () in
      let dur = t1 -. fr.f_t0 in
      let alloc = Gc.minor_words () -. fr.f_w0 in
      (match !frames with
      | top :: rest when top == fr ->
          frames := rest;
          (match rest with
          | parent :: _ -> parent.f_child_s <- parent.f_child_s +. dur
          | [] -> ())
      | _ -> () (* unbalanced pop can only mean a reset mid-span; shrug *));
      push_event { te_name = name; te_ph = End; te_ts = t1; te_err = err };
      profile_record
        (List.rev_map (fun f -> f.f_name) !frames)
        name dur alloc fr.f_child_s err
    in
    match f () with
    | v ->
        finish false;
        v
    | exception e ->
        finish true;
        raise e
  end

(* --- profiler switches ------------------------------------------------------ *)

let enable_profiling () =
  enabled_flag := true;
  profiling_flag := true

let disable_profiling () = profiling_flag := false

(* --- profile snapshots ------------------------------------------------------ *)

type profile_node = {
  p_name : string;
  p_count : int;
  p_total_s : float;
  p_self_s : float;
  p_alloc_words : float;
  p_errors : int;
  p_children : profile_node list;
}

let rec snapshot_node n =
  let children =
    Hashtbl.fold (fun _ c acc -> snapshot_node c :: acc) n.pn_children []
    |> List.sort (fun a b -> compare b.p_total_s a.p_total_s)
  in
  {
    p_name = n.pn_name;
    p_count = n.pn_count;
    p_total_s = n.pn_total_s;
    p_self_s = Float.max 0. (n.pn_total_s -. n.pn_child_s);
    p_alloc_words = n.pn_alloc_w;
    p_errors = n.pn_errors;
    p_children = children;
  }

let profile_tree () = (snapshot_node profile_root).p_children

(* Flat attribution: aggregate the tree by span name (a recursive span's
   inclusive time is counted once per distinct path, so [total] can exceed
   wall clock for self-nested spans; [self] never double-counts). *)
let self_time_table () =
  let tbl : (string, int * float * float) Hashtbl.t = Hashtbl.create 32 in
  let rec go n =
    (if n.p_name <> "" then
       let calls, total, self =
         Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl n.p_name)
       in
       Hashtbl.replace tbl n.p_name
         (calls + n.p_count, total +. n.p_total_s, self +. n.p_self_s));
    List.iter go n.p_children
  in
  List.iter go (profile_tree ());
  Hashtbl.fold (fun name (c, t, s) acc -> (name, c, t, s) :: acc) tbl []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

(* --- trace export ----------------------------------------------------------- *)

(* Minimal JSON string escaping — span names are plain identifiers, but
   the exported trace must never be malformed whatever the caller passes. *)
let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome Trace Event Format (the JSON object form, loadable in
   chrome://tracing and Perfetto): B/E duration events on one track (tid
   0).  A process that called [exit] with spans still open would leave
   unmatched B events, so the writer tracks the open stack and
   synthesizes the missing E events at the last timestamp — the emitted
   file is always balanced. *)
let write_chrome_trace oc =
  let evs = trace_events () in
  let epoch = match evs with ev :: _ -> ev.te_ts | [] -> 0. in
  let us ts = (ts -. epoch) *. 1e6 in
  let b = Buffer.create 4096 in
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Buffer.add_string b line
  in
  let span ph ts name extra =
    emit
      (Printf.sprintf
         "{\"ph\":\"%s\",\"pid\":1,\"tid\":0,\"ts\":%.3f,\"name\":\"%s\",\"cat\":\"span\"%s}"
         ph ts (escape name) extra)
  in
  Buffer.add_string b "{\"traceEvents\":[\n";
  emit "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"conddep\"}}";
  let open_stack = ref [] in
  let last_ts = ref 0. in
  List.iter
    (fun ev ->
      last_ts := us ev.te_ts;
      match ev.te_ph with
      | Begin ->
          open_stack := ev.te_name :: !open_stack;
          span "B" !last_ts ev.te_name ""
      | End ->
          (match !open_stack with _ :: rest -> open_stack := rest | [] -> ());
          span "E" !last_ts ev.te_name (if ev.te_err then ",\"args\":{\"err\":true}" else ""))
    evs;
  (* close anything left open *)
  List.iter (fun name -> span "E" !last_ts name "") !open_stack;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.output_buffer oc b;
  Stdlib.flush oc

(* Folded-stack output for flamegraph.pl / inferno: one line per profile
   tree path, weighted by self time in microseconds. *)
let write_folded oc =
  let rec go prefix n =
    let path = if prefix = "" then n.p_name else prefix ^ ";" ^ n.p_name in
    let self_us = int_of_float (n.p_self_s *. 1e6) in
    if self_us > 0 then Printf.fprintf oc "%s %d\n" path self_us;
    List.iter (go path) n.p_children
  in
  List.iter (go "") (profile_tree ());
  Stdlib.flush oc

(* --- reporting helpers ----------------------------------------------------- *)

let dur_to_string s =
  if s >= 1. then Printf.sprintf "%.3fs" s
  else if s >= 1e-3 then Printf.sprintf "%.3fms" (s *. 1e3)
  else Printf.sprintf "%.1fus" (s *. 1e6)

let reset () =
  Hashtbl.iter (fun _ c -> c := 0) counters;
  frames := [];
  trace_buf := [];
  trace_len := 0;
  Hashtbl.reset profile_root.pn_children;
  exhaustion_cell := None
