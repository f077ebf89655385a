(* Process-wide telemetry: monotonic counters, duration histograms with
   fixed log-scale buckets, nested span tracing, and an optional profiler
   (hierarchical span attribution + trace export), feeding a pluggable
   sink (no-op, stderr pretty-printer, JSON-lines writer).

   Design constraints (see DESIGN.md, "Observability" and "Profiling &
   trace export"):
   - near-zero overhead when disabled: every record site is guarded by the
     single [enabled] flag, and the disabled path allocates nothing —
     counters and histograms are created once at module-initialisation
     time, so [incr]/[add]/[observe] are a load, a test and (when enabled)
     an in-place mutation;
   - recording never perturbs the algorithms: no RNG use, no reordering,
     no exceptions (sink I/O errors are the caller's problem at flush
     time, not the instrumented code's);
   - domain-safe: the libraries run on their caller's domain, and a
     caller may drive them from several domains at once.  Counters are [Atomic] (the disabled path is still
     a load and a test); histograms take a per-histogram mutex only when
     enabled; span depth and the profiler's frame stack are domain-local;
     sink emission is serialized so lines never interleave; trace events
     go to per-domain buffers (no lock on the append path) and the merged
     profile tree is mutated under one mutex, once per completed span;
   - metric keys follow [subsystem.event] (dots separate levels,
     snake_case within a level), e.g. [sat.decisions],
     [checking.cfd.kcfd_retries]. *)

(* --- global switches ------------------------------------------------------ *)

let enabled_flag = ref false

let enabled () = !enabled_flag
let enable () = enabled_flag := true
let disable () = enabled_flag := false

(* Profiling is a second, heavier tier on top of [enabled]: spans
   additionally feed the profile tree and the per-domain trace buffers.
   It implies [enabled] (a profiler without span events is useless) but
   not the other way round — [--trace]/[--metrics] keep their old cost. *)
let profiling_flag = ref false

let profiling () = !profiling_flag

(* --- counters ------------------------------------------------------------ *)

(* Registries are mutated at module-initialisation time in the common case,
   but lazily-created metrics can race with other domains; one mutex
   serializes registration (never the hot record path). *)
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

type counter = { c_name : string; c_doc : string; c_count : int Atomic.t }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter ?(doc = "") name =
  with_registry @@ fun () ->
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_doc = doc; c_count = Atomic.make 0 } in
      Hashtbl.replace counters name c;
      c

let incr c = if !enabled_flag then Atomic.incr c.c_count

let add c n =
  if n < 0 then invalid_arg "Telemetry.add: counters are monotonic";
  if !enabled_flag then ignore (Atomic.fetch_and_add c.c_count n)

let count c = Atomic.get c.c_count

(* --- gauges -------------------------------------------------------------- *)

(* Gauges are pull-based: a registered callback is sampled at snapshot /
   flush time, never on a hot path.  This lets leaf libraries that cannot
   depend on telemetry (e.g. the relational interner) be observed by
   having the application register a closure over their size accessors. *)

type gauge = { g_name : string; g_doc : string; g_read : unit -> int }

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let register_gauge ?(doc = "") name read =
  with_registry @@ fun () ->
  Hashtbl.replace gauges name { g_name = name; g_doc = doc; g_read = read }

(* --- histograms ---------------------------------------------------------- *)

(* Fixed log-scale bucket upper bounds, in seconds: two buckets per decade
   from 1µs to 100s (10^(k/2) for k = -12 .. 4), plus an overflow bucket.
   A value v lands in the first bucket with v <= bound. *)
let bucket_bounds =
  Array.init 17 (fun i -> 10. ** (float_of_int (i - 12) /. 2.))

let num_buckets = Array.length bucket_bounds + 1 (* + overflow *)

type histogram = {
  h_name : string;
  h_mutex : Mutex.t; (* histograms mutate three fields together *)
  h_buckets : int array; (* length [num_buckets]; last = overflow *)
  mutable h_count : int;
  mutable h_sum : float; (* seconds *)
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

let histogram name =
  with_registry @@ fun () ->
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          h_name = name;
          h_mutex = Mutex.create ();
          h_buckets = Array.make num_buckets 0;
          h_count = 0;
          h_sum = 0.;
        }
      in
      Hashtbl.replace histograms name h;
      h

let bucket_of v =
  let n = Array.length bucket_bounds in
  let rec go i = if i >= n then n else if v <= bucket_bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  if !enabled_flag then begin
    Mutex.lock h.h_mutex;
    h.h_buckets.(bucket_of v) <- h.h_buckets.(bucket_of v) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    Mutex.unlock h.h_mutex
  end

(* --- sinks --------------------------------------------------------------- *)

type sink =
  | Null
  | Pretty of Format.formatter
  | Jsonl of out_channel

let sink = ref Null

let set_sink s = sink := s

(* Minimal JSON string escaping — metric names are plain identifiers, but
   sinks must never emit malformed lines whatever the caller passes. *)
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

(* --- spans --------------------------------------------------------------- *)

(* Span nesting is a per-domain notion: one domain's spans nest among
   themselves, not into whatever another domain is timing. *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let depth () = Domain.DLS.get depth_key

let span_depth () = !(depth ())

(* One emit at a time: concurrent spans from several domains must not
   interleave bytes within a line.  Every span line additionally carries
   the emitting domain's id ([tid]) so a reader can reconstruct one stack
   per domain — depth alone is ambiguous once two domains emit. *)
let emit_mutex = Mutex.create ()

let self_tid () = (Domain.self () :> int)

let emit_span name dur err =
  let d = !(depth ()) in
  match !sink with
  | Null -> ()
  | Pretty ppf ->
      Mutex.lock emit_mutex;
      Format.fprintf ppf "[span]%s %s%s %.6fs@."
        (String.make (2 * d) ' ')
        name
        (if err then " !" else "")
        dur;
      Mutex.unlock emit_mutex
  | Jsonl oc ->
      Mutex.lock emit_mutex;
      Printf.fprintf oc
        "{\"ev\":\"span\",\"name\":\"%s\",\"dur_s\":%.9f,\"depth\":%d,\"tid\":%d%s}\n"
        (escape name) dur d (self_tid ())
        (if err then ",\"err\":true" else "");
      Mutex.unlock emit_mutex

let record_span name dur err =
  observe (histogram name) dur;
  emit_span name dur err

(* --- profiler: trace event buffers ---------------------------------------- *)

(* Completed (and begun) spans are kept as begin/end events for the Chrome
   Trace Event export, one buffer per domain: the append path is entirely
   domain-local (no lock, no contention with other domains), and buffers
   outlive their domains so a joined domain's track survives it.  The
   per-domain cap bounds memory on runaway runs; drops are counted, never
   silent. *)

type trace_event = {
  te_name : string;
  te_ph : char; (* 'B' begin | 'E' end | 'i' instant *)
  te_ts : float; (* absolute Unix time, seconds *)
  te_tid : int; (* emitting domain's id *)
  te_err : bool;
}

let trace_cap = 1_000_000

let m_dropped =
  (* created eagerly so the drop path never takes the registry mutex *)
  counter "profile.events_dropped"
    ~doc:"trace events discarded by the per-domain buffer cap"

type tbuf = {
  tb_tid : int;
  mutable tb_evs : trace_event array;
  mutable tb_len : int;
}

let dummy_event = { te_name = ""; te_ph = 'B'; te_ts = 0.; te_tid = 0; te_err = false }

(* All buffers ever created, oldest last; guarded by the registry mutex
   (registration is once per domain, export happens on quiesced runs). *)
let trace_bufs : tbuf list ref = ref []

let tbuf_key =
  Domain.DLS.new_key (fun () ->
      let b = { tb_tid = self_tid (); tb_evs = [||]; tb_len = 0 } in
      with_registry (fun () -> trace_bufs := b :: !trace_bufs);
      b)

let push_event b ev =
  if b.tb_len >= trace_cap then incr m_dropped
  else begin
    if b.tb_len >= Array.length b.tb_evs then begin
      let cap = max 256 (2 * Array.length b.tb_evs) in
      let grown = Array.make cap dummy_event in
      Array.blit b.tb_evs 0 grown 0 b.tb_len;
      b.tb_evs <- grown
    end;
    b.tb_evs.(b.tb_len) <- ev;
    b.tb_len <- b.tb_len + 1
  end

let instant name =
  if !profiling_flag then
    push_event (Domain.DLS.get tbuf_key)
      {
        te_name = name;
        te_ph = 'i';
        te_ts = Unix.gettimeofday ();
        te_tid = self_tid ();
        te_err = false;
      }

let trace_events () =
  let bufs = with_registry (fun () -> !trace_bufs) in
  List.concat_map
    (fun b -> List.init b.tb_len (fun i -> b.tb_evs.(i)))
    (List.rev bufs)

(* --- profiler: span-tree attribution --------------------------------------- *)

(* Live frames, innermost first, per domain.  A frame accumulates the
   inclusive wall time of its direct children so self time is a subtraction
   at span end, not a tree walk. *)
type frame = {
  f_name : string;
  f_t0 : float;
  f_w0 : float; (* Gc.minor_words at entry (per-domain statistic) *)
  mutable f_child_s : float;
}

let frames_key = Domain.DLS.new_key (fun () -> ref ([] : frame list))

(* The merged profile tree: one node per distinct span path, aggregated
   across domains (the per-domain view lives in the trace buffers; the
   tree answers "where did the time go", which wants the union).  Mutated
   under one mutex, once per completed span — spans are coarse, so this
   is nowhere near the contention profile of a per-tick lock. *)
type pnode = {
  pn_name : string;
  mutable pn_count : int;
  mutable pn_total_s : float; (* inclusive wall *)
  mutable pn_child_s : float; (* sum of direct children's inclusive wall *)
  mutable pn_alloc_w : float; (* inclusive minor words, emitting domain *)
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

let profile_mutex = Mutex.create ()
let profile_root = new_pnode ""

(* Reason and innermost-first span stack captured by [mark_exhaustion] at
   the instant a budget ran out — the "who ate my budget" forensics.  Only
   the first mark is kept: the initial exhaustion is the interesting one,
   the sticky re-raises that follow are fallout. *)
let exhaustion_cell : (string * string list) option ref = ref None

let mark_exhaustion reason =
  if !profiling_flag then begin
    let stack = List.map (fun f -> f.f_name) !(Domain.DLS.get frames_key) in
    Mutex.lock profile_mutex;
    if !exhaustion_cell = None then exhaustion_cell := Some (reason, stack);
    Mutex.unlock profile_mutex
  end

let exhaustion_snapshot () =
  Mutex.lock profile_mutex;
  let v = !exhaustion_cell in
  Mutex.unlock profile_mutex;
  v

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
  Mutex.lock profile_mutex;
  let parent = List.fold_left find_or_create profile_root path in
  let n = find_or_create parent name in
  n.pn_count <- n.pn_count + 1;
  n.pn_total_s <- n.pn_total_s +. dur;
  n.pn_child_s <- n.pn_child_s +. child_s;
  n.pn_alloc_w <- n.pn_alloc_w +. alloc;
  if err then n.pn_errors <- n.pn_errors + 1;
  Mutex.unlock profile_mutex

(* --- with_span -------------------------------------------------------------- *)

let with_span name f =
  if not !enabled_flag then f ()
  else if not !profiling_flag then begin
    let t0 = Unix.gettimeofday () in
    let d = depth () in
    Stdlib.incr d;
    match f () with
    | v ->
        Stdlib.decr d;
        record_span name (Unix.gettimeofday () -. t0) false;
        v
    | exception e ->
        Stdlib.decr d;
        record_span name (Unix.gettimeofday () -. t0) true;
        raise e
  end
  else begin
    let tid = self_tid () in
    let buf = Domain.DLS.get tbuf_key in
    let frames = Domain.DLS.get frames_key in
    let d = depth () in
    let fr =
      { f_name = name; f_t0 = Unix.gettimeofday (); f_w0 = Gc.minor_words (); f_child_s = 0. }
    in
    frames := fr :: !frames;
    Stdlib.incr d;
    push_event buf { te_name = name; te_ph = 'B'; te_ts = fr.f_t0; te_tid = tid; te_err = false };
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
      Stdlib.decr d;
      push_event buf { te_name = name; te_ph = 'E'; te_ts = t1; te_tid = tid; te_err = err };
      profile_record
        (List.rev_map (fun f -> f.f_name) !frames)
        name dur alloc fr.f_child_s err;
      record_span name dur err
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

let profile_tree () =
  Mutex.lock profile_mutex;
  let roots = (snapshot_node profile_root).p_children in
  Mutex.unlock profile_mutex;
  roots

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

let profile_reset () =
  Mutex.lock profile_mutex;
  Hashtbl.reset profile_root.pn_children;
  exhaustion_cell := None;
  Mutex.unlock profile_mutex

(* --- trace export ----------------------------------------------------------- *)

(* Chrome Trace Event Format (the JSON object form, loadable in
   chrome://tracing and Perfetto): B/E duration events with one [tid] per
   domain, plus thread-name metadata.  A process that called [exit] with
   spans still open would leave unmatched B events, so the writer tracks
   each tid's open stack and synthesizes the missing E events at that
   tid's last timestamp — the emitted file is always balanced. *)
let write_chrome_trace oc =
  let bufs = with_registry (fun () -> List.rev !trace_bufs) in
  let epoch =
    List.fold_left
      (fun acc b -> if b.tb_len > 0 then Float.min acc b.tb_evs.(0).te_ts else acc)
      infinity bufs
  in
  let epoch = if epoch = infinity then 0. else epoch in
  let us ts = (ts -. epoch) *. 1e6 in
  let b = Buffer.create 4096 in
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Buffer.add_string b line
  in
  Buffer.add_string b "{\"traceEvents\":[\n";
  emit "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"conddep\"}}";
  List.iter
    (fun tb ->
      emit
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"domain-%d\"}}"
           tb.tb_tid tb.tb_tid))
    bufs;
  List.iter
    (fun tb ->
      let open_stack = ref [] in
      let last_ts = ref 0. in
      for i = 0 to tb.tb_len - 1 do
        let ev = tb.tb_evs.(i) in
        last_ts := us ev.te_ts;
        (match ev.te_ph with
        | 'B' ->
            open_stack := ev.te_name :: !open_stack;
            emit
              (Printf.sprintf
                 "{\"ph\":\"B\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"name\":\"%s\",\"cat\":\"span\"}"
                 ev.te_tid (us ev.te_ts) (escape ev.te_name))
        | 'E' ->
            (match !open_stack with _ :: rest -> open_stack := rest | [] -> ());
            emit
              (Printf.sprintf
                 "{\"ph\":\"E\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"name\":\"%s\",\"cat\":\"span\"%s}"
                 ev.te_tid (us ev.te_ts) (escape ev.te_name)
                 (if ev.te_err then ",\"args\":{\"err\":true}" else ""))
        | _ ->
            emit
              (Printf.sprintf
                 "{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"name\":\"%s\",\"s\":\"t\"}"
                 ev.te_tid (us ev.te_ts) (escape ev.te_name)));
        ()
      done;
      (* close anything left open on this track *)
      List.iter
        (fun name ->
          emit
            (Printf.sprintf
               "{\"ph\":\"E\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"name\":\"%s\",\"cat\":\"span\"}"
               tb.tb_tid !last_ts (escape name)))
        !open_stack)
    bufs;
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

(* --- snapshots ----------------------------------------------------------- *)

type histogram_stats = {
  hs_count : int;
  hs_sum : float;
  hs_buckets : (float * int) list; (* (upper bound, count); infinity = overflow *)
}

let by_name cmp = List.sort (fun (a, _) (b, _) -> String.compare a b) cmp

let counter_snapshot () =
  Hashtbl.fold (fun name c acc -> (name, Atomic.get c.c_count) :: acc) counters []
  |> by_name

let gauge_snapshot () =
  Hashtbl.fold (fun _ g acc -> (g.g_name, g.g_read ()) :: acc) gauges []
  |> by_name

let gauge_docs () =
  Hashtbl.fold (fun _ g acc -> (g.g_name, g.g_doc) :: acc) gauges [] |> by_name

let histogram_stats h =
  Mutex.lock h.h_mutex;
  let stats =
    {
      hs_count = h.h_count;
      hs_sum = h.h_sum;
      hs_buckets =
        List.init num_buckets (fun i ->
            ( (if i < Array.length bucket_bounds then bucket_bounds.(i) else infinity),
              h.h_buckets.(i) ));
    }
  in
  Mutex.unlock h.h_mutex;
  stats

let histogram_snapshot () =
  Hashtbl.fold (fun name h acc -> (name, histogram_stats h) :: acc) histograms []
  |> by_name

let counter_docs () =
  Hashtbl.fold (fun name c acc -> (name, c.c_doc) :: acc) counters [] |> by_name

(* Estimated quantile from the log-scale buckets: find the bucket holding
   the q-th observation and log-interpolate inside it (each bucket spans a
   constant factor of sqrt(10), so the geometric interpolation matches the
   bucket layout).  An estimate, not a measurement: the true value is
   somewhere in the bucket, the interpolation just picks a defensible
   point. *)
let quantile (hs : histogram_stats) q =
  if hs.hs_count = 0 then Float.nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = Float.max 1e-9 (q *. float_of_int hs.hs_count) in
    let sqrt10 = sqrt 10. in
    let rec go cum lo = function
      | [] -> Float.nan (* unreachable: overflow bucket ends the list *)
      | (le, n) :: rest ->
          let cum' = cum +. float_of_int n in
          if n > 0 && cum' >= target then begin
            let hi = if le = infinity then lo *. sqrt10 else le in
            let lo = if lo = 0. then hi /. sqrt10 else lo in
            let frac = (target -. cum) /. float_of_int n in
            lo *. ((hi /. lo) ** frac)
          end
          else go cum' (if le = infinity then lo else le) rest
    in
    go 0. 0. hs.hs_buckets
  end

let dur_to_string s =
  if Float.is_nan s then "n/a"
  else if s >= 1. then Printf.sprintf "%.3fs" s
  else if s >= 1e-3 then Printf.sprintf "%.3fms" (s *. 1e3)
  else Printf.sprintf "%.1fus" (s *. 1e6)

let reset () =
  Hashtbl.iter (fun _ c -> Atomic.set c.c_count 0) counters;
  Hashtbl.iter
    (fun _ h ->
      Mutex.lock h.h_mutex;
      Array.fill h.h_buckets 0 num_buckets 0;
      h.h_count <- 0;
      h.h_sum <- 0.;
      Mutex.unlock h.h_mutex)
    histograms;
  depth () := 0;
  Domain.DLS.get frames_key := [];
  (* trace buffers of other domains are cleared too: reset is a quiesced-
     state operation (tests, bench section boundaries), never concurrent
     with live instrumented work *)
  with_registry (fun () -> List.iter (fun b -> b.tb_len <- 0) !trace_bufs);
  profile_reset ()

(* --- JSON-lines emission and parsing ------------------------------------- *)

let json_of_counters ?label pairs =
  let b = Buffer.create 128 in
  (match label with
  | Some (k, v) -> Buffer.add_string b (Printf.sprintf "{\"%s\":\"%s\",\"counters\":{" (escape k) (escape v))
  | None -> Buffer.add_string b "{\"counters\":{");
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" (escape name) v))
    pairs;
  Buffer.add_string b "}}";
  Buffer.contents b

let histogram_line name (hs : histogram_stats) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\"ev\":\"histogram\",\"name\":\"%s\",\"count\":%d,\"sum_s\":%.9f,\"buckets\":["
       (escape name) hs.hs_count hs.hs_sum);
  List.iteri
    (fun i (le, n) ->
      if i > 0 then Buffer.add_char b ',';
      if Float.is_integer le || le = infinity then
        Buffer.add_string b
          (Printf.sprintf "[%s,%d]" (if le = infinity then "\"inf\"" else Printf.sprintf "%.0f" le) n)
      else Buffer.add_string b (Printf.sprintf "[%.9g,%d]" le n))
    hs.hs_buckets;
  Buffer.add_string b "]}";
  Buffer.contents b

(* Write every counter and histogram to the current sink (one line each for
   the JSON-lines sink; a report block for the pretty sink). *)
let rec flush_metrics () =
  match !sink with
  | Null -> ()
  | Pretty ppf -> pp_report ppf ()
  | Jsonl oc ->
      List.iter
        (fun (name, v) ->
          Printf.fprintf oc "{\"ev\":\"counter\",\"name\":\"%s\",\"value\":%d}\n" (escape name) v)
        (counter_snapshot ());
      List.iter
        (fun (name, v) ->
          Printf.fprintf oc "{\"ev\":\"gauge\",\"name\":\"%s\",\"value\":%d}\n" (escape name) v)
        (gauge_snapshot ());
      List.iter
        (fun (name, hs) -> Printf.fprintf oc "%s\n" (histogram_line name hs))
        (histogram_snapshot ());
      Stdlib.flush oc

and pp_report ppf () =
  Format.fprintf ppf "@[<v>-- telemetry counters@,";
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-40s %d@," name v)
    (counter_snapshot ());
  (match gauge_snapshot () with
  | [] -> ()
  | gs ->
      Format.fprintf ppf "-- telemetry gauges@,";
      List.iter (fun (name, v) -> Format.fprintf ppf "%-40s %d@," name v) gs);
  Format.fprintf ppf "-- telemetry histograms (durations)@,";
  List.iter
    (fun (name, hs) ->
      Format.fprintf ppf "%-40s count=%d sum=%.6fs mean=%.6fs@," name hs.hs_count
        hs.hs_sum
        (if hs.hs_count = 0 then 0. else hs.hs_sum /. float_of_int hs.hs_count))
    (histogram_snapshot ());
  Format.fprintf ppf "@]@."

(* --- parsing our own JSON-lines back ------------------------------------- *)

type event =
  | Counter_event of { name : string; value : int }
  | Gauge_event of { name : string; value : int }
  | Histogram_event of { name : string; stats : histogram_stats }
  | Span_event of { name : string; dur_s : float; depth : int; tid : int; err : bool }

(* A tiny scanner for the exact lines the Jsonl sink writes (and the bench
   counter blocks).  Not a general JSON parser: the grammar is ours. *)

let find_field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let ll = String.length line and pl = String.length pat in
  let rec go i =
    if i + pl > ll then None
    else if String.sub line i pl = pat then Some (i + pl)
    else go (i + 1)
  in
  go 0

let string_field line key =
  match find_field line key with
  | None -> None
  | Some i when i < String.length line && line.[i] = '"' ->
      let b = Buffer.create 16 in
      let rec go j =
        if j >= String.length line then None
        else
          match line.[j] with
          | '"' -> Some (Buffer.contents b)
          | '\\' when j + 1 < String.length line ->
              (match line.[j + 1] with
              | 'n' -> Buffer.add_char b '\n'
              | 't' -> Buffer.add_char b '\t'
              | c -> Buffer.add_char b c);
              go (j + 2)
          | c ->
              Buffer.add_char b c;
              go (j + 1)
      in
      go (i + 1)
  | Some _ -> None

let number_field line key =
  match find_field line key with
  | None -> None
  | Some i ->
      let ll = String.length line in
      let j = ref i in
      while
        !j < ll
        && (match line.[!j] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        Stdlib.incr j
      done;
      if !j = i then None else float_of_string_opt (String.sub line i (!j - i))

let close_pair s i =
  let rec go j = if j >= String.length s || s.[j] = ']' then j else go (j + 1) in
  go i

(* Parse the "buckets":[[le,n],...] payload; "inf" encodes the overflow. *)
let buckets_field line =
  match find_field line "buckets" with
  | None -> None
  | Some i ->
      let ll = String.length line in
      let rec close j depth =
        if j >= ll then j
        else
          match line.[j] with
          | '[' -> close (j + 1) (depth + 1)
          | ']' -> if depth = 1 then j else close (j + 1) (depth - 1)
          | _ -> close (j + 1) depth
      in
      let stop = close i 0 in
      let payload = String.sub line i (stop - i + 1) in
      let pairs = ref [] in
      let pos = ref 1 (* skip outer '[' *) in
      let pl = String.length payload in
      (try
         while !pos < pl do
           match payload.[!pos] with
           | '[' ->
               let e = close_pair payload (!pos + 1) in
               let body = String.sub payload (!pos + 1) (e - !pos - 1) in
               (match String.split_on_char ',' body with
               | [ le; n ] ->
                   let le =
                     if le = "\"inf\"" then infinity
                     else Option.value ~default:nan (float_of_string_opt le)
                   in
                   let n = Option.value ~default:0 (int_of_string_opt (String.trim n)) in
                   pairs := (le, n) :: !pairs
               | _ -> raise Exit);
               pos := e + 1
           | _ -> Stdlib.incr pos
         done;
         Some (List.rev !pairs)
       with Exit -> None)

let parse_event line =
  match string_field line "ev" with
  | Some "counter" -> (
      match (string_field line "name", number_field line "value") with
      | Some name, Some v -> Some (Counter_event { name; value = int_of_float v })
      | _ -> None)
  | Some "gauge" -> (
      match (string_field line "name", number_field line "value") with
      | Some name, Some v -> Some (Gauge_event { name; value = int_of_float v })
      | _ -> None)
  | Some "span" -> (
      match (string_field line "name", number_field line "dur_s") with
      | Some name, Some dur_s ->
          Some
            (Span_event
               {
                 name;
                 dur_s;
                 depth =
                   (match number_field line "depth" with
                   | Some d -> int_of_float d
                   | None -> 0);
                 tid =
                   (match number_field line "tid" with
                   | Some t -> int_of_float t
                   | None -> 0);
                 err = find_field line "err" <> None;
               })
      | _ -> None)
  | Some "histogram" -> (
      match (string_field line "name", number_field line "count") with
      | Some name, Some c ->
          Some
            (Histogram_event
               {
                 name;
                 stats =
                   {
                     hs_count = int_of_float c;
                     hs_sum = Option.value ~default:0. (number_field line "sum_s");
                     hs_buckets = Option.value ~default:[] (buckets_field line);
                   };
               })
      | _ -> None)
  | _ -> None
