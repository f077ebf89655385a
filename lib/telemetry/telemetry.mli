(** Process-wide telemetry: monotonic counters, duration histograms with
    fixed log-scale buckets, nested span tracing, and an optional profiler
    (hierarchical span-tree attribution plus trace export), feeding a
    pluggable sink.

    Everything is disabled by default.  Every record site checks the single
    global flag first, and the disabled path allocates nothing — create
    counters/histograms once at module-initialisation time and the hot-path
    cost is a load, a test and (when enabled) an in-place mutation.

    Metric keys follow [subsystem.event] — dots separate levels,
    snake_case within a level (e.g. [sat.decisions],
    [checking.cfd.kcfd_retries]). *)

(** {1 Global switch} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** {1 Monotonic counters} *)

type counter

val counter : ?doc:string -> string -> counter
(** Create-or-find the counter registered under [name].  Counters are
    process-global; calling twice with the same name returns the same
    counter.  Intended to be called at module-initialisation time. *)

val incr : counter -> unit
(** Add one; no-op (and allocation-free) when telemetry is disabled. *)

val add : counter -> int -> unit
(** Add [n >= 0]; raises [Invalid_argument] on negative deltas (counters
    are monotonic).  No-op when disabled. *)

val count : counter -> int

(** {1 Gauges}

    Pull-based point-in-time values: a registered callback is sampled at
    snapshot/flush time, never on a hot path.  This lets leaf libraries
    that cannot depend on telemetry (e.g. the relational interner) be
    observed — the application registers a closure over their size
    accessors (cf. [cindtool]'s interner gauges). *)

val register_gauge : ?doc:string -> string -> (unit -> int) -> unit
(** [register_gauge name read] registers (or replaces) the gauge [name];
    [read] must be cheap and total. *)

val gauge_snapshot : unit -> (string * int) list
(** Sample every registered gauge, sorted by name. *)

val gauge_docs : unit -> (string * string) list

(** {1 Duration histograms} *)

type histogram

val bucket_bounds : float array
(** Upper bounds of the fixed log-scale buckets, in seconds: two per decade
    from 1µs to 100s; values above the last bound land in an overflow
    bucket.  A value [v] lands in the first bucket with [v <= bound]. *)

val histogram : string -> histogram
(** Create-or-find, like {!counter}. *)

val observe : histogram -> float -> unit
(** Record one duration (seconds).  No-op when disabled. *)

(** {1 Spans} *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()], records the duration into the
    histogram registered under [name], and emits a span event to the
    current sink.  Nests; unwinds correctly when [f] raises (the span is
    recorded with an error mark and the exception re-raised).  When
    telemetry is disabled this is exactly [f ()].  When profiling is
    additionally enabled, the completed span is attributed into the
    profile tree and begin/end events are kept for trace export. *)

val span_depth : unit -> int
(** Current span nesting depth on the calling domain (0 outside any
    span). *)

(** {1 Profiler}

    A second, heavier tier on top of {!enable}: spans additionally feed a
    merged hierarchical profile tree (per-path call counts, total/self
    wall time, minor-word allocation delta) and per-domain begin/end
    buffers for trace export.  {!enable_profiling} implies {!enable}. *)

val profiling : unit -> bool
val enable_profiling : unit -> unit
val disable_profiling : unit -> unit

type profile_node = {
  p_name : string;
  p_count : int;  (** completed spans at this path *)
  p_total_s : float;  (** inclusive wall time *)
  p_self_s : float;  (** total minus direct children's inclusive time *)
  p_alloc_words : float;  (** inclusive minor words on the emitting domain *)
  p_errors : int;  (** spans that ended by exception *)
  p_children : profile_node list;  (** sorted by total, descending *)
}

val profile_tree : unit -> profile_node list
(** Snapshot of the merged profile tree's roots, aggregated across all
    domains, children sorted by inclusive time. *)

val self_time_table : unit -> (string * int * float * float) list
(** Flat per-span-name attribution [(name, calls, total_s, self_s)],
    sorted by self time descending.  Self times never double-count, so
    they sum to at most the profiled wall time. *)

val instant : string -> unit
(** Record an instant event on the calling domain's trace track (a thin
    vertical marker in the Chrome trace).  No-op unless profiling. *)

val mark_exhaustion : string -> unit
(** Called by [Guard] at the instant a budget ran out: captures [reason]
    and the calling domain's live span stack (innermost first).  Only the
    first mark is kept — later sticky re-raises are fallout, not cause.
    No-op unless profiling. *)

val exhaustion_snapshot : unit -> (string * string list) option
(** The first exhaustion mark, if any: (reason, innermost-first span
    stack at the moment the budget ran out). *)

(** {1 Trace export} *)

type trace_event = {
  te_name : string;
  te_ph : char;  (** ['B'] begin, ['E'] end, ['i'] instant *)
  te_ts : float;  (** absolute Unix time, seconds *)
  te_tid : int;  (** emitting domain's id *)
  te_err : bool;
}

val trace_events : unit -> trace_event list
(** All buffered trace events, per-domain buffers concatenated in
    registration order (within one domain, chronological). *)

val write_chrome_trace : out_channel -> unit
(** Write the buffered events as a Chrome Trace Event Format JSON object
    (loadable in [chrome://tracing] / Perfetto): B/E duration events with
    one [tid] track per domain, thread-name metadata, timestamps in
    microseconds relative to the earliest event.  Unmatched begins (e.g.
    a process that exited mid-span) get synthesized end events, so the
    output is always balanced. *)

val write_folded : out_channel -> unit
(** Write the profile tree as folded stacks ([a;b;c <self_us>] lines) for
    [flamegraph.pl] / [inferno flamegraph]. *)

(** {1 Sinks} *)

type sink =
  | Null  (** discard span events; snapshots still accumulate *)
  | Pretty of Format.formatter  (** human-readable, for [--trace] *)
  | Jsonl of out_channel  (** one JSON object per line, for [--metrics] *)

val set_sink : sink -> unit

val flush_metrics : unit -> unit
(** Write every registered counter and histogram to the current sink (one
    JSON line each for [Jsonl]; a report block for [Pretty]). *)

(** {1 Snapshots and reports} *)

type histogram_stats = {
  hs_count : int;
  hs_sum : float;  (** seconds *)
  hs_buckets : (float * int) list;  (** (upper bound, count); [infinity] = overflow *)
}

val counter_snapshot : unit -> (string * int) list
(** All registered counters with their current values, sorted by name. *)

val histogram_snapshot : unit -> (string * histogram_stats) list
val counter_docs : unit -> (string * string) list

val quantile : histogram_stats -> float -> float
(** [quantile hs q] estimates the q-th quantile (q in [0,1]) from the
    log-scale buckets by rank walk plus geometric interpolation within
    the bucket.  [nan] when the histogram is empty. *)

val dur_to_string : float -> string
(** Human-scaled duration: ["1.234s"], ["5.678ms"], ["9.1us"]; ["n/a"]
    for [nan]. *)

val reset : unit -> unit
(** Zero every counter and histogram (registrations survive), clear span
    depth, the profile tree, the exhaustion mark, and all trace buffers.
    A quiesced-state operation: never call concurrently with instrumented
    work on other domains. *)

val pp_report : Format.formatter -> unit -> unit

val json_of_counters : ?label:string * string -> (string * int) list -> string
(** One-line JSON object [{"counters":{...}}], optionally tagged with a
    leading [label] key/value — the bench per-series metric blocks. *)

(** {1 Parsing the JSON-lines format back} *)

type event =
  | Counter_event of { name : string; value : int }
  | Gauge_event of { name : string; value : int }
  | Histogram_event of { name : string; stats : histogram_stats }
  | Span_event of { name : string; dur_s : float; depth : int; tid : int; err : bool }

val parse_event : string -> event option
(** Parse one line previously written by the [Jsonl] sink.  Returns [None]
    on anything else (it is a scanner for our own output, not a general
    JSON parser). *)
