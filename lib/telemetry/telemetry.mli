(** Process-wide telemetry: monotonic counters, pull-based gauges, and a
    profiler (hierarchical span-tree attribution plus trace export).

    Everything is disabled by default.  {!enable} makes counters count;
    {!enable_profiling} additionally makes {!with_span} feed the profile
    tree and the trace buffer.  Every record site checks one global flag
    first, and the disabled paths allocate nothing — create counters once
    at module-initialisation time and the hot-path cost is a load, a test
    and (when enabled) a store.

    [lib/] runs on one domain and must be driven from one domain: the
    counters, the live span stack, the trace buffer and the profile tree
    are plain mutable state, shared by every caller and locked by none.

    Metric keys follow [subsystem.event] — dots separate levels,
    snake_case within a level (e.g. [sat.decisions],
    [checking.cfd.kcfd_retries]). *)

(** {1 Global switch} *)

val enable : unit -> unit
val disable : unit -> unit

(** {1 Monotonic counters} *)

type counter

val counter : ?doc:string -> string -> counter
(** Create-or-find the counter registered under [name].  Counters are
    process-global; calling twice with the same name returns the same
    counter.  Intended to be called at module-initialisation time.
    [doc] describes the counter at its registration site; it is not
    stored. *)

val incr : counter -> unit
(** Add one; no-op (and allocation-free) when telemetry is disabled. *)

val add : counter -> int -> unit
(** Add [n >= 0]; raises [Invalid_argument] on negative deltas (counters
    are monotonic).  No-op when disabled. *)

val count : counter -> int

val counter_snapshot : unit -> (string * int) list
(** All registered counters with their current values, sorted by name. *)

(** {1 Gauges}

    Pull-based point-in-time values: a registered callback is sampled at
    snapshot time, never on a hot path — e.g. [incremental.cache_entries],
    the live verdict-cache entries across all sessions, read from a
    counter the sessions maintain. *)

val register_gauge : ?doc:string -> string -> (unit -> int) -> unit
(** [register_gauge name read] registers (or replaces) the gauge [name];
    [read] must be cheap and total.  [doc] is as for {!counter}. *)

val gauge_snapshot : unit -> (string * int) list
(** Sample every registered gauge, sorted by name. *)

(** {1 Profiler}

    Spans feed a hierarchical profile tree (per-path call counts,
    total/self wall time, minor-word allocation delta) and a begin/end
    event buffer for trace export (at most 10{^6} events; the rest are
    counted by [profile.events_dropped]).  {!enable_profiling} implies
    {!enable}. *)

val profiling : unit -> bool
val enable_profiling : unit -> unit
val disable_profiling : unit -> unit

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] as a span named [name].  When profiling
    is off this is exactly [f ()].  When it is on, the span is attributed
    into the profile tree and its begin/end events are kept for trace
    export.  Nests; unwinds correctly when [f] raises (the span is recorded
    with an error mark and the exception re-raised). *)

type profile_node = {
  p_name : string;
  p_count : int;  (** completed spans at this path *)
  p_total_s : float;  (** inclusive wall time *)
  p_self_s : float;  (** total minus direct children's inclusive time *)
  p_alloc_words : float;  (** inclusive minor words *)
  p_errors : int;  (** spans that ended by exception *)
  p_children : profile_node list;  (** sorted by total, descending *)
}

val profile_tree : unit -> profile_node list
(** Snapshot of the profile tree's roots, children sorted by inclusive
    time. *)

val self_time_table : unit -> (string * int * float * float) list
(** Flat per-span-name attribution [(name, calls, total_s, self_s)],
    sorted by self time descending.  Self times never double-count, so
    they sum to at most the profiled wall time. *)

val mark_exhaustion : string -> unit
(** Called by [Guard] at the instant a budget ran out: captures [reason]
    and the live span stack (innermost first).  Only the
    first mark is kept — later sticky re-raises are fallout, not cause.
    No-op unless profiling. *)

val exhaustion_snapshot : unit -> (string * string list) option
(** The first exhaustion mark, if any: (reason, innermost-first span
    stack at the moment the budget ran out). *)

(** {1 Trace export} *)

type phase = Begin | End  (** a span's Chrome ["B"] and ["E"] events *)

type trace_event = {
  te_name : string;
  te_ph : phase;
  te_ts : float;  (** absolute Unix time, seconds *)
  te_err : bool;
}

val trace_events : unit -> trace_event list
(** All buffered trace events, in chronological order. *)

val write_chrome_trace : out_channel -> unit
(** Write the buffered events as a Chrome Trace Event Format JSON object
    (loadable in [chrome://tracing] / Perfetto): B/E duration events on
    one track ([tid] 0), timestamps in microseconds relative to the first
    event.  Unmatched begins (e.g. a process that exited mid-span) get
    synthesized end events, so the output is always balanced. *)

val write_folded : out_channel -> unit
(** Write the profile tree as folded stacks ([a;b;c <self_us>] lines) for
    [flamegraph.pl] / [inferno flamegraph]. *)

(** {1 Reporting} *)

val dur_to_string : float -> string
(** Human-scaled duration: ["1.234s"], ["5.678ms"], ["9.1us"]. *)

val reset : unit -> unit
(** Zero every counter (registrations survive) and clear the live span
    stack, the profile tree, the exhaustion mark and the trace buffer. *)
