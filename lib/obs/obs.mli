(** Observability for the KIT-DPE tree: counters, gauges and
    DDSketch-style quantile sketches (the one latency type) backed by
    per-domain sharded cells (merge-on-read, lock-free writes), spans
    with trace causality and a Chrome [trace_event] exporter, rolling
    time-window aggregation, and an OpenMetrics / versioned-JSON export
    layer.

    The whole subsystem sits behind one atomic guard, {!enabled}: with it
    off (the default), every instrumentation point in the tree performs a
    single atomic load and allocates nothing, so the tier-1 performance
    paths are untouched.  Set the [KITDPE_OBS] environment variable to
    [1]/[true]/[yes]/[on] to enable it at startup, or call
    {!set_enabled} at runtime ([dpe_cli stats] and the bench trajectory
    do).

    Naming convention for registered metrics:
    [kitdpe.<layer>.<name>] — e.g. [kitdpe.crypto.ope.cache_hits].  A
    timed section records once, into one sketch named for the section
    ([kitdpe.crypto.det.encrypt]), via {!observe_since}.
    Everything outside [kitdpe.parallel.*] counts workload semantics and
    is invariant under [KITDPE_DOMAINS]; the [kitdpe.parallel.*] family
    (per-lane task counts, busy nanoseconds) describes the execution
    substrate and varies with the pool size by design. *)

val enabled : bool Atomic.t
(** The single global guard.  Prefer {!set_enabled} / {!is_enabled}. *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val now_ns : unit -> int
(** Wall-clock nanoseconds (microsecond granularity) as a native int. *)

val time_start : unit -> int
(** [now_ns ()] when enabled, [0] when disabled — the [0] sentinel makes
    {!observe_since} a no-op, so a timed section costs one atomic load
    when telemetry is off:
    {[ let t0 = Obs.time_start () in
       ... work ...
       ignore (Obs.observe_since sketch t0) ]} *)

module Metric : sig
  (** Sharded metric cells.  Writers hash [Domain.self ()] to a shard and
      update it with one [Atomic.fetch_and_add]; readers merge all shards.
      No locks; all update functions are gated on {!enabled}. *)

  type counter
  type gauge

  val counter : unit -> counter
  (** An unregistered counter (tests); production code uses
      {!Registry.counter}. *)

  val incr : counter -> unit
  val add : counter -> int -> unit

  val value : counter -> int
  (** Merge-on-read sum over all shards. *)

  val reset_counter : counter -> unit

  val gauge : unit -> gauge
  (** Gauge writes are {e not} gated on {!enabled}: they record cold-path
      configuration (one atomic store, no allocation) and must survive a
      later [set_enabled true]. *)

  val set_gauge : gauge -> int -> unit
  val gauge_value : gauge -> int
  val reset_gauge : gauge -> unit
end

module Sketch : sig
  (** DDSketch-style relative-error quantile sketch, the one latency
      type: geometric buckets of ratio [(1+alpha)/(1-alpha)], so any
      reported quantile is within {!alpha} (1%) relative error of the
      true order statistic.  Same sharded, lock-free,
      zero-cost-when-disabled discipline as {!Metric}. *)

  type t

  val alpha : float
  val gamma : float
  val bucket_count : int

  val create : unit -> t
  (** An unregistered sketch (tests); production code uses
      {!Registry.sketch}. *)

  val observe : t -> ?trace_id:int -> ?span_id:int -> int -> unit
  (** Record one observation (nanoseconds).  A new maximum keeps the
      supplied span context as the outlier {!exemplar}.  Timed sections
      use {!Obs.observe_since}; a direct call is for a value timed
      elsewhere whose exemplar is not the current span (the pool
      task). *)

  val count : t -> int
  val sum : t -> int
  val max_value : t -> int

  type exemplar = { ex_value : int; ex_trace : int; ex_span : int }

  val exemplar : t -> exemplar option
  (** Span context of the largest observation — links a latency outlier
      back to its trace. *)

  val quantile : t -> float -> float option
  (** [quantile s q] for [q] in [0, 1]; [None] when empty. *)

  val sparse : t -> (int * int) list
  (** Non-empty buckets as [(bucket_index, count)], ascending. *)

  val quantile_of_sparse : (int * int) list -> float -> float option
  val bucket_of : int -> int
  val value_of_bucket : int -> float
  val reset : t -> unit
end

module Registry : sig
  (** Process-wide [name -> metric] table.  Creation is get-or-create
      under a mutex (cold path); lookups by the instrumented modules
      happen once at module initialization. *)

  val counter : string -> Metric.counter
  val gauge : string -> Metric.gauge

  val sketch : string -> Sketch.t
  (** Get or create.  @raise Invalid_argument if [name] is already
      registered with a different kind. *)

  type value =
    | Vcounter of int
    | Vgauge of int
    | Vsketch of {
        count : int;
        sum : int;
        max : int;
        p50 : float;
        p90 : float;
        p99 : float;
        exemplar : (int * int * int) option;
            (** [(value_ns, trace_id, span_id)] of the largest
                observation. *)
      }

  type sample = { name : string; value : value }

  val snapshot : unit -> sample list
  (** Merge-on-read snapshot of every registered metric, sorted by
      name. *)

  val find : string -> value option

  val reset : unit -> unit
  (** Zero every registered metric (keeps registrations). *)

  val dump : Format.formatter -> unit
  (** Human-readable one-line-per-metric text dump. *)

  val dump_json : unit -> string
  (** The snapshot as one JSON object:
      [{"<name>": {"type": "counter", "value": n}, ...}]; sketches
      carry [count]/[sum_ns]/[max_ns], p50/p90/p99 and an optional
      outlier [exemplar]. *)
end

module Span : sig
  (** Coarse-grained timed sections collected into a bounded ring buffer
      (completion order; oldest events are overwritten and counted as
      dropped, also registered as [kitdpe.obs.span.dropped]).  Every
      span carries a trace id and a parent span id; the current context
      is domain-local and transplantable across lanes. *)

  type context = { trace : int; span : int }

  val root_context : context

  val current : unit -> context
  (** The calling domain's context (domain-local read, no allocation). *)

  val new_span_id : unit -> int

  val child_context : context -> context
  (** Fresh span id under the parent's trace (fresh trace at root). *)

  val with_context : context -> (unit -> 'a) -> 'a
  (** Run the thunk with the given context installed as current
      (restored after); a direct call when disabled.  [Parallel.Pool]
      uses this to parent lane-side spans on the submitting span. *)

  type event = {
    name : string;
    cat : string;
    ts_ns : int;
    dur_ns : int;
    tid : int;  (** domain id *)
    trace_id : int;
    span_id : int;
    parent_id : int;  (** 0 = root *)
  }

  val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a
  (** Run the thunk and record one event; when disabled this is a direct
      call to the thunk.  The event is recorded even if the thunk
      raises, and is the parent of any span started inside the thunk. *)

  val record :
    ?cat:string ->
    ?trace_id:int ->
    ?span_id:int ->
    ?parent_id:int ->
    name:string ->
    ts_ns:int ->
    dur_ns:int ->
    unit ->
    unit
  (** Record a pre-timed event (for call sites that avoid closures on
      the hot path).  Ids default to a fresh span id parented on the
      current context. *)

  val events : unit -> event list
  val dropped : unit -> int
  val clear : unit -> unit

  val set_capacity : int -> unit
  (** Resize the ring (drops buffered events); default capacity 8192. *)
end

module Window : sig
  (** Rolling time-window aggregation: a bounded ring of epoch snapshots
      (default 60 x 1 s) over the registry, yielding ops/s rates and
      recent quantiles as deltas against the oldest in-window epoch.
      [?now] (ns) is injectable everywhere for deterministic tests. *)

  val default_epochs : int
  val default_epoch_ns : int

  val configure : ?epochs:int -> ?epoch_ns:int -> unit -> unit
  (** Resize the ring / set the epoch length; drops buffered epochs. *)

  val reset : unit -> unit

  val tick : ?now:int -> unit -> unit
  (** Rotate if the newest epoch is at least one epoch old; no-op when
      telemetry is disabled. *)

  val force : ?now:int -> unit -> unit
  (** Rotate unconditionally. *)

  val rate : ?now:int -> ?window_ns:int -> string -> float option
  (** Events per second over the window for a counter or sketch. *)

  val quantile : ?now:int -> ?window_ns:int -> string -> float -> float option
  (** Recent quantile of a registered sketch (live minus baseline
      buckets). *)

  val epoch_count : unit -> int
  val epoch_ns : unit -> int
  val capacity : unit -> int
end

module Trace : sig
  (** Chrome [trace_event] exporter: loads in [chrome://tracing] and
      Perfetto.  Spans become "X" (complete) events, one track per
      domain, with trace/span/parent ids under [args]; cross-domain
      parent edges become flow ("s"/"f") arrows; the registry snapshot
      rides along under [otherData.metrics]. *)

  val to_string : unit -> string
  val write_file : string -> unit
end

module Json : sig
  (** Minimal JSON reader for the export layer's own artifacts. *)

  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  val member : string -> t -> t option
  val to_num : t -> float option
  val to_str : t -> string option
  val to_list : t -> t list option
  val to_obj : t -> (string * t) list option
  val to_int : t -> int option
end

module Export : sig
  (** OpenMetrics text exposition plus the versioned JSON snapshot
      schema shared by [dpe_cli stats]/[top] and the bench ["metrics"]
      stamp. *)

  val schema_name : string
  val schema_version : int

  val refresh_runtime : unit -> unit
  (** Refresh the [kitdpe.runtime.*] gauges from [Gc.quick_stat]
      (automatic inside the two renderers). *)

  val openmetrics : unit -> string
  (** OpenMetrics/Prometheus text format, terminated by [# EOF]. *)

  val snapshot_json : ?now:int -> unit -> string
  (** [{"schema": "kitdpe.metrics", "schema_version": 1, ...,
        "window": {..., "rates", "quantiles"}, "metrics": {...}}]. *)

  val diff : old_json:string -> (string, string) result
  (** Old/new/delta table of the live registry against a saved
      {!snapshot_json}; names only the old snapshot holds (an entry of
      the removed ["histogram"] kind too) are listed as [gone]. *)
end

val observe_since : Sketch.t -> int -> int
(** [observe_since sketch t0] is the one way to time a section: it reads
    the clock once, records [now_ns () - t0] into [sketch] with the
    current span as the outlier exemplar, and returns that elapsed time
    so the caller can reuse it for its [Span.record].  On the [t0 = 0]
    {!time_start} sentinel it returns [0] and records nothing. *)
