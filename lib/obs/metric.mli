(** Metric cells sharded by domain id.

    Writers pick a shard from [Domain.self ()] and bump it with one
    [Atomic.fetch_and_add]; readers merge all shards on demand.  No
    locks anywhere.  Counter updates are gated on {!Control.enabled},
    so with observability off an instrumented hot path costs exactly one
    atomic load and allocates nothing.  Latencies go to [Sketch], the
    only timing type. *)

type counter
type gauge

val counter : unit -> counter
(** An unregistered counter (tests); production code uses
    [Registry.counter]. *)

val incr : counter -> unit
val add : counter -> int -> unit

val value : counter -> int
(** Merge-on-read sum over all shards. *)

val reset_counter : counter -> unit

val gauge : unit -> gauge
(** Gauge writes are {e not} gated on the enabled flag: they record
    cold-path configuration (one atomic store, no allocation) and must
    survive a later [set_enabled true]. *)

val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int
val reset_gauge : gauge -> unit

(** {2 Sharding internals}

    Shared with [Sketch], which layers DDSketch buckets over the same
    per-domain cells.  Hidden from the public [Obs] facade. *)

type cells = int Atomic.t array
(** One shard per slot; a writer bumps [cells.(shard_index ())]. *)

val shard_count : int
val shard_index : unit -> int
val make_cells : unit -> cells
val merge : cells -> int
val clear_cells : cells -> unit
