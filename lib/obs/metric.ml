(* Metric cells sharded by domain id.

   Writers pick a shard from [Domain.self ()] and bump it with one
   [Atomic.fetch_and_add]; two domains of a [Parallel.Pool] therefore
   never contend on the same cell (until more than [shard_count] domains
   exist, at which point updates stay correct and merely share cells).
   Readers merge all shards on demand — there is no lock anywhere.

   Every counter write is gated on [Control.is_on], so with observability
   off an instrumented hot path costs exactly one atomic load and
   allocates nothing.  Latencies are not recorded here: [Sketch] layers
   its DDSketch buckets over these cells. *)

let shard_count = 16 (* power of two, >= any realistic pool size *)

let shard_index () = (Domain.self () :> int) land (shard_count - 1)

type cells = int Atomic.t array

let make_cells () = Array.init shard_count (fun _ -> Atomic.make 0)
let merge (cells : cells) = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 cells
let clear_cells (cells : cells) = Array.iter (fun c -> Atomic.set c 0) cells

(* ---- counters ---- *)

type counter = cells

let counter () : counter = make_cells ()

let add (c : counter) n =
  if Control.is_on () then ignore (Atomic.fetch_and_add c.(shard_index ()) n)

let incr c = add c 1
let value : counter -> int = merge
let reset_counter : counter -> unit = clear_cells

(* ---- gauges ---- *)

(* last-write-wins; set from one place at a time (pool sizes, config),
   so a single cell suffices.  Unlike counters and sketches, gauge writes
   are NOT gated on the enabled flag: they record cold-path configuration
   (an atomic store, no allocation), and gating them would lose values
   set before telemetry is switched on — e.g. the pool size gauge when
   the global pool is created at startup and [Obs] is enabled later. *)
type gauge = int Atomic.t

let gauge () : gauge = Atomic.make 0
let set_gauge (g : gauge) v = Atomic.set g v
let gauge_value : gauge -> int = Atomic.get
let reset_gauge (g : gauge) = Atomic.set g 0
