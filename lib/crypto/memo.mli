(** Bounded, domain-safe plaintext → ciphertext memo owned by each
    {!Det} and {!Ope} key.

    Both classes are deterministic, so a hit returns exactly the
    ciphertext the key would recompute: the memo never changes output.
    It holds at most [bound] entries and is dropped wholesale when
    full.  A mutex guards it, because bulk encryption shares keys across
    the lanes of a pool. *)

type ('k, 'v) t

type stats = { hits : int; misses : int; evictions : int; size : int }
(** [hits]/[misses] count lookups, [evictions] counts entries dropped by
    the bound (not by {!clear}), [size] is the current entry count. *)

val create :
  hits:Obs.Metric.counter -> misses:Obs.Metric.counter
  -> evictions:Obs.Metric.counter -> ('k, 'v) t
(** An empty memo with a bound of 2^16 entries.  The counters aggregate
    every memo of one class in the [Obs] registry. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add m k compute] returns the memoized value of [k], or runs
    [compute] outside the lock and memoizes its result.  If [compute]
    raises, nothing is memoized. *)

val stats : ('k, 'v) t -> stats
val size : ('k, 'v) t -> int

val clear : ('k, 'v) t -> unit
(** Drop every entry; not counted as an eviction. *)
