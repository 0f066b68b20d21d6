(** Request execution for [dpe_serve]: one request in, one response
    value out — {e always}.  Every failure below the protocol layer
    (typed errors, injected faults, stray exceptions) becomes a typed
    error response; nothing a request does can raise out of {!handle}
    or crash a worker.

    Deadline propagation: [?deadline_ns] (absolute, computed at
    arrival) is installed via [Parallel.Pool.with_deadline] for the
    request's duration, so the [_r] combinators underneath — feature
    builds, matrix rows, per-query encryption — abandon remaining work
    the moment it expires and release their pool lanes.  Only
    encrypt/mine install it; stats/health never consult a deadline and
    leave the calling thread's slot untouched.

    Graceful degradation (DESIGN.md §14): a mine whose matrix reports
    row-scoped failures is rebuilt once on the healthy subset and
    answered as status ["partial"] — labels with [-1] for excluded
    queries, an [excluded] index list, and the typed error manifest.
    Encrypt returns per-query ciphertexts with [null] for failed slots
    plus their errors; each query gets a bounded
    [Fault.Retry] budget ([request.retries]) that never outlives the
    deadline.

    Mine requests name their algorithm through the shared
    {!Mining.Algo} table; an unknown name is a [Protocol] error, answered
    before any distance is computed.

    Metrics: [kitdpe.server.requests.{encrypt,mine,stats,health}],
    [kitdpe.server.request] (latency sketch, one observation per
    request), [kitdpe.server.partial], and
    [kitdpe.server.deadline_exceeded.running]: requests whose deadline
    expired while executing (expiry while still queued is counted by
    {!Engine} as [kitdpe.server.deadline_exceeded.queued]). *)

type ctx = {
  tenants : Tenant.t;
  queue_depth : unit -> int;
  inflight : unit -> int;
  draining : unit -> bool;
}

val handle : ?deadline_ns:int -> ctx -> Proto.request -> Obs.Json.t
(** Execute the request and build its response.  Total: never raises. *)
