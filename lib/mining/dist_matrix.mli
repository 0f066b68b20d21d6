(** Symmetric pairwise distance matrices — the only input the distance-based
    mining algorithms ([3] [4] [5] [6]) ever see, which is precisely why
    distance-preserving encryption preserves their output. *)

type t = Parallel.Sym_matrix.t
(** The condensed upper triangle of {!Parallel.Sym_matrix}:
    n(n-1)/2 × 8 bytes, zero diagonal, [get m i j = get m j i]. *)

val of_fun_r :
  ?pool:Parallel.Pool.t ->
  ?retries:int ->
  int ->
  (int -> int -> float) ->
  (t, Fault.Error.t list) result
(** [of_fun_r n d] evaluates [d i j] once for every [i < j]
    ({!Parallel.Sym_matrix.build_r}).  For
    [n >= Parallel.Sym_matrix.par_threshold] the rows are computed across
    [pool] (default [Parallel.Pool.global ()]); [d] must be pure, and the
    result is bit-for-bit identical for every pool size.

    Crash-contained: a row whose evaluations raise is reported
    as [Task_failed {label = "dist_matrix.row"; index; cause}] while all
    other rows still compute; [Ok] only when the matrix is complete.
    Carries the ["mining.dist_matrix.eval"] injection point keyed by
    cell coordinates.

    [retries] (default 0) bounds per-cell re-evaluation via
    {!Fault.Retry} with zero backoff: the injection point is consulted
    on the first attempt only, so a transient injected fault is absorbed
    and — [d] being pure — the matrix is bit-identical to a fault-free
    build.  Cell retries never outlive the caller's
    [Parallel.Pool.with_deadline] budget. *)

val of_fun : ?pool:Parallel.Pool.t -> int -> (int -> int -> float) -> t
(** {!of_fun_r}, raising the first row's [Task_failed] error.
    @raise Fault.Error.E when any row fails. *)

val size : t -> int
val get : t -> int -> int -> float
(** [get m i j = get m j i]; [0.0] on the diagonal. *)

val max_abs_diff : t -> t -> float
(** Largest entrywise deviation between two matrices of the same size.
    @raise Fault.Error.E [(Invariant _)] on a size mismatch. *)
