(** Symmetric matrices with a zero diagonal — the shape of every pairwise
    distance matrix in this repository — stored as a condensed upper
    triangle: the n(n-1)/2 cells (i, j) with i < j, row-major, in one
    unboxed [Float.Array] (n(n-1)/2 × 8 bytes; 9 MB at n = 1500). *)

type t

val par_threshold : int
(** Minimum dimension for which {!build_r} goes parallel; below it the
    n(n-1)/2 evaluations are too cheap to amortize task dispatch. *)

val size : t -> int

val get : t -> int -> int -> float
(** [get m i j] is the cell for [(min i j, max i j)]; [0.0] on the
    diagonal.
    @raise Fault.Error.E [(Invariant _)] when [i] or [j] is outside
    [\[0, size m)]. *)

val sub : t -> int -> t
(** [sub m k] is the leading [k × k] principal submatrix (points
    [0 .. k-1]).
    @raise Fault.Error.E [(Invariant _)] unless [0 <= k <= size m]. *)

val build_r :
  ?pool:Pool.t ->
  int ->
  (int -> int -> float) ->
  (t, (int * Fault.Error.t) list) result
(** [build_r n d] evaluates [d i j] once for every [i < j].  Row [i]
    writes only its own slice of the triangle; rows run across [pool]
    (default {!Pool.global}[ ()]) when [n >= par_threshold] and the pool
    has more than one lane, sequentially otherwise.  [d] must be pure
    (or at least domain-safe), so the result is bit-for-bit identical
    for every pool size.

    Crash-contained: a row whose evaluations raise is reported as
    [(row_index, typed_error)] while every other row is still computed;
    [Error errs] is sorted by row.  Rows not yet started when the
    caller's [Pool.with_deadline] budget expires are reported as
    [Deadline_exceeded]. *)

val build : ?pool:Pool.t -> int -> (int -> int -> float) -> t
(** {!build_r}, raising the first failed row's error.
    @raise Fault.Error.E when any row fails; an exception [d] raised
    arrives as its {!Fault.Error.of_exn} translation. *)
