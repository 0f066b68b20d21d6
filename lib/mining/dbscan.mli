(** DBSCAN density-based clustering (Ester et al. [4]).

    One expansion loop ({!run_index}) consumes neighborhoods from a
    {!range_index}; the engines differ only in how they answer it: a
    distance-matrix scan ({!run}), a brute-force predicate scan
    ({!brute_force}) or a pre-built metric index. *)

type params = { eps : float; min_pts : int }

type range_index = {
  ri_n : int;  (** number of points *)
  range : int -> int list;
      (** [range i] = the exact eps-neighborhood of [i], ascending, [i]
          excluded (e.g. [Index.Vp_tree.range]) *)
}

val run_index : min_pts:int -> range_index -> int array
(** Labels per point: cluster ids from 0 upward, [-1] for noise.  Cluster
    ids are assigned in scan order and every neighborhood arrives in
    ascending order, so two range indexes answering the same
    neighborhoods give equal label arrays (not merely equal
    partitions).  Besides the neighborhoods, a run holds O(n): the
    label array and one n-slot expansion queue, each point queued at
    most once. *)

val run : params -> Dist_matrix.t -> int array
(** {!run_index} over the matrix scan [{ j <> i | get m i j <= eps }]. *)

val brute_force : n:int -> within:(int -> int -> bool) -> range_index
(** The range index that scans all [n - 1] other points with [within i j]
    (which must be symmetric and mean [d(i,j) <= eps]).  DBSCAN only
    consumes that predicate, never the distance value, so a caller
    holding an early-abandoning bounded kernel (e.g.
    [Index.Space.within]) clusters without materializing the O(n²)
    matrix; when [within i j = (Dist_matrix.get m i j <= eps)] the
    labels equal [run { eps; min_pts } m] exactly.  Every scan counts
    its [n - 1] probes in [kitdpe.mining.dbscan.oracle_probes] — the
    brute-force cost the index engine is measured against. *)
