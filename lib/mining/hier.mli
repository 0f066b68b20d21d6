(** Agglomerative hierarchical clustering, merged bottom-up by naive
    O(n^3) agglomeration: every step rescans all cluster pairs and
    recomputes each pair's linkage from the member lists.  The linkage
    is complete (maximum pairwise distance, the default), single
    (minimum) or average (mean). *)

type linkage = Complete | Single | Average

type merge = {
  left : int;    (** cluster id merged from (ids >= n are prior merges) *)
  right : int;
  height : float;  (** linkage distance at the merge *)
}

val dendrogram : ?linkage:linkage -> Dist_matrix.t -> merge list
(** The [n-1] merges in order.  New clusters get ids [n], [n+1], …
    Ties break deterministically on the smaller pair of ids. *)

val cut_k : ?linkage:linkage -> int -> Dist_matrix.t -> int array
(** Stop when [k] clusters remain; labels in [0, k) by first-member order. *)

val cut_height : ?linkage:linkage -> float -> Dist_matrix.t -> int array
(** Merge only below the given height. *)
