(** The mining algorithms a request can name — [dpe_cli mine --algo]
    and a [dpe_serve] mine request share this one table, with its fixed
    parameters (DBSCAN [min_pts = 3], k-medoids [max_iter = 50], outlier
    fraction [p = 0.95]). *)

type t = Dbscan | Kmedoids | Outliers | Clink

val of_string : string -> (t, Fault.Error.t) result
(** ["dbscan"], ["kmedoids"], ["outliers"] or ["clink"]; any other name
    is a [Protocol] error naming the four. *)

val run : t -> k:int -> eps:float -> Dist_matrix.t -> int array
(** Labels per point.  [k] is the cluster count of k-medoids and
    complete-link; [eps] the DBSCAN radius and the outlier distance
    threshold.  Outliers are labelled [1], inliers [0]. *)
