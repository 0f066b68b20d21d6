type t = Dbscan | Kmedoids | Outliers | Clink

let of_string = function
  | "dbscan" -> Ok Dbscan
  | "kmedoids" -> Ok Kmedoids
  | "outliers" -> Ok Outliers
  | "clink" -> Ok Clink
  | other ->
    Error
      (Fault.Error.Protocol
         { reason =
             Printf.sprintf "unknown algo %S (dbscan, kmedoids, outliers or clink)"
               other })

let run algo ~k ~eps m =
  match algo with
  | Dbscan -> Dbscan.run { Dbscan.eps; min_pts = 3 } m
  | Kmedoids -> Kmedoids.run { Kmedoids.k; max_iter = 50 } m
  | Outliers ->
    Outlier.run { Outlier.p = 0.95; d = eps } m |> Array.map (fun b -> if b then 1 else 0)
  | Clink -> Hier.cut_k k m
