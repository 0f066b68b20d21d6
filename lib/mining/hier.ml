type linkage = Complete | Single | Average

type merge = {
  left : int;
  right : int;
  height : float;
}

(* naive O(n^3) agglomeration: each merge step rescans every cluster
   pair and recomputes its complete, single or average linkage from the
   member lists *)

type cluster = { id : int; members : int list }

let m_merges = Obs.Registry.counter "kitdpe.mining.hier.merges"
let m_cluster_dists = Obs.Registry.counter "kitdpe.mining.hier.cluster_dists"

let cluster_distance linkage m ca cb =
  Obs.Metric.incr m_cluster_dists;
  let ds =
    List.concat_map
      (fun i -> List.map (fun j -> Dist_matrix.get m i j) cb.members)
      ca.members
  in
  match linkage with
  | Complete -> List.fold_left Float.max neg_infinity ds
  | Single -> List.fold_left Float.min infinity ds
  | Average ->
    List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)

let merges ?(linkage = Complete) m ~stop =
  let n = Dist_matrix.size m in
  let t0 = Obs.time_start () in
  let clusters = ref (List.init n (fun i -> { id = i; members = [ i ] })) in
  let next_id = ref n in
  let out = ref [] in
  let continue = ref true in
  while !continue && List.length !clusters > 1 do
    (* find the closest pair; ties break on (smaller left id, smaller right id) *)
    let best = ref None in
    let rec scan = function
      | [] | [ _ ] -> ()
      | ca :: rest ->
        List.iter
          (fun cb ->
            let d = cluster_distance linkage m ca cb in
            let a, b = if ca.id < cb.id then (ca, cb) else (cb, ca) in
            match !best with
            | None -> best := Some (d, a, b)
            | Some (bd, ba, bb) ->
              if d < bd
                 || (d = bd && (a.id < ba.id || (a.id = ba.id && b.id < bb.id)))
              then best := Some (d, a, b))
          rest;
        scan rest
    in
    scan !clusters;
    match !best with
    | None -> continue := false
    | Some (d, a, b) ->
      if stop ~remaining:(List.length !clusters) ~height:d then continue := false
      else begin
        let merged = { id = !next_id; members = a.members @ b.members } in
        incr next_id;
        Obs.Metric.incr m_merges;
        clusters :=
          merged :: List.filter (fun c -> c.id <> a.id && c.id <> b.id) !clusters;
        out := { left = a.id; right = b.id; height = d } :: !out
      end
  done;
  if t0 > 0 then
    Obs.Span.record ~cat:"mining"
      ~name:(Printf.sprintf "hier.merges(n=%d)" n)
      ~ts_ns:t0 ~dur_ns:(Obs.now_ns () - t0) ();
  (List.rev !out, !clusters)

let dendrogram ?linkage m =
  fst (merges ?linkage m ~stop:(fun ~remaining:_ ~height:_ -> false))

let labels_of_clusters n clusters =
  (* label clusters by their smallest member for determinism *)
  let sorted =
    List.sort
      (fun a b ->
        Int.compare
          (List.fold_left min max_int a.members)
          (List.fold_left min max_int b.members))
      clusters
  in
  let labels = Array.make n (-1) in
  List.iteri
    (fun idx c -> List.iter (fun i -> labels.(i) <- idx) c.members)
    sorted;
  labels

let cut_k ?linkage k m =
  let n = Dist_matrix.size m in
  if k <= 0 || k > n then invalid_arg "Hier.cut_k: k out of range";
  let _, clusters =
    merges ?linkage m ~stop:(fun ~remaining ~height:_ -> remaining <= k)
  in
  labels_of_clusters n clusters

let cut_height ?linkage h m =
  let n = Dist_matrix.size m in
  let _, clusters =
    merges ?linkage m ~stop:(fun ~remaining:_ ~height -> height > h)
  in
  labels_of_clusters n clusters
