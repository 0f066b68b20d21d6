type params = { eps : float; min_pts : int }

type range_index = {
  ri_n : int;
  range : int -> int list;
}

let m_runs = Obs.Registry.counter "kitdpe.mining.dbscan.runs"
let m_scans = Obs.Registry.counter "kitdpe.mining.dbscan.neighbor_scans"
let m_clusters = Obs.Registry.counter "kitdpe.mining.dbscan.clusters_found"

(* pairwise predicate evaluations spent inside brute-force neighbor
   scans — the cost an index engine is bought to avoid, exposed so the
   two are comparable on one dashboard *)
let m_oracle_probes = Obs.Registry.counter "kitdpe.mining.dbscan.oracle_probes"

(* Every neighborhood is an ascending list with [i] excluded: the
   downto-prepend scans below, or an index's [range].

   The matrix engine first draws the eps-graph as an n×n bitset (n²/8
   bytes, 1/32 of the condensed matrix) in one pass over the triangle in
   storage order; a neighborhood is then one contiguous bitset row,
   where a row of the condensed matrix would be read down its strided
   column part. *)
let eps_graph m eps =
  let n = Dist_matrix.size m in
  let stride = (n + 7) / 8 in
  let bits = Bytes.make (n * stride) '\000' in
  let set i j =
    let k = (i * stride) + (j lsr 3) in
    Bytes.set_uint8 bits k (Bytes.get_uint8 bits k lor (1 lsl (j land 7)))
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Dist_matrix.get m i j <= eps then begin
        set i j;
        set j i
      end
    done
  done;
  fun i ->
    let acc = ref [] in
    for k = stride - 1 downto 0 do
      let byte = Bytes.get_uint8 bits ((i * stride) + k) in
      if byte <> 0 then
        for b = 7 downto 0 do
          if byte land (1 lsl b) <> 0 then acc := ((k lsl 3) + b) :: !acc
        done
    done;
    !acc

let brute_force ~n ~within =
  let range i =
    Obs.Metric.add m_oracle_probes (n - 1);
    let acc = ref [] in
    for j = n - 1 downto 0 do
      if j <> i && within i j then acc := j :: !acc
    done;
    !acc
  in
  { ri_n = n; range }

let run_index ~min_pts { ri_n = n; range } =
  let t0 = Obs.time_start () in
  let neighbors i =
    Obs.Metric.incr m_scans;
    range i
  in
  let labels = Array.make n (-2) in
  (* -2 unvisited, -3 queued, -1 noise, >= 0 cluster id *)
  let cluster = ref (-1) in
  (* The expansion frontier.  A neighbor is queued only while unvisited
     and not yet queued; a noise neighbor becomes a border point at
     once, as it would at its first pop (border points never expand).
     Only a point's first occurrence in a queue that took every
     neighbor, repeats included, ever did work, and those occurrences
     arrive in the same order here, so the labels are the same.  Every
     point is queued at most once per run: one n-slot FIFO serves all
     clusters. *)
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  let push j =
    let l = labels.(j) in
    if l = -1 then labels.(j) <- !cluster (* border point *)
    else if l = -2 then begin
      labels.(j) <- -3;
      queue.(!tail) <- j;
      incr tail
    end
  in
  for i = 0 to n - 1 do
    if labels.(i) = -2 then begin
      let nbrs = neighbors i in
      if List.length nbrs + 1 < min_pts then labels.(i) <- -1
      else begin
        incr cluster;
        labels.(i) <- !cluster;
        List.iter push nbrs;
        while !head < !tail do
          let j = queue.(!head) in
          incr head;
          labels.(j) <- !cluster;
          let nbrs_j = neighbors j in
          if List.length nbrs_j + 1 >= min_pts then List.iter push nbrs_j
        done
      end
    end
  done;
  if t0 > 0 then begin
    Obs.Metric.incr m_runs;
    Obs.Metric.add m_clusters (Array.fold_left max (-1) labels + 1);
    Obs.Span.record ~cat:"mining"
      ~name:(Printf.sprintf "dbscan(n=%d)" n)
      ~ts_ns:t0 ~dur_ns:(Obs.now_ns () - t0) ()
  end;
  labels

let run { eps; min_pts } m =
  run_index ~min_pts { ri_n = Dist_matrix.size m; range = eps_graph m eps }
