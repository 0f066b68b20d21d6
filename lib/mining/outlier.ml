type params = { p : float; d : float }

let run { p; d } m =
  let n = Dist_matrix.size m in
  (* one pass over the upper triangle in storage order: a far pair counts
     for both ends, so no row is read down its strided column part *)
  let far = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Dist_matrix.get m i j > d then begin
        far.(i) <- far.(i) + 1;
        far.(j) <- far.(j) + 1
      end
    done
  done;
  Array.map (fun f -> n > 1 && float_of_int f >= p *. float_of_int (n - 1)) far

let outlier_indices params m =
  run params m
  |> Array.to_list
  |> List.mapi (fun i b -> (i, b))
  |> List.filter_map (fun (i, b) -> if b then Some i else None)
