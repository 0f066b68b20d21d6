type t = Parallel.Sym_matrix.t

let m_evals = Obs.Registry.counter "kitdpe.mining.dist_matrix.evals"
let m_build = Obs.Registry.sketch "kitdpe.mining.dist_matrix.build"

(* Where did the wall-clock go?  Every distance evaluation (the n(n-1)/2
   upper-triangle calls) is counted and one span recorded per matrix
   build.  The counting closure is allocated once per matrix and only
   when observability is on; the disabled path is the bare builder. *)
let build_instrumented ?pool n d =
  let build = Parallel.Sym_matrix.build_r ?pool in
  if not (Obs.is_enabled ()) then build n d
  else begin
    let t0 = Obs.now_ns () in
    let d i j =
      Obs.Metric.incr m_evals;
      d i j
    in
    let m = build n d in
    let dt = Obs.observe_since m_build t0 in
    Obs.Span.record ~cat:"mining"
      ~name:(Printf.sprintf "dist_matrix(n=%d)" n)
      ~ts_ns:t0 ~dur_ns:dt ();
    m
  end

(* cells are identified by (i, j) with j < 2^20 — plenty for any matrix
   this repository builds — giving each evaluation a stable injection
   key independent of row scheduling *)
let eval_key i j = (i lsl 20) lor j

let of_fun_r ?pool ?(retries = 0) n d =
  let d_inj =
    if Fault.enabled () then (fun i j ->
      Fault.point ~key:(eval_key i j) "mining.dist_matrix.eval";
      d i j)
    else d
  in
  let d_eval =
    if retries = 0 then d_inj
    else fun i j ->
      (* the injection point is consulted on the first attempt only, so a
         bounded per-cell retry demonstrably recovers from transient
         evaluation faults; [d] is pure, so a retried cell recomputes the
         identical value — the matrix stays bit-identical to a fault-free
         run whenever the retry budget absorbs every fault *)
      let attempt_cell ~attempt =
        match if attempt = 1 then d_inj i j else d i j with
        | v -> Ok v
        | exception e ->
          Error (Fault.Error.of_exn ~context:"Mining.Dist_matrix.cell" e)
      in
      match
        Fault.Retry.run
          ~policy:(Fault.Retry.immediate (retries + 1))
          ~should_abort:Parallel.Pool.deadline_expired
          ~key:(Printf.sprintf "dist_matrix/%d/%d" i j)
          attempt_cell
      with
      | Ok v -> v
      | Error e -> raise (Fault.Error.E e)
  in
  match build_instrumented ?pool n d_eval with
  | Ok m -> Ok m
  | Error errs ->
    Error
      (List.map
         (fun (i, cause) ->
           Fault.Error.Task_failed { label = "dist_matrix.row"; index = i; cause })
         errs)

let of_fun ?pool n d =
  match of_fun_r ?pool n d with
  | Ok m -> m
  | Error errs -> raise (Fault.Error.E (List.hd errs))

let size = Parallel.Sym_matrix.size
let get = Parallel.Sym_matrix.get

let max_abs_diff a b =
  let n = size a in
  if size b <> n then
    raise
      (Fault.Error.E
         (Fault.Error.Invariant
            { context = "Mining.Dist_matrix.max_abs_diff"; reason = "size mismatch" }));
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = Float.abs (get a i j -. get b i j) in
      if d > !worst then worst := d
    done
  done;
  !worst
