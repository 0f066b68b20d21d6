let par_threshold = 64

(* the condensed upper triangle, row-major: row [i] holds (i, j) for
   j = i+1 .. n-1 and starts at [row_start n i] *)
type t = { n : int; cells : Float.Array.t }

let row_start n i = i * (2 * n - i - 1) / 2

let size t = t.n

let out_of_bounds context n i j =
  raise
    (Fault.Error.E
       (Fault.Error.Invariant
          { context; reason = Printf.sprintf "(%d, %d) outside %dx%d" i j n n }))

let get t i j =
  (* (lo, hi) = (min, max) without a branch: callers such as complete-link
     ask for (i, j) in either order at random, which a branch mispredicts *)
  let d = i - j in
  let neg = d land (d asr (Sys.int_size - 1)) in
  let lo = j + neg and hi = i - neg in
  if lo < 0 || hi >= t.n then out_of_bounds "Parallel.Sym_matrix.get" t.n i j;
  if d = 0 then 0.0
  else
    (* in range: 0 <= lo < hi < n, so the cell index is below n(n-1)/2 *)
    Float.Array.unsafe_get t.cells (row_start t.n lo + hi - lo - 1)

let sub t k =
  if k < 0 || k > t.n then out_of_bounds "Parallel.Sym_matrix.sub" t.n k k;
  let cells = Float.Array.create (k * (k - 1) / 2) in
  for i = 0 to k - 2 do
    Float.Array.blit t.cells (row_start t.n i) cells (row_start k i) (k - i - 1)
  done;
  { n = k; cells }

let build_r ?pool n d =
  let pool = match pool with Some p -> p | None -> Pool.global () in
  let cells = Float.Array.create (n * (n - 1) / 2) in
  (* the one row fill: row [i] writes only its own contiguous slice, so
     rows on different lanes never touch the same cell *)
  let fill i =
    let base = row_start n i - i - 1 in
    for j = i + 1 to n - 1 do
      Float.Array.set cells (base + j) (d i j)
    done
  in
  let errors =
    if n < par_threshold || Pool.size pool <= 1 then begin
      (* same containment contract sequentially: a failing row is
         reported, the remaining rows are still built — and an expired
         request deadline abandons the remaining rows exactly like the
         pool's _r guard would *)
      let errs = ref [] in
      for i = 0 to n - 1 do
        match
          Pool.check_deadline ~context:"Parallel.Sym_matrix.build_r" ();
          fill i
        with
        | () -> ()
        | exception e ->
          errs := (i, Fault.Error.of_exn ~context:"Parallel.Sym_matrix.build_r" e) :: !errs
      done;
      List.rev !errs
    end
    else Pool.for_range_r pool n fill
  in
  match errors with
  | [] -> Ok { n; cells }
  | errors -> Error errors

let build ?pool n d =
  match build_r ?pool n d with
  | Ok m -> m
  | Error errs -> raise (Fault.Error.E (snd (List.hd errs)))
