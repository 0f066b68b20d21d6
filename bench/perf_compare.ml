(* Comparison of two perf-trajectory snapshots (the BENCH_PR*.json
   artifacts emitted by [perf --json]).

   The snapshots are our own fixed shape, so instead of a full JSON
   parser this uses a small field scanner over the "results" array:
   each entry is located by its ["op"] key and the sibling fields are
   read relative to it.  Tolerant of reformatting (python -m json.tool)
   since it only relies on key/value adjacency, not layout. *)

type entry = {
  op : string;
  n : int;
  ns_per_op : float;          (* optimized path, ns/op *)
  baseline_ns_per_op : float;
  identical : bool;
}

let find_from s pos sub =
  let ls = String.length s and lsub = String.length sub in
  let rec go i =
    if i + lsub > ls then None
    else if String.sub s i lsub = sub then Some i
    else go (i + 1)
  in
  go pos

(* value text after ["key":], up to the next [,}\n] *)
let raw_field s ~from ~until key =
  match find_from s from ("\"" ^ key ^ "\"") with
  | None -> None
  | Some k when k >= until -> None
  | Some k ->
    (match find_from s k ":" with
     | None -> None
     | Some c ->
       let stop = ref (c + 1) in
       while
         !stop < String.length s
         && not (List.mem s.[!stop] [ ','; '}'; '\n' ])
       do
         incr stop
       done;
       Some (String.trim (String.sub s (c + 1) (!stop - c - 1))))

let unquote v =
  let l = String.length v in
  if l >= 2 && v.[0] = '"' && v.[l - 1] = '"' then String.sub v 1 (l - 2)
  else v

let load path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | s ->
    (match find_from s 0 "\"results\"" with
     | None -> Error (path ^ ": no \"results\" array")
     | Some start ->
       let rec entries pos acc =
         match find_from s pos "\"op\"" with
         | None -> List.rev acc
         | Some k ->
           (* sibling fields live before the next entry's "op" (or EOF) *)
           let until =
             match find_from s (k + 4) "\"op\"" with
             | Some next -> next
             | None -> String.length s
           in
           let field key = raw_field s ~from:k ~until key in
           let entry =
             match
               (field "op", field "n", field "ns_per_op",
                field "baseline_ns_per_op", field "identical")
             with
             | Some op, Some n, Some ns, Some base, Some ident ->
               (try
                  Some
                    {
                      op = unquote op;
                      n = int_of_string n;
                      ns_per_op = float_of_string ns;
                      baseline_ns_per_op = float_of_string base;
                      identical = bool_of_string ident;
                    }
                with _ -> None)
             | _ -> None
           in
           entries until (match entry with Some e -> e :: acc | None -> acc)
       in
       (match entries start [] with
        | [] -> Error (path ^ ": no parsable result entries")
        | es -> Ok es))

let regression_threshold = 1.20

let min_gate_ns = 1000.0
(* ops below 1 us/op sit at the wall-clock timer's resolution; their
   ratios are jitter, not signal, so they are reported but never gate *)

(* [.../probes/...] and [.../*_probes/...] rows carry probe counts in
   their ns fields (a cost-model series, not wall time) *)
let is_probe_op op =
  List.exists
    (fun seg -> seg = "probes" || String.ends_with ~suffix:"_probes" seg)
    (String.split_on_char '/' op)

let pretty ns =
  if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let show op v = if is_probe_op op then Printf.sprintf "%.0f probes" v else pretty v

let same_row a b = a.op = b.op && a.n = b.n

(* Print the per-op old-vs-new table, then the ops only the old snapshot
   has as "dropped"; [true] iff some op present in both snapshots with
   [identical = true] in both got more than 20% slower.  Ops measured
   with [identical = false] (e.g. probabilistic ciphers compared
   structurally) and sub-microsecond ops never gate. *)
let report ~old_label ~old_entries ~cur_entries ppf =
  Format.fprintf ppf "@.perf comparison vs %s (new/old < 1.0 = faster):@."
    old_label;
  Format.fprintf ppf "%-28s %-7s %-14s %-14s %-9s %s@." "op" "n" "old" "new"
    "new/old" "verdict";
  Format.fprintf ppf "%s@." (String.make 100 '-');
  let regressed = ref false in
  List.iter
    (fun cur ->
      match List.find_opt (same_row cur) old_entries with
      | None ->
        Format.fprintf ppf "%-28s %-7d %-14s %-14s %-9s %s@." cur.op cur.n "-"
          (show cur.op cur.ns_per_op) "-" "new op"
      | Some old ->
        let ratio = cur.ns_per_op /. old.ns_per_op in
        let gates =
          old.identical && cur.identical && old.ns_per_op >= min_gate_ns
        in
        let bad = gates && ratio > regression_threshold in
        if bad then regressed := true;
        Format.fprintf ppf "%-28s %-7d %-14s %-14s %-9.2f %s@." cur.op cur.n
          (show cur.op old.ns_per_op) (show cur.op cur.ns_per_op) ratio
          (if bad then "REGRESSED"
           else if not old.identical || not cur.identical then
             "untracked (identical=false)"
           else if not gates then "untracked (sub-us op)"
           else if ratio < 1.0 then "faster"
           else "ok"))
    cur_entries;
  List.iter
    (fun old ->
      if not (List.exists (same_row old) cur_entries) then
        Format.fprintf ppf "%-28s %-7d %-14s %-14s %-9s %s@." old.op old.n
          (show old.op old.ns_per_op) "-" "-" "dropped")
    old_entries;
  !regressed
