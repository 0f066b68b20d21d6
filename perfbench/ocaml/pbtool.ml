(* pbtool — the in-process half of the repository benchmark
   (perfbench/run.py drives it; see perfbench/README.md).

     pbtool gen N TEMPLATES SEED MEASURE
         a SkyServer log from Workload.Gen_query.skyserver_log_labelled,
         one SQL query per line, built for MEASURE's capabilities
     pbtool labels PLAN.json
         reference outputs computed from the library for the plan's
         inputs: plaintext labels of a batch log, or the expected
         ciphertexts and mine labels of a serve plan
     pbtool trace PLAN.json
         replays the plan's inputs through each layer's public
         functions, twice untraced and twice traced, and prints the spans
         and counters the benchmark turns into per-layer metrics
     pbtool info
         the domain-pool size and OCaml version, as run metadata
     pbtool calib
         the CPU seconds of a fixed reference loop that calls no library
         code, which gauges the host's current speed

   The spans below are the benchmark's own: they wrap the calls into
   each layer and never reach inside the library.  Library counters are
   read from Obs.Registry only. *)

module J = Obs.Json
module M = Distance.Measure

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("pbtool: " ^ s); exit 2) fmt

(* ---- plan access ---- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let read_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")

let member name j =
  match J.member name j with Some v -> v | None -> fail "plan: missing %s" name

let str name j =
  match J.to_str (member name j) with Some s -> s | None -> fail "plan: %s: string" name

let int name j =
  match J.to_int (member name j) with Some n -> n | None -> fail "plan: %s: integer" name

let num name j =
  match J.to_num (member name j) with Some f -> f | None -> fail "plan: %s: number" name

let list name j =
  match J.to_list (member name j) with Some l -> l | None -> fail "plan: %s: array" name

let strings name j =
  List.map (fun v -> match J.to_str v with Some s -> s | None -> fail "plan: %s" name) (list name j)

let measure_of s = match M.of_string s with Some m -> m | None -> fail "unknown measure %s" s

let parse_all texts =
  List.map
    (fun s ->
      match Sqlir.Parser.parse_result s with Ok q -> q | Error e -> fail "parse: %s" e)
    texts

let labels_json a = J.Arr (Array.to_list (Array.map (fun l -> J.Num (float_of_int l)) a))

(* ---- spans: the benchmark's own recorder ----

   A span is (id, parent, layer, name, start, end) on the main thread;
   nesting follows the call stack.  The untraced replay keeps only the
   few "op" spans (one per operation) and every other [span] is a direct
   call. *)

type span = { id : int; parent : int; layer : string; name : string; t0 : float; t1 : float }

(* times are relative to process start: [Proto.render] prints 12
   significant digits, which keeps microseconds only for small values *)
let epoch = Unix.gettimeofday ()
let now () = Unix.gettimeofday () -. epoch

let recording = ref false
let spans = ref []
let stack = ref [ 0 ]
let next_id = ref 0

let span layer name f =
  if not (!recording || layer = "op") then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = List.hd !stack in
    stack := id :: !stack;
    let t0 = now () in
    let finish () =
      stack := List.tl !stack;
      spans := { id; parent; layer; name; t0; t1 = now () } :: !spans
    in
    Fun.protect ~finally:finish f
  end

(* counts the benchmark takes at the same boundaries *)
let pairs = ref 0
let range_calls = ref 0
let range_hits = ref 0
let encrypted = ref 0
let matrix_mb = ref 0.0

let reset_counts () =
  pairs := 0;
  range_calls := 0;
  range_hits := 0;
  encrypted := 0;
  matrix_mb := 0.0

let encrypt_all enc log =
  span "dpe" "encrypt" (fun () ->
      encrypted := !encrypted + List.length log;
      List.map (Dpe.Encryptor.encrypt_query enc) log)

(* ---- layer steps shared by the batch and serve replays ---- *)

let pair_fun m feats =
  match m with
  | M.Token -> Distance.Features.token feats
  | M.Structure -> Distance.Features.structure feats
  | M.Edit -> Distance.Features.edit feats
  | M.Clause -> Distance.Features.clause feats
  | M.Access -> Distance.Features.access ~x:Distance.D_access.default_x feats
  | M.Result -> fail "the result measure has no feature-table distance"

let features log =
  span "distance" "features" (fun () -> Distance.Features.build (Array.of_list log))

(* Measure.matrix split at its layer boundary: the feature table, then
   the symmetric fill over the same pair function *)
let matrix m log =
  let feats = features log in
  let n = List.length log in
  span "distance" "matrix" (fun () ->
      pairs := !pairs + (n * (n - 1) / 2);
      matrix_mb := Float.max !matrix_mb (float_of_int (n * n * 8) /. 1048576.0);
      Parallel.Sym_matrix.build n (pair_fun m feats))

let run_algo algo ~k ~eps dm =
  match algo with
  | "dbscan" -> span "mining" "dbscan" (fun () -> Mining.Dbscan.run { Mining.Dbscan.eps; min_pts = 3 } dm)
  | "kmedoids" ->
    span "mining" "kmedoids" (fun () -> Mining.Kmedoids.run { Mining.Kmedoids.k; max_iter = 50 } dm)
  | "outliers" ->
    span "mining" "outliers" (fun () ->
        Mining.Outlier.run { Mining.Outlier.p = 0.95; d = eps } dm
        |> Array.map (fun b -> if b then 1 else 0))
  | "clink" -> span "mining" "clink" (fun () -> Mining.Hier.cut_k k dm)
  | a -> fail "unknown algo %s" a

(* the matrix engine end to end: feature table, matrix, algorithm; DBSCAN
   runs under an engine span so its cost can be set against the index's *)
let mine_matrix m algo ~k ~eps log =
  let go () = run_algo algo ~k ~eps (matrix m log) in
  if algo = "dbscan" then span "engine" "matrix.dbscan" go else go ()

let vp_dbscan m ~seed ~eps log =
  span "engine" "index.dbscan" @@ fun () ->
  let feats = features log in
  let kind = match Index.Space.kind_of_measure m with Some k -> k | None -> fail "no index space" in
  let sp = Index.Space.of_kind kind feats in
  let tree = span "index" "build" (fun () -> Index.Vp_tree.build ~seed sp) in
  let range i =
    span "index" "range" (fun () ->
        let r = Index.Vp_tree.range tree ~eps i in
        incr range_calls;
        range_hits := !range_hits + List.length r;
        r)
  in
  span "mining" "dbscan" (fun () ->
      Mining.Dbscan.run_index ~min_pts:3 { Mining.Dbscan.ri_n = List.length log; range })

let clarans m ~seed ~k log =
  let feats = features log in
  let n = List.length log in
  let d = pair_fun m feats in
  let rng = Crypto.Drbg.create ~seed:(seed ^ "/clarans") in
  let rand b = Crypto.Drbg.uniform_int rng b in
  span "mining" "clarans" (fun () ->
      Mining.Kmedoids.run_clarans ~rand
        { Mining.Kmedoids.c_k = k; num_local = 2; max_neighbor = max 250 (k * (n - k) / 80) }
        ~n ~d:(fun i j -> incr pairs; d i j))

(* ---- batch: the dpe_cli job, step by step ---- *)

type batch = {
  measure : M.t;
  passphrase : string;
  seed : string;
  k : int;
  eps : float;
  algos : string list;
  log_text : string list;
  clink_prefix : int;
}

let batch_of_plan j =
  { measure = measure_of (str "measure" j);
    passphrase = str "passphrase" j;
    seed = str "seed" j;
    k = int "k" j;
    eps = num "eps" j;
    algos = strings "algos" j;
    log_text = read_lines (str "log" j);
    clink_prefix = int "clink_prefix" j }

(* one mine step as `dpe_cli mine --engine matrix` runs it: re-read the
   ciphertext text, run the matrix engine, print the labelled lines *)
let mine_step b cipher_text algo =
  span "op" ("mine." ^ algo) (fun () ->
      let log = span "sqlir" "parse" (fun () -> parse_all cipher_text) in
      let labels = mine_matrix b.measure algo ~k:b.k ~eps:b.eps log in
      ignore (span "sqlir" "print" (fun () -> List.map Sqlir.Printer.to_string log));
      labels)

let encrypt_step b =
  span "op" "encrypt" (fun () ->
      let log = span "sqlir" "parse" (fun () -> parse_all b.log_text) in
      let enc =
        span "dpe" "select" (fun () ->
            let scheme = Dpe.Selector.select b.measure (Dpe.Log_profile.of_log log) in
            Dpe.Encryptor.create (Crypto.Keyring.of_passphrase b.passphrase) scheme)
      in
      let cipher = encrypt_all enc log in
      span "sqlir" "print" (fun () -> List.map Sqlir.Printer.to_string cipher))

let batch_job b =
  let cipher_text = encrypt_step b in
  let labels = List.map (fun a -> (a, mine_step b cipher_text a)) b.algos in
  (cipher_text, labels)

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

(* the work this job does not do, timed once on the same inputs so every
   layer reports a number: the index engine's DBSCAN, CLARANS, clink on
   a prefix, and the result measure's Paillier set-up *)
let batch_alt b cipher_text =
  let log = parse_all cipher_text in
  let other = span "op" "dbscan.index" (fun () -> vp_dbscan b.measure ~seed:b.seed ~eps:b.eps log) in
  ignore (span "op" "alt.clarans" (fun () -> clarans b.measure ~seed:b.seed ~k:b.k log));
  ignore
    (span "op" "alt.clink" (fun () ->
         run_algo "clink" ~k:b.k ~eps:b.eps (matrix b.measure (take b.clink_prefix log))));
  span "op" "alt.paillier" (fun () ->
      let plain = parse_all b.log_text in
      let scheme = Dpe.Selector.select M.Result (Dpe.Log_profile.of_log plain) in
      let enc = Dpe.Encryptor.create (Crypto.Keyring.of_passphrase b.passphrase) scheme in
      ignore (span "crypto" "paillier_keygen" (fun () -> Dpe.Encryptor.paillier enc));
      let db = Workload.Gen_db.skyserver ~seed:b.seed ~rows:150 in
      ignore (span "crypto" "hom_prewarm" (fun () -> Dpe.Db_encryptor.prewarm_hom_noise_r enc db)));
  other

(* reference labels go through the one-call Measure.matrix, not the split
   path the replay times *)
let reference_labels measure algos ~k ~eps texts =
  let dm = M.matrix M.default_ctx measure (parse_all texts) in
  List.map (fun a -> run_algo a ~k ~eps dm) algos

let batch_labels j =
  let b = batch_of_plan j in
  J.Obj
    (List.map2
       (fun a l -> (a, labels_json l))
       b.algos
       (reference_labels b.measure b.algos ~k:b.k ~eps:b.eps b.log_text))

(* ---- serve: the dpe_serve requests ---- *)

let db_for_serve () = Workload.Gen_db.skyserver ~seed:"serve" ~rows:48

type pool = { p_tenant : string; p_measure : M.t; p_text : string list }

let pools_of_plan j =
  List.map
    (fun p ->
      { p_tenant = str "tenant" p; p_measure = measure_of (str "measure" p);
        p_text = read_lines (str "file" p) })
    (list "pools" j)

let rec drop n = function _ :: rest when n > 0 -> drop (n - 1) rest | l -> l

let slice start len l = take len (drop start l)

(* the encrypt path of Server.Dispatch, one layer at a time *)
let serve_encrypt tenants ~tenant ~measure texts =
  let log = span "sqlir" "parse" (fun () -> parse_all texts) in
  let enc = span "dpe" "select" (fun () -> Server.Tenant.encryptor tenants ~tenant ~measure log) in
  (match (measure, Dpe.Encryptor.noise_pool enc) with
   | M.Result, None ->
     ignore (span "crypto" "paillier_keygen" (fun () -> Dpe.Encryptor.paillier enc));
     ignore
       (span "crypto" "hom_prewarm" (fun () ->
            Dpe.Db_encryptor.prewarm_hom_noise_r enc (db_for_serve ())))
   | _ -> ());
  let cipher = encrypt_all enc log in
  span "sqlir" "print" (fun () -> List.map Sqlir.Printer.to_string cipher)

let serve_mine ~measure ~algo ~k ~eps texts =
  let log = span "sqlir" "parse" (fun () -> parse_all texts) in
  mine_matrix measure algo ~k ~eps log

let serve_labels j =
  let master = str "master" j in
  let tenants = Server.Tenant.create ~master in
  let pools = pools_of_plan j in
  let ciphers =
    List.map
      (fun p ->
        ( p,
          serve_encrypt tenants ~tenant:p.p_tenant ~measure:p.p_measure p.p_text ))
      pools
  in
  let pool_key p = p.p_tenant ^ "/" ^ M.to_string p.p_measure in
  let find tenant measure =
    match List.find_opt (fun (p, _) -> p.p_tenant = tenant && M.to_string p.p_measure = measure) ciphers with
    | Some pc -> pc
    | None -> fail "no pool %s/%s" tenant measure
  in
  let mines =
    List.map
      (fun s ->
        let p, c = find (str "tenant" s) (str "measure" s) in
        let start = int "start" s and len = int "len" s in
        let algo = str "algo" s and k = int "k" s and eps = num "eps" s in
        let on texts = List.hd (reference_labels p.p_measure [ algo ] ~k ~eps texts) in
        let cipher_labels = on (slice start len c) in
        (* the paper's C2: mining the ciphertext gives the plaintext labels *)
        let c2 = cipher_labels = on (slice start len p.p_text) in
        ( str "key" s,
          J.Obj [ ("labels", labels_json cipher_labels); ("c2", J.Bool c2) ] ))
      (list "mines" j)
  in
  J.Obj
    [ ("pools", J.Obj (List.map (fun (p, c) -> (pool_key p, J.Arr (List.map (fun s -> J.Str s) c))) ciphers));
      ("mines", J.Obj mines) ]

let dispatch_ctx tenants =
  { Server.Dispatch.tenants;
    queue_depth = (fun () -> 0);
    inflight = (fun () -> 0);
    draining = (fun () -> false) }

(* one request through the wire layer: decode the frame payload, handle
   it, encode the response *)
let dispatch ctx payload =
  match span "server" "codec" (fun () -> Server.Proto.parse_request payload) with
  | Error _ -> fail "unparseable plan request"
  | Ok req ->
    let resp = span "server" "service" (fun () -> Server.Dispatch.handle ctx req) in
    ignore (span "server" "codec" (fun () -> Server.Proto.render resp));
    resp

type request = { r_json : J.t; r_payload : string; r_op : string }

let requests_of_plan j =
  List.map
    (fun r -> { r_json = r; r_payload = Server.Proto.render r; r_op = str "op" r })
    (list "requests" j)

(* the serve replay: the warm-up encrypts (one per tenant and scheme,
   which create the resident encryptors, the result scheme's Paillier key
   and HOM noise pool, and fill the encryptors' caches), then every
   request, first layer by layer and then as a wire request through Proto
   and Dispatch on the same warm tenants *)
let serve_replay master pools requests =
  let tenants = Server.Tenant.create ~master in
  span "op" "setup" (fun () ->
      List.iter
        (fun p -> ignore (serve_encrypt tenants ~tenant:p.p_tenant ~measure:p.p_measure p.p_text))
        pools);
  List.iter
    (fun r ->
      let j = r.r_json in
      span "op" ("layers." ^ r.r_op) (fun () ->
          match r.r_op with
          | "encrypt" ->
            ignore
              (serve_encrypt tenants ~tenant:(str "tenant" j) ~measure:(measure_of (str "measure" j))
                 (strings "queries" j))
          | "mine" ->
            ignore
              (serve_mine ~measure:(measure_of (str "measure" j)) ~algo:(str "algo" j)
                 ~k:(int "k" j) ~eps:(num "eps" j) (strings "queries" j))
          | _ -> ()))
    requests;
  let ctx = dispatch_ctx tenants in
  List.map (fun r -> span "op" ("wire." ^ r.r_op) (fun () -> dispatch ctx r.r_payload)) requests

(* ---- trace ---- *)

let span_json s =
  J.Arr
    [ J.Num (float_of_int s.id); J.Num (float_of_int s.parent); J.Str s.layer; J.Str s.name;
      J.Num s.t0; J.Num s.t1 ]

let counter name =
  match Obs.Registry.find name with
  | Some (Obs.Registry.Vcounter n) | Some (Obs.Registry.Vgauge n) -> n
  | _ -> 0

let start_recording traced =
  Obs.set_enabled traced;
  recording := traced;
  next_id := 0;
  spans := [];
  stack := [ 0 ];
  reset_counts ();
  Obs.Registry.reset ()

let stop_recording () =
  Obs.set_enabled false;
  recording := false

let num_field name v = (name, J.Num (float_of_int v))

(* the counts of the span set just recorded: the benchmark's own, and
   the library's from Obs.Registry *)
let counts () =
  let lanes = Parallel.Pool.size (Parallel.Pool.global ()) in
  let busy_ns =
    List.init lanes (fun i -> counter (Printf.sprintf "kitdpe.parallel.pool.lane%d.busy_ns" i))
    |> List.fold_left ( + ) 0
  in
  [ num_field "pairs" !pairs;
    num_field "range_calls" !range_calls;
    num_field "range_hits" !range_hits;
    num_field "encrypted" !encrypted;
    ("matrix_mb", J.Num !matrix_mb);
    num_field "index_probes" (counter "kitdpe.index.probes");
    num_field "index_queries" (counter "kitdpe.index.queries");
    num_field "lanes" lanes;
    num_field "busy_ns" busy_ns ]

(* [f] runs twice untraced and twice traced, alternating; the spans and
   counts reported are the last traced run's, plus the last untraced
   run's op spans *)
let traced_replay f =
  let run traced =
    start_recording traced;
    Obs.Export.refresh_runtime ();
    let major0 = counter "kitdpe.runtime.major_collections" in
    let t0 = now () in
    let v = span "root" "replay" f in
    let dt = now () -. t0 in
    Obs.Export.refresh_runtime ();
    let major = counter "kitdpe.runtime.major_collections" - major0 in
    stop_recording ();
    (dt, major, v)
  in
  let u1, _, _ = run false in
  let t1, _, _ = run true in
  let u2, _, _ = run false in
  let untraced_ops = List.rev_map span_json !spans in
  let t2, major, v = run true in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  ( v,
    J.Obj
      [ ("untraced_s", J.Arr [ J.Num u1; J.Num u2 ]);
        ("traced_s", J.Arr [ J.Num t1; J.Num t2 ]);
        ("spans", J.Arr (List.rev_map span_json !spans));
        ("untraced_ops", J.Arr untraced_ops);
        ( "counts",
          J.Obj
            (counts ()
            @ [ num_field "major_collections" major; ("top_heap_mb", J.Num top_heap_mb) ]) ) ] )

(* the alternative run: traced once, outside the reconciled replay *)
let alt_run f =
  start_recording true;
  let v = span "root" "alt" f in
  stop_recording ();
  (v, J.Obj [ ("spans", J.Arr (List.rev_map span_json !spans)); ("counts", J.Obj (counts ())) ])

(* serve requests the default path answers with the matrix engine, run
   once more on the index engine and CLARANS *)
let serve_alt requests =
  List.filter_map
    (fun r ->
      let j = r.r_json in
      if r.r_op <> "mine" then None
      else
        let measure = measure_of (str "measure" j) in
        let log = parse_all (strings "queries" j) in
        match str "algo" j with
        | "dbscan" ->
          Some (labels_json (span "op" "alt.dbscan" (fun () -> vp_dbscan measure ~seed:"serve" ~eps:(num "eps" j) log)))
        | "kmedoids" ->
          ignore (span "op" "alt.clarans" (fun () -> clarans measure ~seed:"serve" ~k:(int "k" j) log));
          None
        | _ -> None)
    requests

let trace j =
  match str "kind" j with
  | "batch" ->
    let b = batch_of_plan j in
    let (cipher_text, labels), replay = traced_replay (fun () -> batch_job b) in
    let other, alt = alt_run (fun () -> batch_alt b cipher_text) in
    J.Obj
      [ ("replay", replay);
        ("alt", alt);
        ("ciphertext", J.Arr (List.map (fun s -> J.Str s) cipher_text));
        ("labels", J.Obj (List.map (fun (a, l) -> (a, labels_json l)) labels));
        ("dbscan_other_engine", labels_json other) ]
  | "serve" ->
    let pools = pools_of_plan j in
    let requests = requests_of_plan j in
    let responses, replay = traced_replay (fun () -> serve_replay (str "master" j) pools requests) in
    let alt_dbscan, alt = alt_run (fun () -> serve_alt requests) in
    J.Obj
      [ ("replay", replay);
        ("alt", alt);
        ("responses", J.Arr responses);
        ("alt_dbscan", J.Arr alt_dbscan) ]
  | k -> fail "unknown plan kind %s" k

let gen n templates seed measure =
  let caps = Workload.Gen_query.caps_for_measure measure in
  Workload.Gen_query.skyserver_log_labelled { Workload.Gen_query.n; templates; seed; caps }
  |> List.iter (fun (_, q) -> print_endline (Sqlir.Printer.to_string q))

(* A fixed kernel that calls no library code: sorting a permutation
   through polymorphic compare, which is memory- and call-bound like the
   library's work.  Its CPU seconds gauge the host's current speed. *)
let calib () =
  let n = 200_000 in
  let t0 = Sys.time () in
  let a = Array.init n (fun i -> i * 104_729 mod n) in
  Array.sort compare a;
  let dt = Sys.time () -. t0 in
  if a.(n / 2) <> n / 2 then fail "calib: wrong result";
  Printf.printf "%.6f\n" dt

let plan path =
  match J.parse (read_file path) with Ok j -> j | Error e -> fail "plan %s: %s" path e

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; n; t; seed; m ] -> gen (int_of_string n) (int_of_string t) seed (measure_of m)
  | [ _; "labels"; p ] ->
    let j = plan p in
    print_endline
      (Server.Proto.render (if str "kind" j = "serve" then serve_labels j else batch_labels j))
  | [ _; "trace"; p ] -> print_endline (Server.Proto.render (trace (plan p)))
  | [ _; "calib" ] -> calib ()
  | [ _; "info" ] ->
    Printf.printf "{\"pool_lanes\":%d,\"ocaml\":%S}\n"
      (Parallel.Pool.size (Parallel.Pool.global ())) Sys.ocaml_version
  | _ ->
    prerr_endline "usage: pbtool (gen N TEMPLATES SEED MEASURE | labels PLAN | trace PLAN | info | calib)";
    exit 2
