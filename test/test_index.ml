(* Metric indexes (lib/index): exactness against brute force, structural
   determinism across pool sizes, engine equivalence for DBSCAN, the
   CLARANS cost bound against full PAM, and the ["index.build"] fault
   surface. *)

module F = Distance.Features
module M = Distance.Measure
module W = Workload.Gen_query

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_labels = Alcotest.(check (array int))
let check_ints = Alcotest.(check (list int))

let with_pool domains f =
  let p = Parallel.Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown p) (fun () -> f p)

let pool_sizes = [ 1; 2; 4 ]

let gen_log ~n ~seed m =
  W.skyserver_log
    { W.n; templates = 4; seed; caps = W.caps_for_measure m }

let feats_of ~n ~seed m = F.build (Array.of_list (gen_log ~n ~seed m))

let kinds =
  [ ("token", Index.Space.Token, 0.4);
    ("structure", Index.Space.Structure, 0.4);
    ("edit", Index.Space.Edit, 0.35);
    ("clause", Index.Space.Clause, 0.4) ]

let measure_of_kind = function
  | Index.Space.Token -> M.Token
  | Index.Space.Structure -> M.Structure
  | Index.Space.Edit -> M.Edit
  | Index.Space.Clause -> M.Clause

(* the reference answer: the brute-force scan over the exact predicate,
   ascending — precisely what the trees must reproduce *)
let brute sp ~eps q =
  let acc = ref [] in
  for j = Index.Space.size sp - 1 downto 0 do
    if j <> q && Index.Space.within sp ~eps q j then acc := j :: !acc
  done;
  !acc

(* ---- eps-range exactness ---- *)

let test_vp_range_exact () =
  List.iter
    (fun (name, kind, eps) ->
      let m = measure_of_kind kind in
      let feats = feats_of ~n:90 ~seed:("vp-" ^ name) m in
      let sp = Index.Space.of_kind kind feats in
      List.iter
        (fun domains ->
          with_pool domains (fun pool ->
              let t = Index.Vp_tree.build ~pool ~seed:"t" sp in
              for q = 0 to Index.Space.size sp - 1 do
                (* a couple of radii per point: the planted-cluster one
                   and a tight near-duplicate one *)
                List.iter
                  (fun eps ->
                    Alcotest.(check (list int))
                      (Printf.sprintf "%s d%d q%d eps%g" name domains q eps)
                      (brute sp ~eps q)
                      (Index.Vp_tree.range t ~eps q))
                  [ eps; 0.05 ]
              done))
        pool_sizes)
    kinds

(* ---- determinism: bit-identical trees for every pool size ---- *)

let test_fingerprint_pool_independent () =
  List.iter
    (fun (name, kind, _) ->
      let m = measure_of_kind kind in
      let feats = feats_of ~n:120 ~seed:("fp-" ^ name) m in
      let sp = Index.Space.of_kind kind feats in
      let fps =
        List.map
          (fun domains ->
            with_pool domains (fun pool ->
                Index.Vp_tree.fingerprint (Index.Vp_tree.build ~pool ~seed:"t" sp)))
          pool_sizes
      in
      List.iter
        (fun fp -> check_string (name ^ " vp fingerprint") (List.hd fps) fp)
        (List.tl fps))
    kinds

let test_seed_changes_tree () =
  let feats = feats_of ~n:80 ~seed:"seeded" M.Token in
  let sp = Index.Space.of_kind Index.Space.Token feats in
  let fp seed = Index.Vp_tree.fingerprint (Index.Vp_tree.build ~seed sp) in
  check_bool "different seeds, different vantages" true (fp "a" <> fp "b");
  check_string "same seed, same tree" (fp "a") (fp "a")

(* ---- DBSCAN engine equivalence ---- *)

let test_dbscan_engines_identical () =
  List.iter
    (fun (name, kind, eps) ->
      let m = measure_of_kind kind in
      let log = gen_log ~n:70 ~seed:("eng-" ^ name) m in
      let feats = F.build (Array.of_list log) in
      let sp = Index.Space.of_kind kind feats in
      let n = Index.Space.size sp in
      let dm = M.matrix M.default_ctx m log in
      let via_matrix = Mining.Dbscan.run { Mining.Dbscan.eps; min_pts = 3 } dm in
      let via_oracle =
        Mining.Dbscan.run_index ~min_pts:3
          (Mining.Dbscan.brute_force ~n ~within:(fun i j -> Index.Space.within sp ~eps i j))
      in
      let tree = Index.Vp_tree.build ~seed:"t" sp in
      let via_index =
        Mining.Dbscan.run_index ~min_pts:3
          { Mining.Dbscan.ri_n = n;
            range = (fun i -> Index.Vp_tree.range tree ~eps i) }
      in
      check_labels (name ^ " oracle = matrix") via_matrix via_oracle;
      check_labels (name ^ " index = matrix") via_matrix via_index)
    kinds

let test_oracle_probe_counter () =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let feats = feats_of ~n:20 ~seed:"probes" M.Token in
  let sp = Index.Space.of_kind Index.Space.Token feats in
  (* the registry memoizes by name: this is the very counter the oracle
     path increments *)
  let probes = Obs.Registry.counter "kitdpe.mining.dbscan.oracle_probes" in
  let before = Obs.Metric.value probes in
  ignore
    (Mining.Dbscan.run_index ~min_pts:3
       (Mining.Dbscan.brute_force ~n:20
          ~within:(fun i j -> Index.Space.within sp ~eps:0.4 i j)));
  let spent = Obs.Metric.value probes - before in
  check_bool "probes counted per scan" true (spent >= 19 && spent mod 19 = 0)

(* ---- CLARANS vs full PAM ---- *)

let test_clarans_cost_bound () =
  let m = M.Token in
  let log = gen_log ~n:48 ~seed:"clarans" m in
  let dm = M.matrix M.default_ctx m log in
  let n = Mining.Dist_matrix.size dm in
  let k = 4 in
  let pam_labels = Mining.Kmedoids.run_pam { Mining.Kmedoids.k; max_iter = 50 } dm in
  (* PAM cost from its labels: each point to its cluster's medoid is not
     directly exposed, so recompute the best-medoid cost of the PAM
     partition via the cluster-minimizing medoid definition *)
  let pam_cost =
    let total = ref 0.0 in
    for c = 0 to k - 1 do
      let members =
        List.filter (fun i -> pam_labels.(i) = c) (List.init n (fun i -> i))
      in
      match members with
      | [] -> ()
      | _ ->
        let best = ref infinity in
        List.iter
          (fun cand ->
            let s =
              List.fold_left
                (fun acc i -> acc +. Mining.Dist_matrix.get dm cand i)
                0.0 members
            in
            if s < !best then best := s)
          members;
        total := !total +. !best
    done;
    !total
  in
  let rng = Crypto.Drbg.create ~seed:"clarans-test" in
  let rand b = Crypto.Drbg.uniform_int rng b in
  let _, labels, cost =
    Mining.Kmedoids.run_clarans_full ~rand
      { Mining.Kmedoids.c_k = k; num_local = 3; max_neighbor = 250 }
      ~n
      ~d:(fun i j -> Mining.Dist_matrix.get dm i j)
  in
  check_int "labels cover all points" n (Array.length labels);
  Array.iter (fun l -> check_bool "label in range" true (l >= 0 && l < k)) labels;
  check_bool
    (Printf.sprintf "clarans cost %.4f within 1.10x of pam %.4f" cost pam_cost)
    true
    (cost <= (1.10 *. pam_cost) +. 1e-9)

let test_clarans_deterministic () =
  let d i j = Float.abs (float_of_int i -. float_of_int j) /. 10.0 in
  let run () =
    let rng = Crypto.Drbg.create ~seed:"det" in
    Mining.Kmedoids.run_clarans
      ~rand:(fun b -> Crypto.Drbg.uniform_int rng b)
      { Mining.Kmedoids.c_k = 3; num_local = 2; max_neighbor = 60 }
      ~n:30 ~d
  in
  check_labels "same rand, same labels" (run ()) (run ())

(* ---- faults ---- *)

let with_faults spec f =
  (match Fault.Inject.arm_spec spec with
   | Ok () -> ()
   | Error m -> Alcotest.fail ("arm_spec rejected " ^ spec ^ ": " ^ m));
  Fun.protect ~finally:Fault.Inject.disarm_all f

let test_build_r_contains () =
  let feats = feats_of ~n:40 ~seed:"faulty" M.Token in
  let sp = Index.Space.of_kind Index.Space.Token feats in
  let baseline = Index.Vp_tree.fingerprint (Index.Vp_tree.build ~seed:"t" sp) in
  with_faults "index.build=every:5" (fun () ->
      (* build propagates *)
      check_bool "build raises armed" true
        (match Index.Vp_tree.build ~seed:"t" sp with
         | _ -> false
         | exception Fault.Error.E (Fault.Error.Injected _) -> true);
      let t, errs = Index.Vp_tree.build_r ~seed:"t" sp in
      check_bool "some failures" true (errs <> []);
      check_int "healthy + failed = n" 40
        (Array.length (Index.Vp_tree.indexed t) + List.length errs);
      List.iter
        (fun e ->
          match e with
          | Fault.Error.Task_failed { label; _ } ->
            check_string "label" "index.build" label
          | e -> Alcotest.failf "unexpected error %s" (Fault.Error.to_string e))
        errs;
      (* the partial tree still answers exactly over its healthy subset *)
      let healthy = Index.Vp_tree.indexed t in
      let member j = Array.exists (fun x -> x = j) healthy in
      Array.iter
        (fun q ->
          let expect =
            List.filter member (brute sp ~eps:0.4 q)
          in
          check_ints "partial range exact" expect (Index.Vp_tree.range t ~eps:0.4 q))
        healthy;
      (* reproducible: the same armed schedule fails the same points *)
      let _, errs2 = Index.Vp_tree.build_r ~seed:"t" sp in
      check_bool "same failed set" true
        (List.map Fault.Error.to_string errs = List.map Fault.Error.to_string errs2));
  (* disarmed: bit-identical to the baseline *)
  let t, errs = Index.Vp_tree.build_r ~seed:"t" sp in
  check_bool "no errors disarmed" true (errs = []);
  check_string "fingerprint restored" baseline (Index.Vp_tree.fingerprint t)

let () =
  Alcotest.run "index"
    [ ( "range",
        [ Alcotest.test_case "vp = brute force" `Quick test_vp_range_exact ] );
      ( "determinism",
        [ Alcotest.test_case "fingerprint pool-independent" `Quick
            test_fingerprint_pool_independent;
          Alcotest.test_case "seed changes tree" `Quick test_seed_changes_tree ] );
      ( "dbscan",
        [ Alcotest.test_case "engines identical" `Quick test_dbscan_engines_identical;
          Alcotest.test_case "oracle probes counted" `Quick test_oracle_probe_counter ] );
      ( "clarans",
        [ Alcotest.test_case "cost within bound of PAM" `Quick test_clarans_cost_bound;
          Alcotest.test_case "deterministic" `Quick test_clarans_deterministic ] );
      ( "faults",
        [ Alcotest.test_case "build_r contains" `Quick test_build_r_contains ] ) ]
