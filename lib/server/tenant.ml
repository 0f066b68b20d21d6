(* Resident per-tenant crypto state.

   One master keyring serves every tenant: tenant [ns] works under
   [Keyring.derive master ns], so tenants share no derivable key
   material.  Encryptors are cached per (tenant, measure) for the life
   of the process — the memos their DET and OPE keys own and their
   Paillier noise pools stay warm across requests, which is the entire point of an always-on
   server over a per-invocation CLI.

   The scheme for a (tenant, measure) pair is fixed by the first log it
   sees (scheme selection needs a log profile); subsequent requests
   reuse it.  A later query outside the scheme's capabilities surfaces
   as a typed error response, never a crash.

   Noise-pool persistence: a saved pool image (Paillier.pool_save) can
   be installed with [set_noise_pool_image]; every encryptor created
   afterwards attempts to reload it.  The image is fingerprint-bound to
   its public key, so only the matching (tenant, measure) pair accepts
   it — a mismatch is counted and the encryptor simply starts cold. *)

module M = Distance.Measure

type t = {
  master : Crypto.Keyring.t;
  lock : Mutex.t;
  encryptors : (string * string, Dpe.Encryptor.t) Hashtbl.t;
  mutable pool_image : string option;
}

let m_tenants = Obs.Registry.gauge "kitdpe.server.tenants"
let m_pool_reloaded = Obs.Registry.counter "kitdpe.server.noise_pool.reloaded"
let m_pool_rejected = Obs.Registry.counter "kitdpe.server.noise_pool.rejected"

let create ~master =
  { master = Crypto.Keyring.of_passphrase master;
    lock = Mutex.create ();
    encryptors = Hashtbl.create 16;
    pool_image = None }

let set_noise_pool_image t image =
  Mutex.lock t.lock;
  t.pool_image <- Some image;
  Mutex.unlock t.lock

let try_reload_pool enc image =
  let pool = Dpe.Encryptor.enable_noise_pool enc in
  let pub, _ = Dpe.Encryptor.paillier enc in
  match Crypto.Paillier.pool_load pool pub image with
  | Ok n -> Obs.Metric.add m_pool_reloaded n
  | Error _ ->
    (* saved under a different (tenant, measure) key: start cold *)
    Obs.Metric.incr m_pool_rejected

let encryptor t ~tenant ~measure log =
  let key = (tenant, M.to_string measure) in
  Mutex.lock t.lock;
  let enc =
    match Hashtbl.find_opt t.encryptors key with
    | Some enc -> enc
    | None ->
      let scheme = Dpe.Selector.select measure (Dpe.Log_profile.of_log log) in
      let keyring = Crypto.Keyring.derive t.master tenant in
      let enc = Dpe.Encryptor.create keyring scheme in
      (match t.pool_image with
       | Some image -> try_reload_pool enc image
       | None -> ());
      Hashtbl.replace t.encryptors key enc;
      Obs.Metric.set_gauge m_tenants (Hashtbl.length t.encryptors);
      enc
  in
  Mutex.unlock t.lock;
  enc

let resident t =
  Mutex.lock t.lock;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.encryptors [] in
  Mutex.unlock t.lock;
  List.sort compare keys

(* the saved image is the first resident encryptor (in sorted key order)
   whose pool holds entries — one image, fingerprint-bound to its key,
   reloaded by exactly that pair on restart *)
let noise_pool_image t =
  Mutex.lock t.lock;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.encryptors [] in
  let keys = List.sort compare keys in
  let image =
    List.fold_left
      (fun acc key ->
        match acc with
        | Some _ -> acc
        | None -> (
          match Hashtbl.find_opt t.encryptors key with
          | None -> None
          | Some enc -> (
            match Dpe.Encryptor.noise_pool enc with
            | Some pool when Crypto.Paillier.pool_depth pool > 0 ->
              let pub, _ = Dpe.Encryptor.paillier enc in
              Some (Crypto.Paillier.pool_save pool pub)
            | _ -> None)))
      None keys
  in
  Mutex.unlock t.lock;
  image
