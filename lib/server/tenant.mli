(** Resident per-tenant crypto state for the always-on server.

    One master passphrase; tenant [ns] works under
    [Crypto.Keyring.derive master ns], so tenants share no derivable
    key material.  Encryptors are cached per (tenant, measure) for the
    process lifetime, and with them their DET and OPE keys: the bounded
    memo each such key owns and the Paillier noise pools stay warm
    across requests, so a token seen in an earlier request costs one
    table lookup.

    The scheme of a (tenant, measure) pair is fixed by the first log it
    sees; later queries outside its capabilities surface as typed error
    responses.

    Metrics: [kitdpe.server.tenants] (gauge — resident encryptors),
    [kitdpe.server.noise_pool.reloaded] /
    [kitdpe.server.noise_pool.rejected] (pool-image restore
    accounting). *)

type t

val create : master:string -> t
(** [master] is the deployment passphrase, stretched via
    [Keyring.of_passphrase]. *)

val encryptor :
  t -> tenant:string -> measure:Distance.Measure.t -> Sqlir.Ast.query list
  -> Dpe.Encryptor.t
(** Get-or-create the resident encryptor for (tenant, measure); the log
    is only consulted on first creation (scheme selection). *)

val set_noise_pool_image : t -> string -> unit
(** Install a saved noise-pool image ({!Crypto.Paillier.pool_save});
    every encryptor created afterwards attempts a fingerprint-guarded
    reload and starts cold on mismatch. *)

val noise_pool_image : t -> string option
(** Serialize the first resident pool (sorted key order) holding
    entries — written to disk at drain, reloaded at next start. *)

val resident : t -> (string * string) list
(** The sorted (tenant, measure) pairs currently resident. *)
