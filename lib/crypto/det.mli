(** Deterministic encryption (the paper's DET class).

    SIV-style construction: the IV is a PRF of the plaintext, so equal
    plaintexts map to equal ciphertexts — exactly the equality leakage that
    token equivalence (Table I) requires — and nothing beyond equality is
    revealed under a query-only attack. *)

type key

val key_of_master : master:string -> purpose:string -> key

val encrypt : key -> string -> string
(** Layout: SIV (16) ‖ CT (|msg|).  Deterministic.

    Each key carries a transparent {!Memo} of past encryptions, as
    {!Ope} keys do: a hit returns exactly the ciphertext the SIV + CTR
    computation would, and only skips it.  A hit reveals that a
    plaintext repeated, which equal DET ciphertexts reveal anyway.
    Plaintexts longer than 64 bytes bypass the memo, which bounds its
    size: at worst, on a 64-bit host, each of its 2^16 entries holds a
    64-byte plaintext (80 B), its ciphertext (96 B) and a bucket
    (32 B), 208 B in all, so 13 MiB plus a 256 KiB bucket array: about
    13.3 MiB per key. *)

val decrypt : key -> string -> string option
(** [None] if the ciphertext is malformed or its SIV does not re-verify.
    The SIV comparison is constant-time ({!Ct.equal}, lint rule CT01). *)

val token : key -> string -> string
(** [token k msg] is the 16-byte SIV alone — a deterministic, equality-
    testable pseudonym.  Used where only the pseudonym is needed (e.g.
    relation names inside query text). *)

type cache_stats = Memo.stats = { hits : int; misses : int; evictions : int; size : int }
(** Per-key memo telemetry ({!Memo.stats}): [hits]/[misses] count
    {!encrypt} lookups; a plaintext too long for the memo is not looked
    up. *)

val cache_stats : key -> cache_stats
(** Snapshot of this key's memo counters.  The same numbers, aggregated
    over every DET key in the process, are published to the [Obs]
    registry as [kitdpe.crypto.det.cache_{hits,misses,evictions}]. *)
