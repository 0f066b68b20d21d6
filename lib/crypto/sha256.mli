(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used as the basis for {!Hmac}, the {!Drbg} deterministic random byte
    generator and every key-derivation step in the library. *)

val digest : string -> string
(** [digest msg] is the 32-byte SHA-256 digest of [msg]. *)

val hex : string -> string
(** [hex msg] is the lowercase hex encoding of [digest msg]. *)
