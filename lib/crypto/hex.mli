(** Lowercase hex encoding, used to embed ciphertexts in SQL text. *)

val encode : string -> string
(** Two digits per byte from a 16-character table, high nibble first. *)

val decode : string -> string option
(** [None] on odd length or non-hex characters. *)
