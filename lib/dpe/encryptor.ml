module Ast = Sqlir.Ast
module Value = Minidb.Value

exception Encrypt_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Encrypt_error s)) fmt

(* caught [Encrypt_error]s surface through the typed channel as crypto
   failures instead of an opaque [Unexpected] *)
let () =
  Fault.Error.register_exn_translator (function
    | Encrypt_error reason ->
      Some (Fault.Error.Crypto_failure { op = "dpe.encryptor"; reason })
    | _ -> None)

(* OPE domain: signed 32-bit integers, shifted into [0, 2^32) *)
let ope_params = { Crypto.Ope.plain_bits = 32; cipher_bits = 48 }
let ope_offset = 1 lsl 31

type t = {
  keyring : Crypto.Keyring.t;
  scheme : Scheme.t;
  rng : Crypto.Drbg.t;
  det_keys : (string, Crypto.Det.key) Hashtbl.t;
  ope_keys : (string, Crypto.Ope.key) Hashtbl.t;
  prob_keys : (string, Crypto.Prob.key) Hashtbl.t;
  mutable paillier_pair : (Crypto.Paillier.public * Crypto.Paillier.secret) option;
  mutable noise_pool : Crypto.Paillier.pool option;
}

let create keyring scheme =
  { keyring; scheme;
    rng = Crypto.Keyring.drbg keyring "encryptor";
    det_keys = Hashtbl.create 16;
    ope_keys = Hashtbl.create 16;
    prob_keys = Hashtbl.create 16;
    paillier_pair = None;
    noise_pool = None }

let scheme t = t.scheme

let cached tbl purpose make =
  match Hashtbl.find_opt tbl purpose with
  | Some k -> k
  | None ->
    let k = make purpose in
    Hashtbl.add tbl purpose k;
    k

let det_key t purpose = cached t.det_keys purpose (Crypto.Keyring.det t.keyring)
let prob_key t purpose = cached t.prob_keys purpose (Crypto.Keyring.prob t.keyring)

let ope_key t purpose =
  cached t.ope_keys purpose (Crypto.Keyring.ope t.keyring ~params:ope_params)

let join_det_key t group = cached t.det_keys ("join:" ^ group)
    (fun _ -> Crypto.Keyring.join_det t.keyring group)

let join_ope_key t group = cached t.ope_keys ("join:" ^ group)
    (fun _ -> Crypto.Keyring.join_ope t.keyring ~params:ope_params group)

let paillier t =
  match t.paillier_pair with
  | Some pair -> pair
  | None ->
    let rng = Crypto.Keyring.drbg t.keyring "paillier-keygen" in
    let pair = Crypto.Paillier.keygen ~bits:512 rng in
    t.paillier_pair <- Some pair;
    pair

(* ---- HOM noise pool ----

   Every HOM cell owns a derivation label and draws its Paillier
   randomness from the keyring DRBG of that label — never from the
   shared row generator — so the r^n factor can be precomputed by any
   lane, in any order, before (or instead of) the encrypting lane
   deriving it itself.  The label depends only on the cell coordinates:
   it is deliberately independent of the bulk-path retry attempt, so a
   retried row re-produces the identical HOM ciphertext and a prewarmed
   pool entry stays valid across retries. *)

let hom_cell_key ~rel ~row ~attr = Printf.sprintf "%s/%d/%s" rel row attr

let hom_noise_rng t key = Crypto.Keyring.drbg t.keyring ("paillier-noise/" ^ key)

let enable_noise_pool ?capacity t =
  match t.noise_pool with
  | Some pool -> pool
  | None ->
    let pool = Crypto.Paillier.pool_create ?capacity () in
    t.noise_pool <- Some pool;
    pool

let noise_pool t = t.noise_pool

(* under a Global policy all identifiers share one token map, so that a
   name used both as a relation and as an attribute stays one token *)
let is_global t =
  match t.scheme.Scheme.consts with
  | Scheme.Global _ -> true
  | Scheme.Per_attribute _ -> false

let ident_purpose t ~slot = if is_global t then "token" else slot

(* identifier-safe deterministic name encryption; the full SIV ciphertext
   is kept so the key owner can invert it *)
let encrypt_name t ~slot ~prefix name =
  let key = det_key t (ident_purpose t ~slot) in
  prefix ^ Crypto.Hex.encode (Crypto.Det.encrypt key name)

let decrypt_name t ~slot ~prefix name =
  let plen = String.length prefix in
  if String.length name <= plen || String.sub name 0 plen <> prefix then None
  else
    match Crypto.Hex.decode (String.sub name plen (String.length name - plen)) with
    | None -> None
    | Some ct -> Crypto.Det.decrypt (det_key t (ident_purpose t ~slot)) ct

let ident_prefix t ~slot =
  if is_global t then "x_" else if slot = "rel" then "r_" else "a_"

let encrypt_rel t name = encrypt_name t ~slot:"rel" ~prefix:(ident_prefix t ~slot:"rel") name
let encrypt_attr_name t name =
  encrypt_name t ~slot:"attr" ~prefix:(ident_prefix t ~slot:"attr") name

let decrypt_rel t name = decrypt_name t ~slot:"rel" ~prefix:(ident_prefix t ~slot:"rel") name
let decrypt_attr_name t name =
  decrypt_name t ~slot:"attr" ~prefix:(ident_prefix t ~slot:"attr") name

(* ---- constants ---- *)

let render_const = Sqlir.Printer.const_to_string

(* inverse of [render_const] *)
let unescape_quotes s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '\'' && !i + 1 < n && s.[!i + 1] = '\'' then begin
      Buffer.add_char buf '\'';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let unrender_const s =
  let n = String.length s in
  if n >= 2 && s.[0] = '\'' && s.[n - 1] = '\'' then
    Ast.Cstring (unescape_quotes (String.sub s 1 (n - 2)))
  else
    match int_of_string_opt s with
    | Some i -> Ast.Cint i
    | None ->
      (match float_of_string_opt s with
       | Some f -> Ast.Cfloat f
       | None -> Ast.Cstring s)

let det_const t ~purpose c =
  Ast.Cstring (Crypto.Hex.encode (Crypto.Det.encrypt (det_key t purpose) (render_const c)))

let det_const_with_key key c =
  Ast.Cstring (Crypto.Hex.encode (Crypto.Det.encrypt key (render_const c)))

let prob_const t ~purpose c =
  Ast.Cstring
    (Crypto.Hex.encode (Crypto.Prob.encrypt (prob_key t purpose) t.rng (render_const c)))

let ope_int key (n [@secret]) =
  if n < -ope_offset || n >= ope_offset then
    raise
      (Fault.Error.E
         (Fault.Error.Ope_range_exhausted
            { op = "Dpe.Encryptor.ope_int"; bits = Crypto.Ct.int_bits n }));
  Crypto.Ope.encrypt key (n + ope_offset)

let ope_const key (c [@secret]) =
  match c with
  | Ast.Cint n -> Ast.Cint (ope_int key n)
  | Ast.Cfloat f ->
    err "float constant %s under an OPE policy" (Crypto.Ct.redact (string_of_float f))
  | Ast.Cstring s -> err "string constant %s under an OPE policy" (Crypto.Ct.redact s)

(* the policy key of an attribute is its unqualified plaintext name *)
let policy_key (a : Ast.attr) = a.Ast.name

let encrypt_const_for_class t ~attr cls c =
  match cls with
  | Scheme.C_det -> det_const t ~purpose:("const/" ^ attr) c
  | Scheme.C_det_join g -> det_const_with_key (join_det_key t g) c
  | Scheme.C_prob -> prob_const t ~purpose:("const/" ^ attr) c
  | Scheme.C_ope -> ope_const (ope_key t ("const/" ^ attr)) c
  | Scheme.C_ope_join g -> ope_const (join_ope_key t g) c
  | Scheme.C_hom ->
    err "constant of attribute %s compared against a HOM column" attr

let encrypt_const t (ctx : Ast.const_ctx) (c : Ast.const) : Ast.const =
  match t.scheme.Scheme.consts with
  | Scheme.Global Scheme.C_det -> det_const t ~purpose:"token" c
  | Scheme.Global Scheme.C_prob -> prob_const t ~purpose:"const-global" c
  | Scheme.Global cls ->
    err "unsupported global constant class %s" (Scheme.show_const_class cls)
  | Scheme.Per_attribute _ ->
    (match ctx with
     | Ast.In_predicate a ->
       encrypt_const_for_class t ~attr:(policy_key a)
         (Scheme.class_for_attr t.scheme (policy_key a)) c
     | Ast.In_aggregate (Ast.Count, _) ->
       (* COUNT outputs are plaintext cardinalities on both sides *)
       c
     | Ast.In_aggregate ((Ast.Min | Ast.Max), Some a) ->
       encrypt_const_for_class t ~attr:(policy_key a)
         (Scheme.class_for_attr t.scheme (policy_key a)) c
     | Ast.In_aggregate ((Ast.Sum | Ast.Avg), Some a) ->
       err "SUM/AVG threshold on %s cannot be compared under encryption \
            (needs the client round-trip)" (policy_key a)
     | Ast.In_aggregate (_, None) ->
       err "aggregate threshold without an argument attribute")

let encrypt_attr t (a : Ast.attr) : Ast.attr =
  { Ast.rel = Option.map (encrypt_rel t) a.Ast.rel;
    name = encrypt_attr_name t a.Ast.name }

let encrypt_query t q =
  Ast.map_query ~rel:(encrypt_rel t) ~attr:(encrypt_attr t) ~const:(encrypt_const t) q

let encrypt_log t log = List.map (encrypt_query t) log

(* ---- decryption ---- *)

let decrypt_const_exn t (ctx : Ast.const_ctx) (c : Ast.const) : Ast.const =
  let det_inv ~purpose s =
    match Crypto.Hex.decode s with
    | None -> err "constant is not hex: %s" s
    | Some ct ->
      (match Crypto.Det.decrypt (det_key t purpose) ct with
       | Some plain -> unrender_const plain
       | None -> err "DET decryption failed")
  in
  let det_inv_key key s =
    match Crypto.Hex.decode s with
    | None -> err "constant is not hex: %s" s
    | Some ct ->
      (match Crypto.Det.decrypt key ct with
       | Some plain -> unrender_const plain
       | None -> err "DET decryption failed")
  in
  let prob_inv ~purpose s =
    match Crypto.Hex.decode s with
    | None -> err "constant is not hex: %s" s
    | Some ct ->
      (match Crypto.Prob.decrypt (prob_key t purpose) ct with
       | Some plain -> unrender_const plain
       | None -> err "PROB decryption failed (wrong key or corrupt)")
  in
  let ope_inv key n =
    match Crypto.Ope.decrypt key n with
    | Some m -> Ast.Cint (m - ope_offset)
    | None -> err "OPE ciphertext %d is not in the image" n
  in
  match t.scheme.Scheme.consts with
  | Scheme.Global Scheme.C_det ->
    (match c with
     | Ast.Cstring s -> det_inv ~purpose:"token" s
     | _ -> err "global DET constants are hex strings")
  | Scheme.Global Scheme.C_prob ->
    (match c with
     | Ast.Cstring s -> prob_inv ~purpose:"const-global" s
     | _ -> err "global PROB constants are hex strings")
  | Scheme.Global _ -> err "unsupported global class"
  | Scheme.Per_attribute _ ->
    (* ctx carries the *encrypted* attribute: recover its plaintext name to
       find the policy *)
    let plain_attr (a : Ast.attr) =
      match decrypt_attr_name t a.Ast.name with
      | Some n -> n
      | None -> err "cannot decrypt attribute name %s" a.Ast.name
    in
    let for_attr a =
      let name = plain_attr a in
      match Scheme.class_for_attr t.scheme name, c with
      | Scheme.C_det, Ast.Cstring s -> det_inv ~purpose:("const/" ^ name) s
      | Scheme.C_det_join g, Ast.Cstring s -> det_inv_key (join_det_key t g) s
      | Scheme.C_prob, Ast.Cstring s -> prob_inv ~purpose:("const/" ^ name) s
      | Scheme.C_ope, Ast.Cint n -> ope_inv (ope_key t ("const/" ^ name)) n
      | Scheme.C_ope_join g, Ast.Cint n -> ope_inv (join_ope_key t g) n
      | cls, _ ->
        err "constant %s does not match policy %s of %s"
          (render_const c) (Scheme.show_const_class cls) (Crypto.Ct.redact name)
    in
    (match ctx with
     | Ast.In_predicate a -> for_attr a
     | Ast.In_aggregate (Ast.Count, _) -> c
     | Ast.In_aggregate ((Ast.Min | Ast.Max), Some a) -> for_attr a
     | Ast.In_aggregate _ -> err "undecryptable aggregate threshold")

let decrypt_query t q =
  let rel name =
    match decrypt_rel t name with
    | Some n -> n
    | None -> err "cannot decrypt relation name %s" name
  in
  let attr (a : Ast.attr) =
    match decrypt_attr_name t a.Ast.name with
    | Some n -> { Ast.rel = Option.map rel a.Ast.rel; name = n }
    | None -> err "cannot decrypt attribute name %s" a.Ast.name
  in
  match Ast.map_query ~rel ~attr ~const:(decrypt_const_exn t) q with
  | q' -> Ok q'
  | exception Encrypt_error msg -> Error msg

(* ---- values ---- *)

let value_render v =
  match Value.to_const v with
  | Some c -> render_const c
  | None -> err "cannot encrypt NULL (nulls pass through)"

let encrypt_value t ~attr (v [@secret]) =
  if Value.is_null v then v
  else begin
    match
      (match t.scheme.Scheme.consts with
       | Scheme.Global cls -> cls
       | Scheme.Per_attribute _ -> Scheme.class_for_attr t.scheme attr)
    with
    | Scheme.C_det ->
      let purpose = if is_global t then "token" else "const/" ^ attr in
      Value.Vstring
        (Crypto.Hex.encode (Crypto.Det.encrypt (det_key t purpose) (value_render v)))
    | Scheme.C_det_join g ->
      Value.Vstring
        (Crypto.Hex.encode (Crypto.Det.encrypt (join_det_key t g) (value_render v)))
    | Scheme.C_prob ->
      let purpose = if is_global t then "const-global" else "const/" ^ attr in
      Value.Vstring
        (Crypto.Hex.encode
           (Crypto.Prob.encrypt (prob_key t purpose) t.rng (value_render v)))
    | Scheme.C_ope ->
      (match v with
       | Value.Vint n -> Value.Vint (ope_int (ope_key t ("const/" ^ attr)) n)
       | v -> err "OPE column %s holds non-integer %s" attr (Crypto.Ct.redact (Value.to_string v)))
    | Scheme.C_ope_join g ->
      (match v with
       | Value.Vint n -> Value.Vint (ope_int (join_ope_key t g) n)
       | v -> err "OPE join column %s holds non-integer %s" attr (Crypto.Ct.redact (Value.to_string v)))
    | Scheme.C_hom ->
      (match v with
       | Value.Vint n ->
         let pub, _ = paillier t in
         Value.Vstring
           (Crypto.Hex.encode
              (Crypto.Paillier.serialize (Crypto.Paillier.encrypt_int pub t.rng n)))
       | v -> err "HOM column %s holds non-integer %s" attr (Crypto.Ct.redact (Value.to_string v)))
  end

(* ---- bulk (multi-domain) encryption support ----

   [encrypt_value] draws PROB IVs and Paillier randomness from the
   encryptor's single sequential DRBG, which bulk row encryption cannot
   share across domains.  The bulk path instead gives every row its own
   generator derived from the keyring ([row_rng]) and resolves each
   column's key material once, up front, into a closure over immutable
   state ([column_encoder]) that any domain may call. *)

let value_class t ~attr =
  match t.scheme.Scheme.consts with
  | Scheme.Global cls -> cls
  | Scheme.Per_attribute _ -> Scheme.class_for_attr t.scheme attr

let row_rng ?(attempt = 0) t ~rel i =
  (* attempt 0 keeps the historical purpose string, so faults-off bulk
     ciphertexts stay bit-identical; a retry re-derives fresh (but still
     deterministic) randomness from the attempt number *)
  let purpose =
    if attempt = 0 then Printf.sprintf "row/%s/%d" rel i
    else Printf.sprintf "row/%s/%d/retry/%d" rel i attempt
  in
  Crypto.Keyring.drbg t.keyring purpose

let column_encoder t ~rel ~attr =
  let nonnull f ~rng ~row v = if Value.is_null v then v else f ~rng ~row v in
  let det_with key =
    nonnull (fun ~rng:_ ~row:_ v ->
        Value.Vstring (Crypto.Hex.encode (Crypto.Det.encrypt key (value_render v))))
  in
  match value_class t ~attr with
  | Scheme.C_det ->
    let purpose = if is_global t then "token" else "const/" ^ attr in
    det_with (det_key t purpose)
  | Scheme.C_det_join g -> det_with (join_det_key t g)
  | Scheme.C_prob ->
    let purpose = if is_global t then "const-global" else "const/" ^ attr in
    let key = prob_key t purpose in
    nonnull (fun ~rng ~row:_ v ->
        Value.Vstring
          (Crypto.Hex.encode (Crypto.Prob.encrypt key rng (value_render v))))
  | Scheme.C_ope ->
    let key = ope_key t ("const/" ^ attr) in
    nonnull (fun ~rng:_ ~row:_ (v [@secret]) ->
        match v with
        | Value.Vint n -> Value.Vint (ope_int key n)
        | v -> err "OPE column %s holds non-integer %s" attr (Crypto.Ct.redact (Value.to_string v)))
  | Scheme.C_ope_join g ->
    let key = join_ope_key t g in
    nonnull (fun ~rng:_ ~row:_ (v [@secret]) ->
        match v with
        | Value.Vint n -> Value.Vint (ope_int key n)
        | v ->
          err "OPE join column %s holds non-integer %s" attr (Crypto.Ct.redact (Value.to_string v)))
  | Scheme.C_hom ->
    let pub, _ = paillier t in
    (* the shared row generator is ignored: each cell derives its own
       DRBG from the cell label, the same stream [noise_fill] uses, so
       the ciphertext is identical with the pool warm, cold or absent *)
    nonnull (fun ~rng:_ ~row (v [@secret]) ->
        match v with
        | Value.Vint n ->
          let key = hom_cell_key ~rel ~row ~attr in
          let cell_rng = hom_noise_rng t key in
          Value.Vstring
            (Crypto.Hex.encode
               (Crypto.Paillier.serialize
                  (Crypto.Paillier.encrypt_int_pooled ?pool:t.noise_pool pub ~key
                     cell_rng n)))
        | v -> err "HOM column %s holds non-integer %s" attr (Crypto.Ct.redact (Value.to_string v)))

let decrypt_value t ~attr v =
  if Value.is_null v then Ok v
  else begin
    let of_const c = Value.of_const c in
    let det_inv ~key s =
      match Crypto.Hex.decode s with
      | None -> Error "not hex"
      | Some ct ->
        (match Crypto.Det.decrypt key ct with
         | Some plain -> Ok (of_const (unrender_const plain))
         | None -> Error "DET decryption failed")
    in
    match
      (match t.scheme.Scheme.consts with
       | Scheme.Global cls -> cls
       | Scheme.Per_attribute _ -> Scheme.class_for_attr t.scheme attr),
      v
    with
    | Scheme.C_det, Value.Vstring s ->
      let purpose = if is_global t then "token" else "const/" ^ attr in
      det_inv ~key:(det_key t purpose) s
    | Scheme.C_det_join g, Value.Vstring s -> det_inv ~key:(join_det_key t g) s
    | Scheme.C_prob, Value.Vstring s ->
      let purpose = if is_global t then "const-global" else "const/" ^ attr in
      (match Crypto.Hex.decode s with
       | None -> Error "not hex"
       | Some ct ->
         (match Crypto.Prob.decrypt (prob_key t purpose) ct with
          | Some plain -> Ok (of_const (unrender_const plain))
          | None -> Error "PROB decryption failed"))
    | Scheme.C_ope, Value.Vint n ->
      (match Crypto.Ope.decrypt (ope_key t ("const/" ^ attr)) n with
       | Some m -> Ok (Value.Vint (m - ope_offset))
       | None -> Error "OPE ciphertext not in image")
    | Scheme.C_ope_join g, Value.Vint n ->
      (match Crypto.Ope.decrypt (join_ope_key t g) n with
       | Some m -> Ok (Value.Vint (m - ope_offset))
       | None -> Error "OPE ciphertext not in image")
    | Scheme.C_hom, Value.Vstring s ->
      (match Crypto.Hex.decode s with
       | None -> Error "not hex"
       | Some ct ->
         let _, sk = paillier t in
         Ok (Value.Vint (Crypto.Paillier.decrypt_int sk (Crypto.Paillier.deserialize ct))))
    | cls, v ->
      Error
        (Printf.sprintf "value %s does not match policy %s of %s"
           (Value.to_string v) (Scheme.show_const_class cls) attr)
  end

(* ---- key rotation ---- *)

let rotate_query ~old_enc ~new_enc q =
  match decrypt_query old_enc q with
  | Error e -> Error ("rotation: " ^ e)
  | Ok plain -> Ok (encrypt_query new_enc plain)

let rotate_log ~old_enc ~new_enc log =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | q :: rest ->
      (match rotate_query ~old_enc ~new_enc q with
       | Ok q' -> go (q' :: acc) rest
       | Error e -> Error e)
  in
  go [] log

let encrypt_result_tuple t provenance tuple =
  if List.length provenance <> List.length tuple then
    err "provenance/tuple arity mismatch";
  List.map2
    (fun prov v ->
      match prov with
      | Minidb.Executor.Pattr (_, col) -> encrypt_value t ~attr:col v
      | Minidb.Executor.Pagg (Ast.Count, _) -> v
      | Minidb.Executor.Pagg ((Ast.Min | Ast.Max), Some (_, col)) ->
        encrypt_value t ~attr:col v
      | Minidb.Executor.Pagg ((Ast.Min | Ast.Max), None) ->
        err "MIN/MAX without argument"
      | Minidb.Executor.Pagg ((Ast.Sum | Ast.Avg), _) ->
        err "SUM/AVG output needs the homomorphic client round-trip")
    provenance tuple

let prob_reference_ciphertext t ~attr v =
  let purpose = if is_global t then "const-global" else "const/" ^ attr in
  Crypto.Hex.encode (Crypto.Prob.encrypt (prob_key t purpose) t.rng (value_render v))
