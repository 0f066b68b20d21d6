type key = { siv : string; enc : Aes128.key; memo : (string, string) Memo.t }

type cache_stats = Memo.stats = { hits : int; misses : int; evictions : int; size : int }

let m_encrypt = Obs.Registry.sketch "kitdpe.crypto.det.encrypt"
let m_hits = Obs.Registry.counter "kitdpe.crypto.det.cache_hits"
let m_misses = Obs.Registry.counter "kitdpe.crypto.det.cache_misses"
let m_evictions = Obs.Registry.counter "kitdpe.crypto.det.cache_evictions"

(* longer plaintexts bypass the memo, which bounds its bytes (det.mli);
   query tokens and bulk column values are far shorter *)
let max_memo_plain = 64

let key_of_master ~master ~purpose =
  let raw = Hmac.derive ~master ~purpose:("det/" ^ purpose) 48 in
  { siv = String.sub raw 0 32;
    enc = Aes128.expand (String.sub raw 32 16);
    memo = Memo.create ~hits:m_hits ~misses:m_misses ~evictions:m_evictions }

let cache_stats k = Memo.stats k.memo

let siv_of k msg = String.sub (Hmac.hmac_sha256 ~key:k.siv msg) 0 16

(* the miss path: it runs before any memo write, so an injected failure
   never poisons the memo *)
let encrypt_uncached k msg =
  if Fault.enabled () then
    Fault.point ~key:(Hashtbl.hash msg) "crypto.det.encrypt";
  let t0 = Obs.time_start () in
  let iv = siv_of k msg in
  let ct = iv ^ Block_modes.ctr_transform k.enc ~iv msg in
  ignore (Obs.observe_since m_encrypt t0);
  ct

let encrypt k msg =
  if String.length msg > max_memo_plain then encrypt_uncached k msg
  else Memo.find_or_add k.memo msg (fun () -> encrypt_uncached k msg)

let decrypt k ct =
  let n = String.length ct in
  if n < 16 then None
  else begin
    let iv = String.sub ct 0 16 in
    let msg = Block_modes.ctr_transform k.enc ~iv (String.sub ct 16 (n - 16)) in
    if Ct.equal (siv_of k msg) iv then Some msg else None
  end

let token = siv_of
