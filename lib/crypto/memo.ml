type ('k, 'v) t = {
  tbl : ('k, 'v) Hashtbl.t;
  lock : Mutex.t;
  (* per-memo telemetry, maintained under [lock]; mirrored into the
     class-wide Obs counters when observability is enabled *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  m_hits : Obs.Metric.counter;
  m_misses : Obs.Metric.counter;
  m_evictions : Obs.Metric.counter;
}

type stats = { hits : int; misses : int; evictions : int; size : int }

let bound = 1 lsl 16

let create ~hits ~misses ~evictions =
  { tbl = Hashtbl.create 256;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
    m_hits = hits;
    m_misses = misses;
    m_evictions = evictions }

let find m k =
  let r =
    Mutex.protect m.lock (fun () ->
        let r = Hashtbl.find_opt m.tbl k in
        (match r with
         | Some _ -> m.hits <- m.hits + 1
         | None -> m.misses <- m.misses + 1);
        r)
  in
  Obs.Metric.incr (match r with Some _ -> m.m_hits | None -> m.m_misses);
  r

let add m k v =
  let evicted =
    Mutex.protect m.lock (fun () ->
        let n = Hashtbl.length m.tbl in
        let evicted =
          if n >= bound then begin
            Hashtbl.reset m.tbl;
            m.evictions <- m.evictions + n;
            n
          end
          else 0
        in
        Hashtbl.replace m.tbl k v;
        evicted)
  in
  if evicted > 0 then Obs.Metric.add m.m_evictions evicted

let find_or_add m k compute =
  match find m k with
  | Some v -> v
  | None ->
    let v = compute () in
    add m k v;
    v

let stats m =
  Mutex.protect m.lock (fun () ->
      { hits = m.hits;
        misses = m.misses;
        evictions = m.evictions;
        size = Hashtbl.length m.tbl })

let size m = Mutex.protect m.lock (fun () -> Hashtbl.length m.tbl)
let clear m = Mutex.protect m.lock (fun () -> Hashtbl.reset m.tbl)
