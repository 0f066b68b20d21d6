#!/usr/bin/env python3
"""Repository benchmark: the DPE owner -> provider job through dpe_cli, and
an open-loop request mix against dpe_serve.

    python3 perfbench/run.py --workload batch-dense --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It builds dpe_cli, dpe_serve and the
benchmark's own helper (perfbench/ocaml) with dune, makes its inputs from
--seed, measures for --seconds, checks every output, and prints one JSON
object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 replays the same
inputs in-process through each layer and reports per-layer metrics.
perfbench/README.md defines every metric.
"""

import argparse
import hashlib
import json
import os
import random
import selectors
import shutil
import signal
import socket
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import stats  # noqa: E402

CONFIG = json.load(open(os.path.join(HERE, "config.json")))
WORKLOADS = CONFIG["workloads"]
TARGETS = {
    "cli": "bin/dpe_cli.exe",
    "serve": "bin/dpe_serve.exe",
    "tool": "perfbench/ocaml/pbtool.exe",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build and processes ----


def program_env():
    """The environment the programs run in: defaults, no fault injection,
    no telemetry switches, no dune cache outside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("KITDPE_")}
    env["DUNE_CACHE"] = "disabled"
    return env


def build(root):
    for need in ("dune-project", "bin/dpe_cli.ml", "bin/dpe_serve.ml", "lib"):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError("not a kitdpe checkout: %s is missing" % need)
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet"] + list(TARGETS.values())
    r = subprocess.run(cmd, cwd=root, env=program_env(), capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout + r.stderr)
    return {k: os.path.join(root, "_build", "default", v) for k, v in TARGETS.items()}


class Ran:
    def __init__(self, wall, cpu, rss_mb, rc, out, err):
        self.wall, self.cpu, self.rss_mb, self.rc, self.out, self.err = wall, cpu, rss_mb, rc, out, err


def run_timed(cmd, work, name):
    """Run one program to completion with its output in files (a pipe
    could fill and stall it), timing the wall clock and taking its CPU
    time (user + system) and peak resident memory from wait4."""
    out_path = os.path.join(work, name + ".out")
    err_path = os.path.join(work, name + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=err, env=program_env())
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "r", errors="replace") as f:
        err_text = f.read()
    return Ran(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, p.returncode,
               out_path, err_text)


def tool(tools, work, name, *args):
    r = run_timed([tools["tool"]] + list(args), work, name)
    if r.rc != 0:
        raise BenchError("pbtool %s failed: %s" % (args[0], r.err.strip()))
    return r.out


def calibrate(tools, work):
    """CPU seconds of pbtool's fixed reference loop: the host's speed now."""
    return float(open(tool(tools, work, "calib", "calib")).read())


def read_lines(path):
    with open(path) as f:
        return [l.rstrip("\n") for l in f if l.strip()]


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("".join(l + "\n" for l in lines))


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)
    return path


def gen_log(tools, work, name, n, seed, measure):
    out = tool(tools, work, "gen-" + name, "gen", str(n), str(CONFIG["templates"]), seed, measure)
    path = os.path.join(work, name + ".sql")
    os.replace(out, path)
    return path


def host_metadata(tools, root, work):
    info = json.load(open(tool(tools, work, "info", "info")))
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = r.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("lib", "bin"):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(d, f)
                    digest.update(os.path.relpath(p, root).encode())
                    digest.update(open(p, "rb").read())
    return {
        "nproc": os.cpu_count(),
        "pool_lanes": info["pool_lanes"],
        "ocaml": info["ocaml"],
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


# ---- batch workloads: the owner -> provider job through dpe_cli ----


def parse_labels(path):
    labels = []
    with open(path) as f:
        for line in f:
            parts = line.split(None, 2)
            if len(parts) >= 2:
                labels.append(int(parts[1]))
    return labels


def cli_job(tools, cfg, plain, work, tag):
    """One job as a user runs it: encrypt the plaintext log, then mine the
    ciphertext once per algorithm.  Returns (wall, steps, labels, cipher)
    where a step is (op, wall, cpu, rss_mb, ok)."""
    cipher = os.path.join(work, tag + ".enc.sql")
    steps, labels = [], {}
    t0 = time.perf_counter()
    r = run_timed([tools["cli"], "encrypt", "-m", cfg["measure"], "-p", CONFIG["passphrase"], plain],
                  work, tag + ".encrypt")
    if r.rc == 0:
        os.replace(r.out, cipher)
    steps.append(("encrypt", r.wall, r.cpu, r.rss_mb, r.rc == 0))
    for algo in cfg["algos"]:
        if r.rc != 0:
            break
        m = run_timed([tools["cli"], "mine", "-m", cfg["measure"], "--algo", algo, "-k", str(cfg["k"]),
                       "--eps", repr(cfg["eps"]), "--engine", cfg["engine"], cipher], work, tag + "." + algo)
        labels[algo] = parse_labels(m.out) if m.rc == 0 else None
        steps.append(("mine", m.wall, m.cpu, m.rss_mb, m.rc == 0))
    return time.perf_counter() - t0, steps, labels, cipher


def batch_plan(cfg, plain, work, tag):
    return write_json(os.path.join(work, tag + ".plan.json"), {
        "kind": "batch", "measure": cfg["measure"], "passphrase": CONFIG["passphrase"],
        "seed": "cli", "k": cfg["k"], "eps": cfg["eps"], "algos": cfg["algos"],
        "log": plain, "clink_prefix": cfg["clink_prefix"]})


def batch_references(tools, cfg, plain, work, tag):
    """Labels computed before any timing: the library's matrix engine on
    the plaintext."""
    return json.load(open(tool(tools, work, tag + ".labels", "labels",
                                batch_plan(cfg, plain, work, tag))))


def check_job(cfg, refs, labels, n):
    bad = []
    for algo in cfg["algos"]:
        got = labels.get(algo)
        if got is None or len(got) != n or got != refs[algo]:
            bad.append(algo)
    return bad


def run_batch(cfg, tools, work, seed, seconds, trace):
    k_logs = 1 if trace else cfg["logs_per_run"]
    logs, refs = [], []
    for i in range(k_logs):
        plain = gen_log(tools, work, "log%d" % i, cfg["n"], "%s/%d" % (seed, i), cfg["measure"])
        logs.append(plain)
        refs.append(batch_references(tools, cfg, plain, work, "log%d" % i))
    if trace:
        return trace_batch(cfg, tools, work, logs[0], refs[0])

    # set-up: a warm-up job on a small log that is the same for every seed,
    # so set-up time measures the programs, not the drawn log
    warm_cfg = CONFIG["warm_up"]
    warm = gen_log(tools, work, "warm", warm_cfg["n"], warm_cfg["seed"], cfg["measure"])

    def warm_up():
        wall, steps, _, _ = cli_job(tools, cfg, warm, work, "warm")
        if not all(s[4] for s in steps):
            raise BenchError("warm-up job failed")
        return wall

    setups = [warm_up()]
    calibs = [calibrate(tools, work)]
    jobs, failures, ciphers = [], [], {}
    t0 = time.perf_counter()
    between = 0.0
    i = 0
    while not jobs or time.perf_counter() - t0 - between < seconds:
        li = i % k_logs
        wall, job_steps, labels, cipher = cli_job(tools, cfg, logs[li], work, "job%d" % li)
        bad = check_job(cfg, refs[li], labels, cfg["n"])
        if bad:
            failures.append("job %d (log %d): labels differ on %s" % (i, li, ",".join(bad)))
        jobs.append({"wall": wall, "ok": not bad and all(s[4] for s in job_steps),
                     "cpu": sum(s[2] for s in job_steps),
                     "encrypt": sum(s[1] for s in job_steps if s[0] == "encrypt"),
                     "mine": sum(s[1] for s in job_steps if s[0] == "mine"),
                     "rss": max(s[3] for s in job_steps)})
        ciphers[li] = cipher
        i += 1
        # the host's speed drifts over seconds, so it is gauged after every
        # job, and the set-up is timed again between jobs across the run
        # rather than back to back
        w0 = time.perf_counter()
        calibs.append(calibrate(tools, work))
        if i % warm_cfg["every_jobs"] == 0:
            setups.append(warm_up())
        between += time.perf_counter() - w0
    elapsed = time.perf_counter() - t0 - between

    # the owner's round trip, once per log: decrypt gives back every query
    roundtrips = []
    for li, cipher in sorted(ciphers.items()):
        r = run_timed([tools["cli"], "decrypt", "-m", cfg["measure"], "-p", CONFIG["passphrase"],
                       logs[li], cipher], work, "decrypt%d" % li)
        ok = r.rc == 0 and read_lines(r.out) == read_lines(logs[li])
        if not ok:
            failures.append("decrypt of log %d does not round-trip" % li)
        roundtrips.append(ok)

    attempted = len(jobs) + len(roundtrips)
    failed = sum(1 for j in jobs if not j["ok"]) + sum(1 for ok in roundtrips if not ok)
    good = [j for j in jobs if j["ok"]]
    if not good:
        raise BenchError("no job succeeded")
    speed = stats.speed_factor(calibs, CONFIG["calibration"]["reference_s"])
    raw = {"setup_s": stats.median(setups), "op_cpu_ms": stats.median([j["cpu"] * 1000.0 for j in good])}
    metrics = {
        "setup_s": (raw["setup_s"] * speed, "s"),
        "op_cpu_ms": (raw["op_cpu_ms"] * speed, "ms"),
        # the job's largest process, median over jobs: the max over a run
        # would follow the one heaviest log drawn
        "peak_rss_mb": (stats.median([j["rss"] for j in jobs]), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "in_limit_ratio": (stats.in_limit_ratio([j["wall"] for j in jobs], [j["ok"] for j in jobs],
                                                cfg["op_limit_s"]), "ratio"),
    }
    # wall-clock figures follow the shared host's speed too closely to gate
    # on; they are reported for reading
    walls = {"job_p50_s": stats.median([j["wall"] for j in good]),
             "encrypt_p50_ms": stats.median([j["encrypt"] * 1000.0 for j in good]),
             "mine_p50_ms": stats.median([j["mine"] * 1000.0 for j in good]),
             "jobs_per_s": len(good) / elapsed}
    details = {
        "jobs": len(jobs), "logs": k_logs, "n": cfg["n"], "elapsed_s": elapsed, "wall": walls,
        "raw": raw, "calib_s": [stats.median(calibs), len(calibs)],
        # within-run noise: IQR / median of the jobs' CPU times
        "cpu_spread": stats.spread([j["cpu"] for j in good]) if len(good) > 1 else None,
        "setup_samples_s": setups, "failed_ratio": failed / attempted, "failures": failures,
    }
    return metrics, details, attempted, failed, not failures


def trace_batch(cfg, tools, work, plain, refs):
    """The traced run: one CLI job for the client-side walls, then the
    same job replayed in-process by pbtool, layer by layer."""
    wall, steps, labels, cipher = cli_job(tools, cfg, plain, work, "cli")
    failures = []
    bad = check_job(cfg, refs, labels, cfg["n"])
    if bad or not all(s[4] for s in steps):
        failures.append("CLI job failed or its labels differ on %s" % ",".join(bad))
    rep = json.load(open(tool(tools, work, "trace", "trace", batch_plan(cfg, plain, work, "trace"))))
    if rep["ciphertext"] != read_lines(cipher):
        failures.append("replayed ciphertext differs from dpe_cli encrypt")
    for algo in cfg["algos"]:
        if rep["labels"][algo] != refs[algo]:
            failures.append("replayed %s labels differ from the reference" % algo)
    if rep["dbscan_other_engine"] != refs["dbscan"]:
        failures.append("the other DBSCAN engine's labels differ")

    # the client side of each op is the CLI step's wall
    metrics = layer_metrics(rep["replay"], rep["alt"])
    client = {op: stats.median([s[1] * 1000.0 for s in steps if s[0] == op]) for op in ("encrypt", "mine")}
    metrics.update(server_metrics(op_split(rep["replay"], "", ("sqlir",)), client))
    metrics["server.queue_depth_max"] = (0, "count")
    metrics["server.shed"] = (0, "count")
    details = {"cli_job_s": wall, "failures": failures}
    attempted = len(steps) + 1
    failed = sum(1 for s in steps if not s[4]) + (1 if failures else 0)
    return metrics, details, attempted, failed, not failures


# ---- per-layer metrics from a pbtool replay report ----

LAYER_TIMES = [
    "sqlir.parse", "sqlir.print", "dpe.select", "dpe.encrypt",
    "crypto.paillier_keygen", "crypto.hom_prewarm", "distance.features", "distance.matrix",
    "index.build", "index.range", "mining.dbscan", "mining.kmedoids", "mining.clarans",
    "mining.outliers", "mining.clink",
]


def layer_metrics(replay, alt):
    """Self time per layer from the traced replay; a layer the workload
    does not use takes its number from the alternative run on the same
    inputs, so every layer reports a measured value."""
    spans = [tuple(s) for s in replay["spans"]]
    alt_spans = [tuple(s) for s in alt["spans"]]
    own = stats.layer_totals(spans)
    alt_own = stats.layer_totals(alt_spans)
    m = {}
    for key in LAYER_TIMES:
        m[key + "_s"] = (own[key] if key in own else alt_own.get(key, 0.0), "s")
    counts = replay["counts"]
    m["dpe.encrypt_qps"] = (counts["encrypted"] / own["dpe.encrypt"], "1/s")
    m["distance.pairs"] = (counts["pairs"], "count")
    m["distance.matrix_mb"] = (counts["matrix_mb"] or alt["counts"].get("matrix_mb", 0.0), "MB")
    # the replayed jobs use the matrix engine; the index runs in the alternative
    idx = alt["counts"]
    m["index.range_calls"] = (idx["range_calls"], "count")
    m["index.probes_per_query"] = (ratio(idx["index_probes"], idx["index_queries"]), "count")
    m["index.hit_ratio"] = (ratio(idx["range_hits"], idx["index_probes"]), "ratio")
    engine = [s for s in spans if s[2:4] == ("engine", "matrix.dbscan")] or \
        [s for s in alt_spans if s[2:4] == ("engine", "matrix.dbscan")]
    m["index.matrix_alt_s"] = (sum(s[5] - s[4] for s in engine), "s")
    traced = replay["traced_s"]
    m["parallel.lanes"] = (counts["lanes"], "count")
    m["parallel.busy_ratio"] = (counts["busy_ns"] / 1e9 / (counts["lanes"] * traced[-1]), "ratio")
    # fastest against fastest: the first replay also pays the process's warm-up
    m["obs.overhead"] = (min(traced) / min(replay["untraced_s"]), "ratio")
    m["gc.major_collections"] = (counts["major_collections"], "count")
    m["gc.top_heap_mb"] = (counts["top_heap_mb"], "MB")
    wall, _, unattributed = stats.reconcile(spans)
    m["trace.wall_s"] = (wall, "s")
    m["unattributed_s"] = (unattributed, "s")
    return m


def op_split(replay, prefix, codec_layers):
    """Per replayed operation whose op span starts with `prefix`, in order:
    (op, untraced wall, codec), the codec being the traced self time of
    the op's spans in `codec_layers` ("layer" or "layer.name")."""
    spans = [tuple(s) for s in replay["spans"]]
    own = stats.self_times(spans)
    traced = [s for s in spans if s[2] == "op" and s[3].startswith(prefix)]
    untraced = [s for s in replay["untraced_ops"] if s[2] == "op" and s[3].startswith(prefix)]
    out = []
    for t, u in zip(traced, untraced):
        codec = sum(own[s[0]] for s in stats.descendants(spans, t[0])
                    if s[2] in codec_layers or "%s.%s" % (s[2], s[3]) in codec_layers)
        out.append((t[3][len(prefix):].split(".")[0], u[5] - u[4], codec))
    return out


def server_metrics(split, client_ms):
    """Client latency = wait + service + codec: service is the untraced
    in-process op minus its codec, wait is what the client saw beyond both
    (queueing, process start, transport)."""
    m = {"server.codec_ms": (stats.median([c * 1000.0 for _, _, c in split]), "ms")}
    for op in ("encrypt", "mine"):
        xs = [(w, c) for name, w, c in split if name == op]
        service = stats.median([(w - c) * 1000.0 for w, c in xs])
        codec = stats.median([c * 1000.0 for _, c in xs])
        m["server.service_ms." + op] = (service, "ms")
        m["server.wait_ms." + op] = (client_ms[op] - service - codec, "ms")
    return m


def ratio(a, b):
    return a / b if b else 0.0


# ---- serve-mixed: an open-loop request mix against dpe_serve ----


def frame(obj):
    payload = json.dumps(obj, separators=(",", ":")).encode()
    return struct.pack(">I", len(payload)) + payload


class Conn:
    """One pipelined connection: frames out, frames in, correlated by id."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inb = bytearray()

    def pump_out(self):
        if self.out:
            try:
                n = self.sock.send(self.out)
                del self.out[:n]
            except BlockingIOError:
                pass

    def pump_in(self):
        """Read what is there; return the complete responses."""
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not data:
            raise BenchError("server closed a connection")
        self.inb += data
        got = []
        while len(self.inb) >= 4:
            (n,) = struct.unpack(">I", self.inb[:4])
            if len(self.inb) < 4 + n:
                break
            got.append(json.loads(bytes(self.inb[4:4 + n])))
            del self.inb[:4 + n]
        return got

    def close(self):
        self.sock.close()


def exchange(conns, sends, timeout):
    """Send (due, conn, id, payload) items at their due times (open loop:
    nothing waits for an answer) and collect every response.  Returns
    {id: (sent, done, response)}, with done None for a request never
    answered, plus the responses that answered no request."""
    sel = selectors.DefaultSelector()
    for i, c in enumerate(conns):
        sel.register(c.sock, selectors.EVENT_READ, i)
    sends = sorted(sends, key=lambda s: s[0])
    out = {s[2]: [None, None, None] for s in sends}
    strays = []
    nxt = 0
    pending = len(sends)
    give_up = None
    while pending:
        now = time.perf_counter()
        while nxt < len(sends) and sends[nxt][0] <= now:
            due, ci, rid, payload = sends[nxt]
            conns[ci].out += payload
            out[rid][0] = time.perf_counter()
            conns[ci].pump_out()
            nxt += 1
        if nxt == len(sends) and give_up is None:
            give_up = time.perf_counter() + timeout
        if give_up is not None and time.perf_counter() > give_up:
            break
        wait = 0.05 if nxt == len(sends) else max(0.0, min(0.05, sends[nxt][0] - time.perf_counter()))
        for c in conns:
            if c.out:
                c.pump_out()
                wait = min(wait, 0.001)
        for key, _ in sel.select(wait):
            for resp in conns[key.data].pump_in():
                t = time.perf_counter()
                rid = resp.get("id")
                if rid in out and out[rid][1] is None:
                    out[rid][1] = t
                    out[rid][2] = resp
                    pending -= 1
                else:
                    strays.append(resp)
    sel.close()
    return out, strays


def call(conn, rid, obj, timeout=120.0):
    obj = dict(obj, id=rid)
    res, strays = exchange([conn], [(time.perf_counter(), 0, rid, frame(obj))], timeout)
    if strays or res[rid][2] is None:
        raise BenchError("no single answer to set-up request %d" % rid)
    return res[rid][2]


class Server:
    def __init__(self, tools, work, tag):
        self.err = open(os.path.join(work, tag + ".serve.err"), "wb")
        self.proc = subprocess.Popen([tools["serve"], "--port", "0"], stdout=subprocess.PIPE,
                                     stderr=self.err, env=program_env())
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        ready = sel.select(30.0)
        sel.close()
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise BenchError("dpe_serve did not start: %r" % line)
        self.port = int(line.strip().rsplit(":", 1)[1])
        self.rss_mb = None

    def cpu_s(self):
        """CPU time (user + system, all threads) the server has used so far."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            return stats.proc_stat_cpu(f.read(), os.sysconf("SC_CLK_TCK"))

    def stop(self):
        """SIGTERM drains the server; wait for it and take its peak RSS."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.time() + 30
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.rss_mb = usage.ru_maxrss / 1024.0
                    break
                if time.time() > deadline:
                    # a server that does not drain is killed; wait4 reaps it
                    self.proc.kill()
                time.sleep(0.02)
        self.proc.stdout.close()
        self.err.close()
        return self.proc.returncode


def serve_plan(cfg, tools, work, seed):
    """The inputs: per tenant and measure a plaintext pool (the warm-up
    encrypts it whole), the mine payloads as windows of the ciphertext
    pools, and the expected outputs from the library.  A pool joins
    several logs, each with its own templates: the cost of a query depends
    on its template, and one log's few templates would make a run's cost
    follow the seed."""
    rng = random.Random("serve/%s" % seed)
    pools = []
    measures = list(dict.fromkeys(cfg["encrypt_measures"] + cfg["mine_measures"]))
    part_n = cfg["pool_n"] // cfg["pool_parts"]
    for t in cfg["tenants"]:
        for m in measures:
            path = os.path.join(work, "pool-%s-%s.sql" % (t, m))
            write_lines(path, [q for k in range(cfg["pool_parts"])
                               for q in read_lines(gen_log(tools, work, "pool-%s-%s-%d" % (t, m, k), part_n,
                                                           "%s/%s/%s/%d" % (seed, t, m, k), m))])
            pools.append({"tenant": t, "measure": m, "file": path})
    mines = []
    for t in cfg["tenants"]:
        for m in cfg["mine_measures"]:
            for a in cfg["mine_algos"]:
                start = rng.randrange(cfg["pool_n"] - cfg["batch_n"] + 1)
                mines.append({"key": "%s/%s/%s" % (t, m, a), "tenant": t, "measure": m, "start": start,
                              "len": cfg["batch_n"], "algo": a, "k": cfg["k"], "eps": cfg["eps"]})
    plan = {"kind": "serve", "master": "kitdpe-demo", "pools": pools, "mines": mines}
    expected = json.load(open(tool(tools, work, "serve.labels", "labels",
                                   write_json(os.path.join(work, "serve.plan.json"), plan))))
    c2 = ["ciphertext labels differ from plaintext labels (C2) on " + k
          for k, v in sorted(expected["mines"].items()) if not v["c2"]]
    return plan, expected, rng, c2


def schedule(cfg, plan, expected, rng, seconds):
    """The open loop: compute requests evenly spaced at rate_rps in a fixed
    rotation (encrypt and mine alternate; encrypts rotate scheme and
    tenant, mines rotate algorithm, measure and tenant); a health request
    rides along with every health_every-th compute request, sent right
    after it on the same connection, so it always meets a server that has
    just started work.  Connections alternate.  Each request carries the
    answer the library gave for it at set-up."""
    pools = {(p["tenant"], p["measure"]): read_lines(p["file"]) for p in plan["pools"]}
    mines = {m["key"]: m for m in plan["mines"]}
    tenants, n_conn, batch = cfg["tenants"], cfg["connections"], cfg["batch_n"]
    reqs = []
    for i in range(int(seconds * cfg["rate_rps"])):
        due = i / cfg["rate_rps"]
        c = i // 2
        if i % 2 == 0:
            ms = cfg["encrypt_measures"]
            m, t = ms[c % len(ms)], tenants[(c // len(ms)) % len(tenants)]
            start = rng.randrange(cfg["pool_n"] - batch + 1)
            obj = {"op": "encrypt", "tenant": t, "measure": m,
                   "queries": pools[(t, m)][start:start + batch]}
            want = ("ciphertexts", expected["pools"]["%s/%s" % (t, m)][start:start + batch])
            kind = "encrypt/" + m
        else:
            algos, ms = cfg["mine_algos"], cfg["mine_measures"]
            a, m = algos[c % len(algos)], ms[(c // len(algos)) % len(ms)]
            t = tenants[(c // (len(algos) * len(ms))) % len(tenants)]
            spec = mines["%s/%s/%s" % (t, m, a)]
            obj = {"op": "mine", "tenant": t, "measure": m, "algo": a, "k": spec["k"], "eps": spec["eps"],
                   "queries": expected["pools"]["%s/%s" % (t, m)][spec["start"]:spec["start"] + spec["len"]]}
            want = ("labels", expected["mines"][spec["key"]]["labels"])
            kind = "mine/" + a
        reqs.append({"due": due, "conn": i % n_conn, "op": obj["op"], "kind": kind, "obj": obj, "want": want})
        if i % cfg["health_every"] == 0:
            reqs.append({"due": due, "conn": i % n_conn, "op": "health", "kind": "health",
                         "obj": {"op": "health"}, "want": None})
    return reqs


def serve_setup(cfg, tools, work, tag, plan, expected):
    """Spawn dpe_serve and warm it: one encrypt per (tenant, scheme) over
    that tenant's whole pool, which creates the resident encryptor (and
    for the result scheme the Paillier key and HOM noise pool).  Returns
    the server, its connections and the set-up time."""
    t0 = time.perf_counter()
    srv = Server(tools, work, tag)
    conns = []
    try:
        conns = [Conn(srv.port) for _ in range(cfg["connections"])]
        for rid, p in enumerate(plan["pools"], start=1):
            resp = call(conns[0], rid, {"op": "encrypt", "tenant": p["tenant"], "measure": p["measure"],
                                        "queries": read_lines(p["file"])})
            want = expected["pools"]["%s/%s" % (p["tenant"], p["measure"])]
            if resp.get("status") != "ok" or resp.get("ciphertexts") != want:
                raise BenchError("warm-up encrypt for %s/%s did not give the library's ciphertexts"
                                 % (p["tenant"], p["measure"]))
    except BaseException:
        for c in conns:
            c.close()
        srv.stop()
        raise
    return srv, conns, time.perf_counter() - t0


def serve_timed(cfg, srv, conns, reqs):
    """Run the open loop and check every answer.  Fills each request's
    sent/done times (seconds from the first due time), status and ok, and
    returns the failures, the count of responses that matched no
    outstanding request, and the CPU time the server used meanwhile."""
    base = time.perf_counter() + 0.1
    first_id = 1000
    sends = [(base + r["due"], r["conn"], first_id + i, frame(dict(r["obj"], id=first_id + i)))
             for i, r in enumerate(reqs)]
    cpu0 = srv.cpu_s()
    res, strays = exchange(conns, sends, cfg["answer_timeout_s"])
    cpu = srv.cpu_s() - cpu0
    failures = []
    for i, r in enumerate(reqs):
        sent, done, resp = res[first_id + i]
        r["sent"] = sent - base if sent else r["due"]
        r["done"] = done - base if done else None
        r["resp"] = resp or {}
        r["status"] = r["resp"].get("status", "missing")
        r["ok"] = r["status"] == "ok"
        if not r["ok"]:
            failures.append("request %d (%s): %s" % (i, r["kind"], r["status"]))
        elif r["want"] and r["resp"].get(r["want"][0]) != r["want"][1]:
            r["ok"] = False
            failures.append("request %d (%s, tenant %s): wrong %s" % (i, r["kind"], r["obj"]["tenant"], r["want"][0]))
    if strays:
        failures.append("%d responses answered no outstanding request" % len(strays))
    return failures, len(strays), cpu


def serve_metrics(cfg, reqs, cpu):
    latency, lateness = stats.open_loop([r["due"] for r in reqs], [r["sent"] for r in reqs],
                                        [r["done"] for r in reqs])
    for r, lat in zip(reqs, latency):
        r["latency"] = lat
    compute = [r for r in reqs if r["op"] != "health"]
    metrics = {
        # the server's CPU time over the open loop, per compute request
        # (the health requests riding along included)
        "op_cpu_ms": (cpu * 1000.0 / len(compute), "ms"),
        "in_limit_ratio": (stats.in_limit_ratio([r["latency"] for r in compute], [r["ok"] for r in compute],
                                                cfg["latency_limit_ms"] / 1000.0), "ratio"),
    }
    # wall-clock latencies follow the shared host's speed too closely to
    # gate on; they are reported for reading
    walls, tails = {}, {}
    for key, rows in (("req", compute), ("encrypt", [r for r in reqs if r["op"] == "encrypt"]),
                      ("mine", [r for r in reqs if r["op"] == "mine"]),
                      ("health", [r for r in reqs if r["op"] == "health"])):
        xs = [r["latency"] * 1000.0 for r in rows if r["ok"]]
        if not xs:
            raise BenchError("no successful %s request" % key)
        v, p = stats.tail(xs)
        walls[key + "_p50_ms"] = stats.median(xs)
        walls[key + "_tail_ms"] = v
        tails[key] = {"percentile": p, "samples": len(xs)}
    kinds = {}
    for r in compute:
        if r["ok"]:
            kinds.setdefault(r["kind"], []).append(r["latency"] * 1000.0)
    # the measured span runs from the first due time to the last answer
    elapsed = max(r["done"] for r in reqs if r["done"] is not None)
    details = {
        "wall": walls,
        "p50_ms_by_kind": {k: stats.median(v) for k, v in sorted(kinds.items())},
        "tails": tails,
        "lateness_ms": {"p50": stats.median(lateness) * 1000.0, "max": max(lateness) * 1000.0},
        "shed": sum(1 for r in reqs if r["status"] == "overloaded"),
        "deadline": sum(1 for r in reqs if r["resp"].get("error_kind") == "deadline"),
        "queue_depth_max": max([r["resp"]["health"]["queue_depth"] for r in reqs
                                if r["op"] == "health" and r["ok"]] or [0]),
        "requests": len(reqs), "compute_requests": len(compute), "elapsed_s": elapsed,
        "server_busy_ratio": cpu / elapsed,
    }
    return metrics, details


def run_serve(cfg, tools, work, seed, seconds, trace):
    plan, expected, rng, c2 = serve_plan(cfg, tools, work, seed)
    reqs = schedule(cfg, plan, expected, rng, seconds)
    # set-up is timed several times, some before the open loop and some
    # after it, because the host's speed drifts over seconds; the last
    # server set up before the loop is the one timed
    reps = 1 if trace else cfg["setup_reps"]
    before = (reps + 1) // 2
    setups, calibs = [], []

    def shut(srv, conns):
        for c in conns:
            c.close()
        return srv.stop()

    def set_up(rep):
        srv, conns, setup = serve_setup(cfg, tools, work, "setup%d" % rep, plan, expected)
        setups.append(setup)
        try:
            # gauge the host's speed while the new server idles
            calibs.extend(calibrate(tools, work) for _ in range(cfg["calib_per_setup"]))
        except BaseException:
            shut(srv, conns)
            raise
        return srv, conns

    for rep in range(before - 1):
        shut(*set_up(rep))
    srv, conns = set_up(before - 1)
    try:
        failures, strays, cpu = serve_timed(cfg, srv, conns, reqs)
    finally:
        rc = shut(srv, conns)
    for rep in range(before, reps):
        shut(*set_up(rep))
    failures += c2
    if rc != 0:
        failures.append("dpe_serve exited with %s" % rc)
    metrics, details = serve_metrics(cfg, reqs, cpu)
    # every request, and the C2 check of every mine payload
    attempted = len(reqs) + len(plan["mines"])
    failed = sum(1 for r in reqs if not r["ok"]) + strays + len(c2)
    # typed sheds and deadlines are answers, not wrong outputs
    typed = details["shed"] + details["deadline"]
    correct = failed == typed and rc == 0
    details.update(failures=failures, failed_ratio=failed / attempted, setup_samples_s=setups)
    if trace:
        return trace_serve(cfg, tools, work, plan, reqs, details, attempted, failed, correct)
    speed = stats.speed_factor(calibs, CONFIG["calibration"]["reference_s"])
    details.update(raw={"setup_s": stats.median(setups), "op_cpu_ms": metrics["op_cpu_ms"][0]},
                   calib_s=[stats.median(calibs), len(calibs)])
    metrics["op_cpu_ms"] = (metrics["op_cpu_ms"][0] * speed, "ms")
    metrics["setup_s"] = (stats.median(setups) * speed, "s")
    metrics["peak_rss_mb"] = (srv.rss_mb, "MB")
    metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
    return metrics, details, attempted, failed, correct


def trace_serve(cfg, tools, work, plan, reqs, details, attempted, failed, correct):
    """Per-layer figures of serve-mixed: client latencies from the open
    loop just run, service and codec times from pbtool's in-process replay
    of the first compute requests of the same schedule."""
    subset = [r for r in reqs if r["op"] != "health"][: cfg["replay_requests"]]
    tplan = dict(plan, requests=[dict(r["obj"], id=i + 1) for i, r in enumerate(subset)])
    rep = json.load(open(tool(tools, work, "trace", "trace",
                              write_json(os.path.join(work, "serve.trace.json"), tplan))))
    failures = details["failures"]
    before = len(failures)
    for r, resp in zip(subset, rep["responses"]):
        if resp.get("status") != "ok" or resp.get(r["want"][0]) != r["want"][1]:
            failures.append("replayed %s answered differently from the library reference" % r["kind"])
    dbscans = [r for r in subset if r["kind"] == "mine/dbscan"]
    for r, labels in zip(dbscans, rep["alt_dbscan"]):
        if labels != r["want"][1]:
            failures.append("the index engine's DBSCAN labels differ on a mine payload")
    metrics = layer_metrics(rep["replay"], rep["alt"])
    # the client side: the open loop's latencies of the same requests
    client = {op: stats.median([r["latency"] * 1000.0 for r in subset if r["op"] == op and r["ok"]])
              for op in ("encrypt", "mine")}
    metrics.update(server_metrics(op_split(rep["replay"], "wire.", ("server.codec",)), client))
    metrics["server.queue_depth_max"] = (details["queue_depth_max"], "count")
    metrics["server.shed"] = (details["shed"], "count")
    bad = 1 if len(failures) > before else 0
    return metrics, details, attempted + 1, failed + bad, correct and not bad


# ---- entry point ----


def main():
    # a driver's SIGTERM unwinds like an error, so servers get stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=CONFIG["seeds"]["default"])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    work = os.path.join(root, ".bench_run", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        tools = build(root)
        os.makedirs(work)
        host = host_metadata(tools, root, work)
        cfg = WORKLOADS[args.workload]
        runner = run_serve if args.workload == "serve-mixed" else run_batch
        metrics, details, attempted, failed, correct = runner(
            cfg, tools, work, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        log("perfbench: %s" % e)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, host=host)
    for key, (value, unit) in sorted(metrics.items()):
        print("%-34s %14.6f %s" % (key, value, unit))
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
