"""Tests of the benchmark's own arithmetic and checks.

    python3 perfbench/test_stats.py

They need neither a build nor a server: the open-loop client is tested
against a small in-process responder on a loopback socket.
"""

import json
import os
import socket
import statistics
import struct
import sys
import tempfile
import threading
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
        self.assertEqual(stats.median(xs), 5.5)
        self.assertEqual(stats.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))

    def test_spread_is_iqr_over_median(self):
        xs = [float(x) for x in range(1, 11)]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / 5.5)

    def test_steady_values_have_no_spread(self):
        self.assertEqual(stats.spread([2.0] * 10), 0.0)

    def test_empty_median_raises(self):
        with self.assertRaises(ValueError):
            stats.median([])


class Tail(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(xs, 99.9), 100)

    def test_hundred_samples_reach_p90(self):
        xs = [float(x) for x in range(1, 101)]
        value, p = stats.tail(xs)
        self.assertEqual((value, p), (90.0, 90.0))
        self.assertEqual(stats.beyond(xs, value), 10)

    def test_forty_samples_reach_p75(self):
        value, p = stats.tail([float(x) for x in range(1, 41)])
        self.assertEqual((value, p), (30.0, 75.0))

    def test_two_hundred_samples_reach_p95(self):
        self.assertEqual(stats.tail([float(x) for x in range(200)])[1], 95.0)

    def test_few_samples_fall_back_to_the_median(self):
        xs = [3.0, 1.0, 2.0, 4.0]
        self.assertEqual(stats.tail(xs), (2.5, 50.0))

    def test_ties_do_not_count_as_beyond(self):
        # 95 equal samples and 5 larger: nothing above p75 has 10 beyond
        xs = [1.0] * 95 + [2.0] * 5
        self.assertEqual(stats.tail(xs), (1.0, 50.0))


class OpenLoop(unittest.TestCase):
    def test_latency_is_timed_from_the_due_time(self):
        due = [0.0, 0.1, 0.2]
        sent = [0.0, 0.15, 0.2]  # the generator ran 50 ms late once
        done = [0.03, 0.2, None]
        latency, lateness = stats.open_loop(due, sent, done)
        self.assertAlmostEqual(latency[0], 0.03)
        self.assertAlmostEqual(latency[1], 0.1)  # includes the 50 ms stall
        self.assertIsNone(latency[2])
        self.assertAlmostEqual(lateness[1], 0.05)
        self.assertEqual(lateness[0], 0.0)

    def test_early_send_is_not_negative_lateness(self):
        self.assertEqual(stats.open_loop([1.0], [0.999], [1.5])[1], [0.0])

    def test_in_limit_counts_ok_answers_within_the_limit(self):
        lat = [0.1, 0.5, 2.0, None, 0.2]
        ok = [True, True, True, False, False]
        self.assertEqual(stats.in_limit_ratio(lat, ok, 1.0), 0.4)


class HostSpeed(unittest.TestCase):
    def test_a_slower_host_scales_times_down(self):
        # the reference loop took twice its nominal time: halve what was measured
        speed = stats.speed_factor([0.21, 0.19, 0.20], 0.1)
        self.assertAlmostEqual(speed, 0.5)
        self.assertAlmostEqual(3.0 * speed, 1.5)

    def test_proc_stat_cpu_counts_user_and_system_ticks(self):
        line = "4242 (dpe serve (x)) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 99\n"
        self.assertAlmostEqual(stats.proc_stat_cpu(line, 100), 3.0)


def span(sid, parent, layer, name, t0, t1):
    return (sid, parent, layer, name, t0, t1)


class Reconcile(unittest.TestCase):
    SPANS = [
        span(1, 0, "root", "replay", 0.0, 10.0),
        span(2, 1, "op", "encrypt", 0.0, 4.0),
        span(3, 2, "sqlir", "parse", 0.0, 1.0),
        span(4, 2, "dpe", "encrypt", 1.0, 3.5),
        span(5, 1, "op", "mine.dbscan", 4.0, 9.8),
        span(6, 5, "engine", "index.dbscan", 4.0, 9.8),
        span(7, 6, "mining", "dbscan", 4.5, 9.5),
        span(8, 7, "index", "range", 5.0, 6.0),
        span(9, 7, "index", "range", 7.0, 8.5),
        span(10, 6, "index", "build", 4.0, 4.5),
    ]

    def test_self_time_subtracts_children(self):
        own = stats.self_times(self.SPANS)
        self.assertAlmostEqual(own[7], 5.0 - 2.5)
        self.assertAlmostEqual(own[2], 4.0 - 3.5)
        self.assertAlmostEqual(own[1], 10.0 - 9.8)

    def test_layer_totals_skip_glue(self):
        totals = stats.layer_totals(self.SPANS)
        self.assertEqual(set(totals), {"sqlir.parse", "dpe.encrypt", "mining.dbscan", "index.range", "index.build"})
        self.assertAlmostEqual(totals["index.range"], 2.5)

    def test_parts_add_up_to_the_wall(self):
        wall, attributed, unattributed = stats.reconcile(self.SPANS)
        self.assertEqual(wall, 10.0)
        self.assertAlmostEqual(attributed, 1.0 + 2.5 + 2.5 + 2.5 + 0.5)
        self.assertAlmostEqual(unattributed, 10.0 - attributed)
        self.assertAlmostEqual(unattributed, sum(stats.self_times(self.SPANS)[i] for i in (1, 2, 5, 6)))

    def test_descendants(self):
        self.assertEqual(sorted(s[0] for s in stats.descendants(self.SPANS, 5)), [6, 7, 8, 9, 10])


def replay_report(spans, **counts):
    base = {"pairs": 10, "range_calls": 0, "range_hits": 0, "encrypted": 100, "matrix_mb": 1.0,
            "index_probes": 0, "index_queries": 0, "lanes": 1, "busy_ns": 0,
            "major_collections": 3, "top_heap_mb": 20.0}
    base.update(counts)
    return {"untraced_s": [1.0, 1.0], "traced_s": [1.1, 1.1], "spans": [list(s) for s in spans],
            "counts": base}


class LayerMetrics(unittest.TestCase):
    def test_bypassed_layers_come_from_the_alternative_run(self):
        replay = replay_report(Reconcile.SPANS)
        alt = {"spans": [list(span(1, 0, "root", "alt", 0.0, 2.0)),
                         list(span(2, 1, "engine", "matrix.dbscan", 0.0, 1.5)),
                         list(span(3, 2, "distance", "matrix", 0.0, 1.0))],
               "counts": {"range_calls": 0, "range_hits": 0, "index_probes": 0, "index_queries": 0,
                          "matrix_mb": 8.0}}
        m = run.layer_metrics(replay, alt)
        self.assertAlmostEqual(m["index.range_s"][0], 2.5)          # the replay's own
        self.assertAlmostEqual(m["distance.matrix_s"][0], 1.0)      # from the alternative
        self.assertAlmostEqual(m["index.matrix_alt_s"][0], 1.5)
        self.assertEqual(m["distance.matrix_mb"][0], 1.0)
        self.assertAlmostEqual(m["obs.overhead"][0], 1.1)
        self.assertAlmostEqual(m["dpe.encrypt_qps"][0], 100 / 2.5)
        self.assertAlmostEqual(m["trace.wall_s"][0], 10.0)
        self.assertEqual(m["mining.clink_s"][0], 0.0)

    def test_index_counts_are_probes_and_hits_of_the_alternative_run(self):
        replay = replay_report(Reconcile.SPANS)
        alt = {"spans": [], "counts": {"range_calls": 2, "range_hits": 30, "index_probes": 60,
                                       "index_queries": 2, "matrix_mb": 0.0}}
        m = run.layer_metrics(replay, alt)
        self.assertEqual(m["index.range_calls"][0], 2)
        self.assertEqual(m["index.probes_per_query"][0], 30.0)
        self.assertEqual(m["index.hit_ratio"][0], 0.5)
        self.assertEqual(m["distance.pairs"][0], 10)


class ServerSplit(unittest.TestCase):
    def test_wait_is_client_minus_service_minus_codec(self):
        spans = [span(1, 0, "root", "replay", 0.0, 1.0),
                 span(2, 1, "op", "wire.encrypt", 0.0, 0.5),
                 span(3, 2, "server", "codec", 0.0, 0.01),
                 span(4, 2, "server", "service", 0.01, 0.49),
                 span(5, 2, "server", "codec", 0.49, 0.5),
                 span(6, 1, "op", "wire.mine", 0.5, 0.6),
                 span(7, 6, "server", "codec", 0.5, 0.52),
                 span(8, 6, "server", "service", 0.52, 0.6)]
        replay = {"spans": [list(s) for s in spans],
                  "untraced_ops": [list(span(1, 0, "op", "wire.encrypt", 0.0, 0.4)),
                                   list(span(2, 0, "op", "wire.mine", 0.4, 0.5))]}
        split = run.op_split(replay, "wire.", ("server.codec",))
        self.assertEqual([s[0] for s in split], ["encrypt", "mine"])
        self.assertAlmostEqual(split[0][1], 0.4)     # untraced wall
        self.assertAlmostEqual(split[0][2], 0.02)    # traced codec
        m = run.server_metrics(split, {"encrypt": 500.0, "mine": 150.0})
        self.assertAlmostEqual(m["server.service_ms.encrypt"][0], 380.0)
        self.assertAlmostEqual(m["server.wait_ms.encrypt"][0], 500.0 - 380.0 - 20.0)
        self.assertAlmostEqual(m["server.wait_ms.mine"][0], 150.0 - 80.0 - 20.0)
        self.assertAlmostEqual(m["server.codec_ms"][0], 20.0)


class BatchChecks(unittest.TestCase):
    def test_cli_label_lines(self):
        with tempfile.NamedTemporaryFile("w", delete=False) as f:
            f.write("  0   2  SELECT a FROM t\n  1  -1  SELECT b FROM t WHERE x = '  3 '\n")
        try:
            self.assertEqual(run.parse_labels(f.name), [2, -1])
        finally:
            os.unlink(f.name)

    def test_a_job_fails_on_any_label_difference(self):
        cfg = {"algos": ["dbscan", "kmedoids"]}
        refs = {"dbscan": [0, 0, 1], "kmedoids": [1, 1, 0]}
        self.assertEqual(run.check_job(cfg, refs, {"dbscan": [0, 0, 1], "kmedoids": [1, 1, 0]}, 3), [])
        self.assertEqual(run.check_job(cfg, refs, {"dbscan": [0, 0, 1], "kmedoids": [1, 0, 0]}, 3),
                         ["kmedoids"])
        self.assertEqual(run.check_job(cfg, refs, {"dbscan": None, "kmedoids": [1, 1, 0]}, 3), ["dbscan"])


class Schedule(unittest.TestCase):
    def test_rotation_and_ride_along_health(self):
        cfg = {"tenants": ["t0", "t1"], "encrypt_measures": ["token", "edit"], "mine_measures": ["token"],
               "mine_algos": ["dbscan", "clink"], "pool_n": 4, "batch_n": 2, "rate_rps": 4.0,
               "health_every": 3, "connections": 2}
        with tempfile.TemporaryDirectory() as d:
            pools, expected = [], {"pools": {}, "mines": {}}
            for t in cfg["tenants"]:
                for m in ("token", "edit"):
                    path = os.path.join(d, "%s-%s.sql" % (t, m))
                    run.write_lines(path, ["q%d" % i for i in range(4)])
                    pools.append({"tenant": t, "measure": m, "file": path})
                    expected["pools"]["%s/%s" % (t, m)] = ["c%d" % i for i in range(4)]
            mines = []
            for t in cfg["tenants"]:
                for a in cfg["mine_algos"]:
                    key = "%s/token/%s" % (t, a)
                    mines.append({"key": key, "tenant": t, "measure": "token", "start": 1, "len": 2,
                                  "algo": a, "k": 2, "eps": 0.5})
                    expected["mines"][key] = {"labels": [0, 1]}
            reqs = run.schedule(cfg, {"pools": pools, "mines": mines}, expected, run.random.Random(1), 2.0)
        compute = [r for r in reqs if r["op"] != "health"]
        self.assertEqual(len(compute), 8)
        self.assertEqual([r["op"] for r in compute], ["encrypt", "mine"] * 4)
        self.assertEqual([r["kind"] for r in compute if r["op"] == "mine"],
                         ["mine/dbscan", "mine/clink"] * 2)
        self.assertEqual([r["due"] for r in compute], [i / 4.0 for i in range(8)])
        # a health request follows every third compute request, same time and connection
        for i, r in enumerate(reqs):
            if r["op"] == "health":
                self.assertEqual((r["due"], r["conn"]), (reqs[i - 1]["due"], reqs[i - 1]["conn"]))
        self.assertEqual(sum(1 for r in reqs if r["op"] == "health"), 3)
        # an encrypt expects the library's ciphertexts of the same window
        enc = compute[0]
        start = int(enc["obj"]["queries"][0][1:])
        self.assertEqual(enc["obj"]["queries"], ["q%d" % (start + j) for j in range(2)])
        self.assertEqual(enc["want"], ("ciphertexts", ["c%d" % (start + j) for j in range(2)]))


class Responder(threading.Thread):
    """A loopback peer that answers each frame by id: twice for id 2, never
    for id 3, and adds an answer to an id nobody sent."""

    def __init__(self):
        super().__init__(daemon=True)
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.port = self.listener.getsockname()[1]

    def run(self):
        conn, _ = self.listener.accept()
        buf = b""
        while True:
            data = conn.recv(65536)
            if not data:
                break
            buf += data
            while len(buf) >= 4:
                (n,) = struct.unpack(">I", buf[:4])
                if len(buf) < 4 + n:
                    break
                req = json.loads(buf[4:4 + n])
                buf = buf[4 + n:]
                rid = req["id"]
                if rid == 3:
                    continue
                answers = [rid, rid] if rid == 2 else [rid]
                if rid == 4:
                    answers.append(99)
                for a in answers:
                    conn.sendall(run.frame({"id": a, "status": "ok", "echo": req.get("x")}))
        conn.close()


class OpenLoopClient(unittest.TestCase):
    def test_exactly_one_answer_per_id(self):
        peer = Responder()
        peer.start()
        conn = run.Conn(peer.port)
        t = run.time.perf_counter()
        sends = [(t + 0.01 * i, 0, i, run.frame({"id": i, "x": i})) for i in range(1, 5)]
        res, strays = run.exchange([conn], sends, timeout=0.5)
        conn.close()
        self.assertEqual(res[1][2]["echo"], 1)
        self.assertIsNone(res[3][1])                      # never answered
        self.assertEqual(sorted(s["id"] for s in strays), [2, 99])  # duplicate and unknown
        self.assertTrue(all(res[i][0] >= sends[i - 1][0] for i in (1, 2, 4)))

    def test_serve_checks_count_wrong_and_missing_answers(self):
        reqs = [
            {"due": 0.0, "conn": 0, "op": "mine", "kind": "mine/dbscan", "obj": {"op": "mine", "tenant": "t0"},
             "want": ("labels", [0, 1])},
            {"due": 0.1, "conn": 0, "op": "mine", "kind": "mine/dbscan", "obj": {"op": "mine", "tenant": "t0"},
             "want": ("labels", [0, 1])},
            {"due": 0.2, "conn": 0, "op": "health", "kind": "health", "obj": {"op": "health"}, "want": None},
        ]
        answers = {1000: {"id": 1000, "status": "ok", "labels": [0, 1]},
                   1001: {"id": 1001, "status": "ok", "labels": [1, 1]}}

        def fake_exchange(conns, sends, timeout):
            out = {}
            for due, _, rid, _ in sends:
                out[rid] = [due, due + 0.01, answers.get(rid)] if rid in answers else [due, None, None]
            return out, []

        class FakeServer:
            def cpu_s(self):
                return 1.0

        saved = run.exchange
        run.exchange = fake_exchange
        try:
            failures, strays, cpu = run.serve_timed({"answer_timeout_s": 1.0}, FakeServer(), [], reqs)
        finally:
            run.exchange = saved
        self.assertEqual([r["ok"] for r in reqs], [True, False, False])
        self.assertEqual(reqs[2]["status"], "missing")
        self.assertEqual(len(failures), 2)
        self.assertEqual(strays, 0)
        self.assertEqual(cpu, 0.0)


if __name__ == "__main__":
    unittest.main()
