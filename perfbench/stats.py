"""Arithmetic of the repository benchmark: medians, quartiles, tail
percentiles, open-loop latency and span reconciliation.

Everything here is a pure function of its arguments, so
perfbench/test_stats.py can pin it down without building anything.
"""

import math
import statistics

# The percentiles a tail is read from, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


def median(xs):
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def quartiles(xs):
    """(q1, q2, q3) as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) < 2:
        raise ValueError("quartiles need two samples")
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    """Distance between the first and third quartile, as a share of the
    median: the steadiness figure a metric's bound is checked against."""
    q1, _, q3 = quartiles(xs)
    return (q3 - q1) / median(xs)


def percentile(xs, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not xs:
        raise ValueError("percentile of no samples")
    s = sorted(xs)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1]


def beyond(xs, value):
    return sum(1 for x in xs if x > value)


def tail(xs, ladder=TAIL_LADDER, need=TAIL_BEYOND):
    """The highest ladder percentile with at least `need` samples strictly
    beyond it, as (value, percentile).  With fewer samples than that the
    tail falls back to the median, and the percentile reads 50."""
    best = (median(xs), 50.0)
    for p in ladder[1:]:
        v = percentile(xs, p)
        if beyond(xs, v) >= need:
            best = (v, p)
    return best


def open_loop(due, sent, done):
    """Per-request latency timed from the due time, and how late the
    generator sent each request.  `done` is None for a request that got
    no answer; its latency is None too."""
    latency = [None if d is None else d - u for u, d in zip(due, done)]
    lateness = [max(0.0, s - u) for u, s in zip(due, sent)]
    return latency, lateness


def in_limit_ratio(latencies, ok, limit):
    """The share of requests answered ok within `limit`.  A failed or
    unanswered request never counts."""
    good = sum(1 for lat, k in zip(latencies, ok) if k and lat is not None and lat <= limit)
    return good / len(latencies)


def speed_factor(calibs, reference):
    """How much faster than the reference host this host ran: the reference
    loop's nominal CPU time over its median measured one.  A time measured
    here, multiplied by this, is the time on the reference host."""
    return reference / median(calibs)


def proc_stat_cpu(text, ticks_per_s):
    """User plus system CPU seconds from a /proc/<pid>/stat line.  The
    command name in parentheses may hold spaces and parentheses, so the
    fields are counted from the last ')'."""
    fields = text.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / ticks_per_s


def self_times(spans):
    """Self time of each span: its duration minus the part its children
    cover.  `spans` are (id, parent, layer, name, t0, t1) tuples whose
    children nest inside their parent and do not overlap each other,
    as they do when recorded on one thread."""
    child = {}
    for sid, parent, _layer, _name, t0, t1 in spans:
        child[parent] = child.get(parent, 0.0) + (t1 - t0)
    return {s[0]: (s[5] - s[4]) - child.get(s[0], 0.0) for s in spans}


# Span layers that are glue, not a layer of the program: the replay root,
# one span per operation, and the engine wrappers.
GLUE = ("root", "op", "engine")


def layer_totals(spans):
    """Self time summed per "layer.name", for the program's layers only."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        if s[2] in GLUE:
            continue
        key = "%s.%s" % (s[2], s[3])
        totals[key] = totals.get(key, 0.0) + own[s[0]]
    return totals


def reconcile(spans):
    """(wall, attributed, unattributed): the root span's duration, the
    sum of layer self times, and what is left.  The ROADMAP's bound asks
    for unattributed <= 5% of wall."""
    roots = [s for s in spans if s[1] == 0]
    wall = sum(s[5] - s[4] for s in roots)
    attributed = sum(layer_totals(spans).values())
    return wall, attributed, wall - attributed


def descendants(spans, sid):
    kids = {}
    for s in spans:
        kids.setdefault(s[1], []).append(s)
    out, todo = [], list(kids.get(sid, []))
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids.get(s[0], []))
    return out
