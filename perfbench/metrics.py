"""Pure metric code of the serving benchmark: outcome classification,
oracle comparison, percentiles and the end-to-end aggregates.

Kept free of I/O so perfbench/test_metrics.py can check it in isolation.
"""

import math

DEADLINE_MS = 30_000.0

# Outcome classes, in the order the failure table prints them.
CLASSES = [
    "answered",
    "not_found",
    "rejected",
    "unavailable_stalled",
    "unavailable_down",
    "unavailable_no_partition",
    "unavailable_other",
    "deadline_exceeded",
    "degraded",
    "wrong",
    "other_error",
    "lost",
]


def assemble_run(items, n):
    """Joins a served run's journal into one record per scheduled query.

    `items` are the journal's lines, parsed, in order (serve_bench.cc's
    Journal documents them); `n` is the number of scheduled queries. A
    query never sent, or sent and never resolved, gets None: the serve
    process died first. Returns (records, run); `run` holds setup_s,
    window_s, window_cpu_s, peak_rss_mb and `complete`, whether the
    journal reached its end line. Without one, the window closes at the
    last resolution the journal holds.
    """
    setup_s, end, sent, resolved = [], None, {}, {}
    for item in items:
        kind = item["kind"]
        if kind == "setup":
            setup_s = item["setup_s"]
        elif kind == "sent":
            sent[int(item["i"])] = item
        elif kind == "resolved":
            resolved[int(item["uq"])] = item
        elif kind == "end":
            end = item
    records = [None] * n
    for i, s in sent.items():
        if s.get("rejected"):
            records[i] = dict(s)
        elif int(s["uq"]) in resolved:
            records[i] = dict(s, **resolved[int(s["uq"])])
    run = {"setup_s": setup_s, "complete": end is not None}
    if end is None:
        seen = list(resolved.values())
        closed = [r["resolved_ms"] for r in seen] + \
            [s["resolved_ms"] for s in sent.values() if s.get("rejected")]
        end = {"window_s": max(closed + [0.0]) / 1000.0,
               "window_cpu_s": max([r["cpu_s"] for r in seen] + [0.0]),
               "peak_rss_mb": max([r["rss_mb"] for r in seen] + [0.0])}
    for key in ("window_s", "window_cpu_s", "peak_rss_mb"):
        run[key] = end[key]
    return records, run


def status_class(rec):
    """Outcome class of one served query record, before the oracle check.

    `rec` is a record as assemble_run joins it, or None for a query the
    served process lost (it died before the query resolved).
    """
    if rec is None:
        return "lost"
    if rec.get("rejected"):
        return "rejected"
    status = rec.get("status", "")
    if status == "":
        return "degraded" if rec.get("degraded") else "ok"
    if status.startswith("NotFound"):
        return "not_found"
    if status.startswith("DeadlineExceeded"):
        return "deadline_exceeded"
    if status.startswith("Unavailable"):
        if "stalled" in status:
            return "unavailable_stalled"
        if "is down" in status:
            return "unavailable_down"
        if "no reachable partition" in status:
            return "unavailable_no_partition"
        return "unavailable_other"
    return "other_error"


def judge(rec, reference):
    """Final class of one query given the oracle's reference answer.

    `reference` is {"status": str, "fp": str} from the oracle, or None
    when no reference was needed. A query is fully answered when it
    resolved OK, not degraded, with the oracle's fingerprint; a NotFound
    also counts as answered when the oracle found nothing either. An OK
    (or NotFound) outcome that disagrees with the oracle is "wrong".
    """
    cls = status_class(rec)
    if cls == "ok":
        if reference is not None and reference["status"] == "" and \
                reference["fp"] == rec["fp"]:
            return "answered"
        return "wrong"
    if cls == "not_found":
        if reference is not None and reference["status"].startswith("NotFound"):
            return "not_found"
        return "wrong"
    return cls


def is_answered(cls):
    return cls in ("answered", "not_found")


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it
    (nearest-rank), e.g. 90 at n=100, 75 at n=40; 50 below n=20."""
    if n < 20:
        return 50
    return max(50, math.floor(100.0 * (n - 10) / n))


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def query_latency_ms(rec, cls, lost_ms):
    """Time from scheduled send to resolution. A query not fully answered
    is charged that time plus the deadline, so every failure costs more
    than any answer that met the deadline; a lost query is charged the
    deadline plus `lost_ms`."""
    if rec is None:
        return DEADLINE_MS + lost_ms
    waited = max(0.0, rec["resolved_ms"] - rec["sched_ms"])
    return waited if is_answered(cls) else DEADLINE_MS + waited


def end_to_end(records, classes, window_s, window_cpu_s):
    """The served run's end-to-end numbers. `records` and `classes` are
    parallel (None records are lost queries)."""
    n = len(records)
    answered = sum(1 for c in classes if is_answered(c))
    lost_ms = 1000.0 * window_s
    lat = [query_latency_ms(r, c, lost_ms) for r, c in zip(records, classes)]
    tail_q = tail_percentile(n)
    return {
        "latency_p50_ms": percentile(lat, 50),
        "latency_tail_ms": percentile(lat, tail_q),
        "tail_percentile": tail_q,
        "failed_share": (n - answered) / n,
        "goodput_qps": answered / window_s if window_s > 0 else 0.0,
        "cpu_ms_per_answer": 1000.0 * window_cpu_s / max(answered, 1),
        "answered": answered,
        "attempted": n,
    }


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
