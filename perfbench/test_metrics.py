"""Unit checks of the benchmark's percentile and failure-accounting code.

    python3 perfbench/run.py --selftest
"""

import sys
import unittest

import metrics as M


def rec(status="", fp="f", sched=0.0, resolved=10.0, degraded=0, rejected=0):
    return {"status": status, "fp": fp, "sched_ms": sched,
            "resolved_ms": resolved, "sent_ms": sched, "degraded": degraded,
            "rejected": rejected}


OK_REF = {"status": "", "fp": "f"}
NOT_FOUND_REF = {"status": "NotFound: no match", "fp": ""}


class PercentileTest(unittest.TestCase):
    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(M.tail_percentile(100), 90)
        self.assertEqual(M.tail_percentile(40), 75)
        self.assertEqual(M.tail_percentile(200), 95)
        self.assertEqual(M.tail_percentile(20), 50)
        self.assertEqual(M.tail_percentile(5), 50)
        for n in (20, 37, 40, 100, 150, 200, 1000):
            q = M.tail_percentile(n)
            values = list(range(n))
            beyond = sum(1 for v in values if v > M.percentile(values, q))
            self.assertGreaterEqual(beyond, 10, n)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(M.percentile(values, 50), 50)
        self.assertEqual(M.percentile(values, 90), 90)
        self.assertEqual(M.percentile(values, 100), 100)
        self.assertEqual(M.percentile([7.0], 99), 7.0)
        self.assertEqual(M.percentile([3, 1, 2], 50), 2)
        with self.assertRaises(ValueError):
            M.percentile([], 50)

    def test_median(self):
        self.assertEqual(M.median([3, 1, 2]), 2)
        self.assertEqual(M.median([4, 1, 2, 3]), 2.5)


class FailureAccountingTest(unittest.TestCase):
    def test_status_classes(self):
        self.assertEqual(M.status_class(None), "lost")
        self.assertEqual(M.status_class(rec(rejected=1, status="x")),
                         "rejected")
        self.assertEqual(M.status_class(rec()), "ok")
        self.assertEqual(M.status_class(rec(degraded=1)), "degraded")
        self.assertEqual(M.status_class(rec(
            "Unavailable: shard 0 stalled (heartbeat frozen)")),
            "unavailable_stalled")
        self.assertEqual(M.status_class(rec("Unavailable: shard 0 is down")),
                         "unavailable_down")
        self.assertEqual(M.status_class(rec(
            "Unavailable: no reachable partition covers the query")),
            "unavailable_no_partition")
        self.assertEqual(M.status_class(rec("Unavailable: other")),
                         "unavailable_other")
        self.assertEqual(M.status_class(rec("DeadlineExceeded: late")),
                         "deadline_exceeded")
        self.assertEqual(M.status_class(rec("NotFound: x")), "not_found")
        self.assertEqual(M.status_class(rec("Internal: x")), "other_error")

    def test_oracle_judgement(self):
        self.assertEqual(M.judge(rec(), OK_REF), "answered")
        self.assertEqual(M.judge(rec(fp="g"), OK_REF), "wrong")
        self.assertEqual(M.judge(rec(), NOT_FOUND_REF), "wrong")
        self.assertEqual(M.judge(rec("NotFound: x", fp=""), NOT_FOUND_REF),
                         "not_found")
        self.assertEqual(M.judge(rec("NotFound: x", fp=""), OK_REF), "wrong")
        # Degraded answers fail without being compared.
        self.assertEqual(M.judge(rec(degraded=1, fp="g"), None), "degraded")
        self.assertTrue(M.is_answered("not_found"))
        self.assertFalse(M.is_answered("degraded"))

    def test_failures_cost_more_than_any_timely_answer(self):
        slow_ok = M.query_latency_ms(rec(resolved=29_999.0), "answered", 0)
        fast_fail = M.query_latency_ms(rec(resolved=0.5), "unavailable_down", 0)
        self.assertGreater(fast_fail, slow_ok)
        self.assertEqual(M.query_latency_ms(None, "lost", 100.0),
                         M.DEADLINE_MS + 100.0)

    def test_end_to_end(self):
        records = [rec(sched=0, resolved=100.0 * (i + 1)) for i in range(18)]
        records += [rec("Unavailable: shard 0 is down", fp="", sched=0,
                        resolved=1.0), None]
        classes = ["answered"] * 18 + ["unavailable_down", "lost"]
        e = M.end_to_end(records, classes, window_s=2.0, window_cpu_s=0.9)
        self.assertEqual(e["attempted"], 20)
        self.assertEqual(e["answered"], 18)
        self.assertAlmostEqual(e["failed_share"], 0.1)
        self.assertAlmostEqual(e["goodput_qps"], 9.0)
        self.assertAlmostEqual(e["cpu_ms_per_answer"], 50.0)
        self.assertEqual(e["tail_percentile"], 50)
        self.assertEqual(e["latency_p50_ms"], 1000.0)
        # Nothing answered: CPU is divided by one.
        e = M.end_to_end(records[-2:], classes[-2:], 2.0, 0.5)
        self.assertEqual(e["cpu_ms_per_answer"], 500.0)
        self.assertEqual(e["goodput_qps"], 0.0)


class JournalTest(unittest.TestCase):
    def sent(self, i, uq=None, **kw):
        item = {"kind": "sent", "i": i, "sched_ms": 0.0, "sent_ms": 0.5,
                "submit_us": 3.0}
        if uq is not None:
            item["uq"] = uq
        item.update(kw)
        return item

    def resolved(self, uq, ms, status="", cpu=0.1, rss=10.0):
        return {"kind": "resolved", "uq": uq, "resolved_ms": ms,
                "status": status, "degraded": 0, "retries": 0, "fp": "f",
                "cpu_s": cpu, "rss_mb": rss}

    def test_complete_journal_joins_by_ticket(self):
        items = [{"kind": "setup", "setup_s": [0.2, 0.3]},
                 self.sent(0, uq=7), self.sent(1, uq=8),
                 self.sent(2, rejected=1, status="ResourceExhausted: full",
                           resolved_ms=1.0),
                 # The sink may run before the send is journaled.
                 self.resolved(8, 40.0), self.resolved(7, 60.0),
                 {"kind": "end", "window_s": 0.06, "window_cpu_s": 0.2,
                  "peak_rss_mb": 12.0}]
        records, run = M.assemble_run(items, 3)
        self.assertTrue(run["complete"])
        self.assertEqual(run["setup_s"], [0.2, 0.3])
        self.assertEqual(run["window_cpu_s"], 0.2)
        self.assertEqual([r["resolved_ms"] for r in records],
                         [60.0, 40.0, 1.0])
        self.assertEqual([M.status_class(r) for r in records],
                         ["ok", "ok", "rejected"])

    def test_crash_loses_unresolved_and_unsent_queries(self):
        items = [{"kind": "setup", "setup_s": [0.2]},
                 self.sent(0, uq=1), self.sent(1, uq=2),
                 self.resolved(1, 25.0, cpu=0.4, rss=30.0)]
        records, run = M.assemble_run(items, 4)
        self.assertFalse(run["complete"])
        self.assertEqual([M.status_class(r) for r in records],
                         ["ok", "lost", "lost", "lost"])
        self.assertEqual(run["window_s"], 0.025)
        self.assertEqual(run["window_cpu_s"], 0.4)
        self.assertEqual(run["peak_rss_mb"], 30.0)
        classes = [M.judge(r, OK_REF if r else None) for r in records]
        e = M.end_to_end(records, classes, run["window_s"],
                         run["window_cpu_s"])
        self.assertEqual(e["answered"], 1)
        self.assertAlmostEqual(e["failed_share"], 0.75)
        self.assertEqual(e["latency_tail_ms"], M.DEADLINE_MS + 25.0)


def main():
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    result = unittest.TextTestRunner(verbosity=1).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
