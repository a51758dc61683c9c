#!/usr/bin/env python3
"""Serving benchmark: open-loop keyword traffic against one QueryService.

    python3 perfbench/run.py --workload gus-repeat-spill --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run builds perfbench/serve_bench
(CMake, into .bench_build/). Each run:

  1. generates the workload's arrival schedule from --seed,
  2. serves it in a fresh process (default ServiceOptions, the
     workload's QConfig fields, a 30 s per-query deadline), which
     journals every send and resolution as it happens,
  3. checks every answer against reference fingerprints from a
     single-shard, unlimited-budget engine (computed on demand), and
  4. prints the metrics; the last stdout line is one JSON object.

Schedules and references are cached in .bench_cache/<digest>/, where the
digest covers the sources the binary is built from, so a code change
never reuses what older code produced.

--trace 1 runs the traced variant instead and reports per-layer metrics
(and writes a Chrome trace and a self-time table under .bench_cache/).
--selftest runs the metric unit checks; --smoke runs every workload
BENCHMARK.json lists for a few seconds in both modes and checks that
each metric it names is printed with its unit.

--defaults serves with ServiceOptions' default 1 s stall timeout and
QConfig's default temporal reuse, the settings under which the program
fails queries (README, "Known defects"); not a gated configuration.

Exits non-zero on any answer that differs from the reference.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402

BUILD_DIR = ".bench_build"
CACHE_DIR = ".bench_cache"
BINARY = os.path.join(BUILD_DIR, "serve_bench")
# pfam-partitioned is not in BENCHMARK.json; it is kept to show a defect.
WORKLOADS = ("gus-partitioned", "gus-repeat-spill", "pfam-partitioned")
SERVE_TIMEOUT_S = 115   # serve: schedule + deadline + bounded drain
ORACLE_TIMEOUT_S = 50
TRACE_TIMEOUT_S = 165

UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "failed_share": "share",
    "goodput_qps": "1/s",
    "cpu_ms_per_answer": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def log(msg):
    print(msg, flush=True)


def fail(msg, code=2):
    print("error: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Build

def source_files(root):
    for sub in ("src", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(root, sub)):
            for f in files:
                if f.endswith((".cc", ".h", ".txt")):
                    yield os.path.join(dirpath, f)


def ensure_built(root):
    if not os.path.isfile(os.path.join(root, "src", "serve", "query_service.h")):
        fail("qsys sources (src/) not found; run from the repository root")
    binary = os.path.join(root, BINARY)
    if os.path.isfile(binary):
        built = os.path.getmtime(binary)
        if all(os.path.getmtime(f) <= built for f in source_files(root)):
            return binary
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return binary


def code_digest(root):
    """Digest of the sources serve_bench is built from."""
    h = hashlib.sha256()
    for path in sorted(source_files(root)):
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_tool(binary, args, timeout):
    """Runs serve_bench; returns its exit code ("timeout" when killed)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode != 0 and proc.stderr:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode


# ---------------------------------------------------------------------------
# Schedule and oracle

def read_schedule(path):
    out = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line:
                send_ms, user, keywords = line.split("\t", 2)
                out.append((int(send_ms), int(user), keywords))
    return out


def make_schedule(binary, workload, seed, seconds, cache):
    path = os.path.join(cache, "schedule-%s-s%d-t%d.tsv" %
                        (workload, seed, seconds))
    if not os.path.isfile(path):
        tmp = path + ".tmp%d" % os.getpid()
        code = run_tool(binary, ["schedule", "--workload", workload,
                                 "--seed", str(seed), "--seconds",
                                 str(seconds), "--out", tmp], 120)
        if code != 0:
            fail("schedule generation failed (%s)" % code)
        os.replace(tmp, path)
    return path, read_schedule(path)


def oracle_answers(binary, workload, schedule_path, schedule, needed, cache_dir):
    """Reference {status, fp} per needed schedule index. References are
    keyed by (user, keywords) and cached per workload across seeds."""
    cache_path = os.path.join(cache_dir, "oracle-%s.json" % workload)
    cache = {}
    if os.path.isfile(cache_path):
        with open(cache_path) as f:
            cache = json.load(f)
    key_of = {i: "%d\t%s" % (schedule[i][1], schedule[i][2]) for i in needed}
    missing = {}
    for i in needed:
        if key_of[i] not in cache:
            missing.setdefault(key_of[i], i)
    if missing:
        need_path = os.path.join(CACHE_DIR, "need-%d.txt" % os.getpid())
        out_path = os.path.join(CACHE_DIR, "oracle-out-%d.json" % os.getpid())
        with open(need_path, "w") as f:
            f.write("\n".join(str(i) for i in sorted(missing.values())) + "\n")
        code = run_tool(binary, ["oracle", "--workload", workload,
                                 "--schedule", schedule_path, "--need",
                                 need_path, "--out", out_path],
                        ORACLE_TIMEOUT_S)
        os.remove(need_path)
        if code != 0:
            fail("oracle run failed (%s)" % code)
        with open(out_path) as f:
            for item in json.load(f):
                i = item["i"]
                cache["%d\t%s" % (schedule[i][1], schedule[i][2])] = {
                    "status": item["status"], "fp": item["fp"]}
        os.remove(out_path)
        tmp = cache_path + ".tmp%d" % os.getpid()
        with open(tmp, "w") as f:
            json.dump(cache, f, sort_keys=True)
        os.replace(tmp, cache_path)
    return {i: cache[key_of[i]] for i in needed}


def check_answers(binary, workload, schedule_path, schedule, recs, cache):
    """Classifies every query against the oracle (None records are
    queries the served process lost)."""
    needed = [i for i, r in enumerate(recs)
              if M.status_class(r) in ("ok", "not_found")]
    refs = oracle_answers(binary, workload, schedule_path, schedule, needed,
                          cache)
    classes = [M.judge(r, refs.get(i)) for i, r in enumerate(recs)]
    for i, c in enumerate(classes):
        if c == "wrong":
            log("wrong answer: query %d %r (user %d): got status=%r fp=%s "
                "retries=%s, reference status=%r fp=%s" %
                (i, schedule[i][2], schedule[i][1], recs[i]["status"],
                 recs[i]["fp"], recs[i].get("retries"), refs[i]["status"],
                 refs[i]["fp"]))
    return classes


def read_journal(path, n, code):
    """The served run's records and totals from its journal; a torn last
    line (the process died mid-write) ends the journal."""
    items = []
    if os.path.isfile(path):
        with open(path) as f:
            for line in f:
                try:
                    items.append(json.loads(line))
                except ValueError:
                    break
        os.remove(path)
    records, run = M.assemble_run(items, n)
    if not run["setup_s"] and not any(records):
        fail("served run recorded nothing (exit %s)" % code)
    if not run["complete"]:
        log("journal incomplete: %d of %d queries lost" %
            (records.count(None), n))
    return records, run


def lateness_ms_max(records):
    return max([r["sent_ms"] - r["sched_ms"] for r in records if r] + [0.0])


def print_failures(classes):
    counts = {c: 0 for c in M.CLASSES}
    for c in classes:
        counts[c] += 1
    log("outcomes: " + " ".join("%s=%d" % (c, counts[c]) for c in M.CLASSES))
    return counts


# ---------------------------------------------------------------------------
# Runs

def served_run(binary, workload, seed, seconds, defaults, cache):
    schedule_path, schedule = make_schedule(binary, workload, seed, seconds,
                                            cache)
    journal = os.path.join(CACHE_DIR, "serve-%d.jsonl" % os.getpid())
    code = run_tool(binary, ["serve", "--workload", workload, "--schedule",
                             schedule_path, "--journal", journal,
                             "--scratch", CACHE_DIR,
                             "--defaults", str(int(defaults))],
                    SERVE_TIMEOUT_S)
    # The exit status covers teardown too; a crash there is reported,
    # never retried.
    log("serve process exit: %s" % code)
    recs, run = read_journal(journal, len(schedule), code)
    classes = check_answers(binary, workload, schedule_path, schedule, recs,
                            cache)
    counts = print_failures(classes)
    e2e = M.end_to_end(recs, classes, run["window_s"], run["window_cpu_s"])
    log("queries=%d answered=%d tail=p%d window_s=%.3f window_cpu_s=%.3f "
        "lateness_ms_max=%.3f setups_s=%s" %
        (e2e["attempted"], e2e["answered"], e2e["tail_percentile"],
         run["window_s"], run["window_cpu_s"], lateness_ms_max(recs),
         ",".join("%.4f" % s for s in run["setup_s"])))
    values = {
        "latency_p50_ms": e2e["latency_p50_ms"],
        "latency_tail_ms": e2e["latency_tail_ms"],
        "failed_share": e2e["failed_share"],
        "goodput_qps": e2e["goodput_qps"],
        "cpu_ms_per_answer": e2e["cpu_ms_per_answer"],
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": M.median(run["setup_s"]),
    }
    for name, v in values.items():
        log("metric %-18s %14.4f %s" % (name, v, UNITS[name]))
    wrong = counts["wrong"]
    return values, e2e["attempted"], e2e["attempted"] - e2e["answered"], wrong


def traced_run(binary, workload, seed, seconds, budget_s, defaults, cache):
    schedule_path, schedule = make_schedule(binary, workload, seed, seconds,
                                            cache)
    journal = os.path.join(CACHE_DIR, "trace-%d.jsonl" % os.getpid())
    out_path = os.path.join(CACHE_DIR, "trace-%d.json" % os.getpid())
    trace_dir = os.path.join(CACHE_DIR, "trace-%s-s%d" % (workload, seed))
    code = run_tool(binary, ["trace", "--workload", workload, "--schedule",
                             schedule_path, "--journal", journal, "--out",
                             out_path, "--trace-dir", trace_dir, "--scratch",
                             CACHE_DIR, "--budget", str(budget_s),
                             "--defaults", str(int(defaults))],
                    TRACE_TIMEOUT_S)
    log("trace process exit: %s" % code)
    recs, run = read_journal(journal, len(schedule), code)
    if not os.path.isfile(out_path):
        fail("traced run wrote no per-layer results (exit %s)" % code)
    with open(out_path) as f:
        layer = json.load(f)
    os.remove(out_path)
    classes = check_answers(binary, workload, schedule_path, schedule, recs,
                            cache)
    counts = print_failures(classes)
    e2e = M.end_to_end(recs, classes, run["window_s"], run["window_cpu_s"])
    # The served pass's end-to-end numbers that are too unsteady to gate
    # are tracked here instead.
    layer["serve.latency_p50_ms"] = e2e["latency_p50_ms"]
    layer["serve.latency_tail_ms"] = e2e["latency_tail_ms"]
    layer["serve.failed_share"] = e2e["failed_share"]
    layer["serve.goodput_qps"] = e2e["goodput_qps"]
    layer["process.cpu_ms_per_answer"] = e2e["cpu_ms_per_answer"]
    layer["loadgen.lateness_ms_max"] = lateness_ms_max(recs)
    for name in sorted(layer):
        log("layer %-36s %16.6g" % (name, layer[name]))
    log("trace written to %s/trace.json, self time per layer:" % trace_dir)
    with open(os.path.join(trace_dir, "self_time.tsv")) as f:
        for line in f:
            log("  " + line.rstrip("\n"))
    return layer, e2e["attempted"], e2e["attempted"] - e2e["answered"], \
        counts["wrong"]


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def emit(correct, attempted, failed, values, spec_metrics):
    out = {"correct": correct, "attempted": attempted, "failed": failed,
           "metrics": {m["name"]: {"value": values[m["name"]],
                                   "unit": m["unit"]}
                       for m in spec_metrics}}
    print(json.dumps(out), flush=True)


def smoke(root):
    """Every workload for a few seconds, both modes: each metric
    BENCHMARK.json names must be printed with its unit."""
    spec = load_spec(root)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "1", "--seconds", "3",
                   "--trace", str(trace), "--budget", "5"]
            t0 = time.time()
            proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                                  text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            want = spec["per_layer" if trace else "end_to_end"]
            got = result.get("metrics", {})
            missing = [m["name"] for m in want
                       if got.get(m["name"], {}).get("unit") != m["unit"]]
            ok = proc.returncode == 0 and not missing and result.get("correct")
            log("smoke %-18s trace=%d %s (%.1fs)%s" %
                (workload, trace, "OK" if ok else "FAIL", time.time() - t0,
                 " missing=" + ",".join(missing) if missing else ""))
            if not ok:
                return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float,
                    help="seconds a traced run may take before its "
                    "replay stops stepping (default --seconds + 25)")
    ap.add_argument("--defaults", action="store_true",
                    help="default stall timeout and temporal reuse "
                    "(shows the known defects; not gated)")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    if args.selftest:
        import test_metrics
        return test_metrics.main()
    spec = load_spec(root) if os.path.isfile("BENCHMARK.json") else None
    if spec is None:
        fail("BENCHMARK.json not found; run from the repository root")
    binary = ensure_built(root)
    cache = os.path.join(CACHE_DIR, code_digest(root))
    os.makedirs(cache, exist_ok=True)
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        fail("--workload is required")

    if args.trace:
        budget = args.budget
        if budget is None:
            budget = args.seconds + 25
        values, attempted, failed, wrong = traced_run(
            binary, args.workload, args.seed, args.seconds, budget,
            args.defaults, cache)
        spec_metrics = spec["per_layer"]
    else:
        values, attempted, failed, wrong = served_run(
            binary, args.workload, args.seed, args.seconds, args.defaults,
            cache)
        spec_metrics = spec["end_to_end"]
    if wrong:
        log("%d answer(s) differ from the reference" % wrong)
    emit(wrong == 0, attempted, failed, values, spec_metrics)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
