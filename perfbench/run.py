#!/usr/bin/env python3
"""Builds and runs the selspec benchmark for one workload.

    python3 perfbench/run.py --workload oneshot|serve|megamorphic|compile \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The harness (harness.cpp) is compiled
together with the library sources of that checkout into .bench_build/,
runs the workload in its own process, checks every job's output and
RunStats, and prints raw samples; this script turns them into the
metrics.  With --trace 0 it reports the end-to-end metrics, with
--trace 1 the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Any failed job,
or a percentile without enough samples behind it, makes the exit status
non-zero.  NOTES.md explains the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
HARNESS = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("oneshot", "serve", "megamorphic", "compile")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False on failure."""
    for needed in ("src/CMakeLists.txt", "mica/stdlib.mica"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log("run.py: %s is missing: run from a full checkout" % needed)
            return False
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed: %s" % " ".join(cmd))
            return False
    return True


def run_harness(workload, seed, seconds, trace):
    """Runs the harness; returns (exit code, raw document or None)."""
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--scratch", SCRATCH_DIR]
    # The harness stops its job loop after four time budgets at most;
    # this backstops a hung process (170 s for a 25 s budget).
    timeout = 4 * seconds + 70
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("run.py: harness exceeded %d s" % timeout)
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except ValueError:
        doc = None
    return proc.returncode, doc


def deterministic_metrics(doc):
    """Fig 5 / Table 3 / Fig 6 quantities: geometric means over the
    workload's (program, configuration) snapshots.  They repeat exactly."""
    snaps = doc["snapshots"].values()

    def mean(key):
        return statistics.geometric_mean(s[key] for s in snaps)

    return {
        "modeled_cycles_per_job": (mean("cycles"), "cycles"),
        "dispatches_per_job": (mean("dispatches"), "count"),
        "code_size_bytes": (mean("code_size"), "bytes"),
    }


def latency_report(title, classes):
    """Prints per-class sample counts and percentiles; returns the
    combined (p50, p90), each None when some class lacks samples."""
    p50, rows50 = stats.per_class(classes, stats.p50)
    p90, rows90 = stats.per_class(classes, stats.p90)
    print("%s: class, samples, p50 ms, p90 ms, samples beyond p90" % title)
    fmt = lambda v: "missing" if v is None else "%.3f" % v
    for (name, n, v50), (_, _, v90) in zip(rows50, rows90):
        print("  %-24s %6d %10s %10s %6d" % (name, n, fmt(v50), fmt(v90),
                                            stats.samples_beyond(90, n)))
    return p50, p90


def end_to_end(doc):
    p50, p90 = latency_report("latency", doc["latency_ms"])
    attempted = max(1, doc["attempted"])
    m = {
        "setup_s": (statistics.median(doc["setup_s"]), "s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "throughput_jobs_s": (doc["ok_jobs"] / doc["timed_wall_s"], "jobs/s"),
        "ok_frac": ((doc["attempted"] - doc["failed"]) / attempted, "fraction"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }
    m.update(deterministic_metrics(doc))
    return m


def per_layer(doc):
    untraced, _ = latency_report("untraced latency", doc["latency_ms"])
    traced, _ = latency_report("traced latency", doc["traced_latency_ms"])
    layers = doc["layers"]

    def total(name):
        return layers[name][0] if name in layers else None

    def mean(name):
        s, n = layers.get(name, (0, 0))
        return s / n if n else None

    def ratio(num, den):
        a, b = total(num), total(den)
        return a / b if a is not None and b else None

    hits, misses = total("obs.ic_hits"), total("obs.ic_misses")
    m = {
        "lang.parse_ms": (mean("lang.parse_ms"), "ms"),
        "lang.resolve_ms": (mean("lang.resolve_ms"), "ms"),
        "hierarchy.cone_bytes": (mean("hierarchy.cone_bytes"), "bytes"),
        "analysis.cha_ms": (mean("analysis.cha_ms"), "ms"),
        "profile.run_ms": (mean("profile.run_ms"), "ms"),
        "profile.arcs": (mean("profile.arcs"), "count"),
        "specialize.plan_ms": (mean("specialize.plan_ms"), "ms"),
        "specialize.versions_added": (mean("specialize.versions_added"), "count"),
        "opt.optimize_ms": (mean("opt.optimize_ms"), "ms"),
        "opt.sites_dynamic": (mean("opt.sites_dynamic"), "count"),
        "bytecode.compile_ms": (mean("bytecode.compile_ms"), "ms"),
        "bytecode.code_bytes": (mean("bytecode.code_bytes"), "bytes"),
        "bytecode.ic_hit_ratio": (hits / (hits + misses)
                                  if hits is not None and hits + misses else None,
                                  "ratio"),
        "bytecode.ic_misses_per_job": (mean("obs.ic_misses"), "count"),
        "runtime.pic_hits_per_job": (mean("obs.pic_hits"), "count"),
        "runtime.memo_hits_per_job": (mean("obs.memo_hits"), "count"),
        "runtime.full_lookups_per_job": (mean("obs.full_lookups"), "count"),
        "runtime.ns_per_dispatch": (ratio("obs.run_ns", "obs.dispatches"), "ns"),
        "interp.nodes_per_job": (mean("obs.nodes"), "count"),
        "interp.ns_per_node": (ratio("obs.run_ns", "obs.nodes"), "ns"),
        "interp.allocs_per_job": (mean("obs.allocs"), "count"),
        "interp.bytes_per_job": (mean("obs.bytes"), "bytes"),
        "driver.snapshot_build_ms": (mean("driver.snapshot_build_ms"), "ms"),
        "driver.run_ms": (mean("driver.run_ms"), "ms"),
        "driver.queue_wait_ms": (mean("driver.queue_wait_ms"), "ms"),
        "trace.overhead_frac": (traced / untraced - 1
                                if traced is not None and untraced else None,
                                "fraction"),
    }
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2
    rc, doc = run_harness(args.workload, args.seed, args.seconds, args.trace)
    if doc is None:
        log("run.py: the harness produced no result (exit %d)" % rc)
        return rc or 1
    for err in doc["errors"]:
        log("run.py: job failure: %s" % err)

    metrics = per_layer(doc) if args.trace else end_to_end(doc)
    missing = sorted(k for k, (v, _) in metrics.items() if v is None)
    if missing:
        log("run.py: not reported, too few samples or no data: %s"
            % ", ".join(missing))
    correct = rc == 0 and doc["failed"] == 0
    result = {
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items() if v is not None},
    }
    print(json.dumps(result))
    return 0 if correct and not missing else 1


if __name__ == "__main__":
    sys.exit(main())
