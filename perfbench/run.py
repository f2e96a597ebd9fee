#!/usr/bin/env python3
"""One benchmark run: build, generate inputs, run the node, check, report.

    python3 perfbench/run.py --workload adhoc|aggregate|stream|fleet \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark builds the library and its
two programs from source into .bench_build/ (see CMakeLists.txt here),
generates the seed's inputs in a separate process (cached under
.bench_build/data/, keyed by the generator binary's hash), and runs the
measured node, which recovers a private copy of the pristine store before
every set-up. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Everything else goes to stderr. See README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # Leave no __pycache__ in the checkout.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DATA = ROOT / ".bench_build" / "data"
RUNS = ROOT / ".bench_build" / "runs"
CACHED_DATASETS = 24

sys.path.insert(0, str(HERE))
import api_surface  # noqa: E402
import layers  # noqa: E402

# The pending window every stream-shaped workload holds: the paper's default
# S200 mempool (3,733 pending, 20 double spends among them). The arrival
# pool behind it is generated with the same double-spend density.
WINDOW = 3733
POOL = 12000
# Intervals a stream-shaped run replays from the recovered store, again and
# again: pending slots are never reused, so the database and the cost of an
# interval grow with every interval, and only replays of one stretch of the
# script repeat the same requests.
INTERVALS = {"stream": 50, "fleet": 8}
CONTRADICTIONS = round(20 * (WINDOW + POOL) / WINDOW)

# dataset name -> perfbench_gen arguments. `aggregate` cuts the pending set
# to about 1,500 (WithPendingTotal) with about 20 double spends in the
# window, and keeps a short arrival pool for the traced write-side probe.
DATASETS = {
    "s200": ["--window", str(WINDOW), "--pool", str(POOL),
             "--contradictions", str(CONTRADICTIONS),
             "--intervals", str(max(INTERVALS.values()))],
    "s200p1500": ["--window", "1500", "--pool", "300",
                  "--contradictions", "24", "--intervals", "16"],
}
WORKLOADS = {
    "adhoc": "s200",
    "aggregate": "s200p1500",
    "stream": "s200",
    "fleet": "s200",
}
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "request_ms_p50": "ms",
    "request_ms_tail": "ms",
    "requests_per_s": "1/s",
}
# Request seconds one repeat takes on the reference host (4 vCPUs at 2.0 GHz,
# seed build): a pass over the ad-hoc texts, or a replay of the intervals.
# --seconds fixes a run's repeat count from these, so every run of a
# workload does the same work however fast the host is at the time.
REPEAT_SECONDS = {"adhoc": 0.13, "aggregate": 2.4, "stream": 1.25,
                  "fleet": 3.7}
MIN_REPEATS = 3
# Set-ups timed per run, each in a fresh process (the serving one included).
# One set-up takes 0.2-0.4 s and single ones vary by up to 1.7x, so the
# median needs this many.
SETUP_PROCESSES = 11
NODE_TIMEOUT_S = 150


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on our stderr; returns the exit code."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    return proc.returncode


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        if run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300) != 0:
            return False
    return run_logged(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                       "perfbench_gen", "perfbench_node"], 840) == 0


def generator_tag(name):
    """A hash of the generator binary and the dataset's arguments. The cached
    inputs are named after it, so a change to gen.cc, to the library code it
    links (the generator, the relational image, the store's formats) or to
    DATASETS regenerates them."""
    digest = hashlib.sha256((BUILD / "perfbench_gen").read_bytes())
    digest.update(" ".join(DATASETS[name]).encode())
    return digest.hexdigest()[:12]


def base_dir(name, tag):
    """The seed-independent part of a dataset."""
    return DATA / f"base-{name}-{tag}"


def dataset(name, seed):
    """Path of the generated inputs for (dataset, seed), generating them once."""
    tag = generator_tag(name)
    target = DATA / f"{name}-{seed}-{tag}"
    if (target / "complete").is_file():
        os.utime(target)
        return target
    partial = DATA / f"{name}-{seed}-{tag}.partial-{os.getpid()}"
    shutil.rmtree(partial, ignore_errors=True)
    start = time.monotonic()
    code = run_logged([str(BUILD / "perfbench_gen"),
                       "--base", str(base_dir(name, tag)),
                       "--out", str(partial), "--seed", str(seed)]
                      + DATASETS[name], 300)
    if code != 0:
        shutil.rmtree(partial, ignore_errors=True)
        return None
    (partial / "complete").write_text("ok\n")
    shutil.rmtree(target, ignore_errors=True)
    partial.rename(target)
    log(f"generated {name} seed {seed} in {time.monotonic() - start:.1f} s")
    # Keep the cache small: drop the least recently used inputs.
    for prefix, keep in (("base-", 4), ("", CACHED_DATASETS)):
        cached = sorted((p for p in DATA.iterdir()
                         if (p / "complete").is_file()
                         and p.name.startswith("base-") == (prefix == "base-")),
                        key=lambda p: p.stat().st_mtime, reverse=True)
        for old in cached[keep:]:
            shutil.rmtree(old, ignore_errors=True)
    return target


def run_node(args, data, work, phase, extra=()):
    """Runs one node process; returns its summary, or None if it failed."""
    cmd = [str(BUILD / "perfbench_node"), "--phase", phase,
           "--workload", args.workload, "--data", str(data),
           "--work", str(work)] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=NODE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"node did not finish within {NODE_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"node failed with exit code {proc.returncode}")
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        log("--seed must be non-negative")
        return 2

    violations = api_surface.violations(HERE)
    if violations:
        for violation in violations:
            log(f"API-surface guard: {violation}")
        return 1

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with open(ROOT / ".bench_build" / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not build():
            log("build failed")
            return 1
        DATA.mkdir(parents=True, exist_ok=True)
        data = dataset(WORKLOADS[args.workload], args.seed)
    if data is None:
        log("input generation failed")
        return 1

    repeats = max(MIN_REPEATS,
                  round(args.seconds / REPEAT_SECONDS[args.workload]))
    RUNS.mkdir(parents=True, exist_ok=True)
    work = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        spans = work / "spans.tsv"
        extra = ["--repeats", str(repeats), "--trace", str(args.trace)]
        if args.workload in INTERVALS:
            extra += ["--intervals", str(INTERVALS[args.workload])]
        if args.trace:
            extra += ["--spans", str(spans)]
        summary = run_node(args, data, work, "serve", extra)
        if summary is None:
            return 1
        info = summary["info"]
        log(f"{args.workload}: {info['distinct_requests']} distinct requests "
            f"x {info['repeats']} repeats in {info['request_seconds']:.1f} s "
            f"of request time; each counts at its best untraced time; tail = "
            f"p{info['tail_percentile']:.4g} of {info['untraced_samples']} "
            f"samples (10 or more beyond it); sync policy "
            f"{info['sync_policy']}, num_threads {info['num_threads']}")
        if args.trace:
            values = layers.per_layer_metrics(spans, summary)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _, _ in layers.METRICS}
        else:
            setups = [summary["metrics"]["setup_s"]]
            for _ in range(SETUP_PROCESSES - 1):
                setup = run_node(args, data, work, "setup")
                if setup is None:
                    return 1
                setups.append(setup["setup_s"])
            log(f"set-up seconds, one per process: "
                + " ".join(f"{s:.3f}" for s in setups))
            summary["metrics"]["setup_s"] = statistics.median(setups)
            metrics = {name: {"value": summary["metrics"][name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": bool(summary["correct"]) and summary["failed"] == 0,
        "attempted": int(summary["attempted"]),
        "failed": int(summary["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
