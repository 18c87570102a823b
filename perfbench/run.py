#!/usr/bin/env python3
"""Repository benchmark: cold experiment sweeps of the Cassandra harness.

    python3 perfbench/run.py --workload tls-stream --seed 1 --seconds 20 --trace 0

Builds `perfbench` (perfbench/CMakeLists.txt, Release) into .bench_build/,
then, for about --seconds seconds, runs the workload as repeated cold
sweeps, one fresh process per sweep (--trace 0, end-to-end metrics), or
repeated single-threaded layer-by-layer passes (--trace 1, per-layer
metrics). Each sweep or pass gets its own seed derived from --seed; the
seed only permutes matrix order, so every sweep must report the same
per-cell results. The last stdout line is the result JSON; the line
before it records the host context. Exit status is 0 only when every
check passed. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
SPEC = ROOT / "BENCHMARK.json"

MIN_SWEEPS = 3       # medians need a few samples; two seeds are compared
CHILD_TIMEOUT_S = 150
THREADS = max(1, min(4, len(os.sched_getaffinity(0))))


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build (a no-op when up to date)."""
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(THREADS)])
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError("build failed, see .bench_build/build.log")


def run_child(args, work):
    """Run perfbench once; return (exit code, parsed last JSON line)."""
    env = dict(os.environ, TMPDIR=str(work))
    proc = subprocess.run([str(BINARY)] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.stderr.strip():
        log(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def source_digest():
    """sha256 over the sources the benchmark builds."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]
    files += sorted(p for p in HERE.iterdir() if p.is_file())
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def host_context(info):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def loop(seconds, minimum, once):
    """Call once(i) while the next call is expected to fit --seconds."""
    start = time.monotonic()
    i, last = 0, 0.0
    while i < minimum or time.monotonic() - start + last <= seconds:
        t = time.monotonic()
        once(i)
        last = time.monotonic() - t
        i += 1


def derived_seed(seed, i):
    return (seed * 1000003 + i) % (1 << 63)


def measure_sweeps(workload, seed, seconds, work):
    sweeps = []

    def once(i):
        sub = work / f"sweep-{i}"
        s = derived_seed(seed, i)
        code, out = run_child(
            ["sweep", "--workload", workload, "--seed", str(s),
             "--threads", str(THREADS), "--work", str(sub)], sub)
        shutil.rmtree(sub, ignore_errors=True)
        if out is None:
            raise BenchError(f"sweep {i} (seed {s}) printed no result, "
                             f"exit {code}")
        out["exit"] = code
        sweeps.append(out)

    loop(seconds, MIN_SWEEPS, once)

    cells = sum(int(s["cells"]) for s in sweeps)
    failed = sum(int(s.get("cells_failed", s["cells"])) for s in sweeps)
    digests = {s.get("digest") for s in sweeps}
    ratios = {s.get("cycles_vs_baseline_cassandra") for s in sweeps}
    problems = [f for s in sweeps for f in s.get("failures", [])]
    if len(digests) != 1:
        problems.append(f"per-cell results differ across seeds: {digests}")
    if len(ratios) != 1:
        problems.append(f"cycles_vs_baseline.cassandra differs: {ratios}")
    if any(s["exit"] != 0 for s in sweeps):
        problems.append("a sweep exited non-zero")

    ok = [s for s in sweeps if "wall_s" in s]
    metrics = {
        "sim_minst_per_s": statistics.median(
            s["instructions"] / s["wall_s"] / 1e6 for s in ok),
        "setup_s": statistics.median(s["setup_s"] for s in sweeps),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
        "cells_ok_share": (cells - failed) / cells,
        "cycles_vs_baseline.cassandra": statistics.median(
            s["cycles_vs_baseline_cassandra"] for s in ok),
    }
    detail = [{k: s.get(k) for k in ("seed", "wall_s", "instructions",
                                     "setup_s", "peak_rss_mb", "digest",
                                     "cells_failed")} for s in sweeps]
    return cells, failed, metrics, problems, detail


def measure_traced(workload, seed, seconds, work):
    passes = []

    def once(i):
        sub = work / f"traced-{i}"
        s = derived_seed(seed, i)
        code, out = run_child(
            ["traced", "--workload", workload, "--seed", str(s),
             "--work", str(sub)], sub)
        shutil.rmtree(sub, ignore_errors=True)
        if out is None:
            raise BenchError(f"traced pass {i} (seed {s}) printed no "
                             f"result, exit {code}")
        out["exit"] = code
        passes.append(out)

    loop(seconds, 1, once)

    problems = [f for p in passes for f in p.get("failures", [])]
    if len({p["digest"] for p in passes}) != 1:
        problems.append("per-cell results differ across traced seeds")
    if any(p["exit"] != 0 for p in passes):
        problems.append("a traced pass exited non-zero")
    names = passes[0]["metrics"].keys()
    metrics = {n: statistics.median(p["metrics"][n] for p in passes)
               for n in names}
    failed = sum(1 for p in passes if p["failed_checks"] or p["exit"])
    detail = [{"seed": p["seed"], "digest": p["digest"],
               "failed_checks": p["failed_checks"]} for p in passes]
    return len(passes), failed, metrics, problems, detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    code, info = run_child(["info"], BUILD)
    if code != 0 or info is None or info.get("build_type") != "Release":
        raise BenchError(f"refusing a non-Release build: {info}")

    context = host_context(info)
    context["loadavg_before"] = list(os.getloadavg())
    work = BUILD / "work" / str(os.getpid())
    try:
        measure = measure_traced if args.trace else measure_sweeps
        attempted, failed, values, problems, detail = measure(
            args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context["loadavg_after"] = list(os.getloadavg())

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for p in problems:
        log(f"check failed: {p}")
    correct = not problems and failed == 0
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "context": context,
                      "runs": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, FileNotFoundError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        sys.exit(2)
