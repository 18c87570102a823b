#!/usr/bin/env python3
"""Collect the repo's benchmark baselines.

Runs the google-benchmark micro harnesses (BTU lookup/eviction and
k-mer compression kernels), a timed Release `run_experiment` sweep
of configs/ci_smoke.json and the q3 server sweep, then writes three
machine-readable baselines:

  BENCH_micro.json    per microbenchmark: wall and CPU ns per benchmark
                      iteration, plus ns per processed item where the
                      bench counts items (benchmark JSON, reduced)
  BENCH_fig7.json     end-to-end cells/sec of the ci_smoke sweep, split
                      into analysis+simulate (cold) and simulate-only
                      phases, with the run's cache/scheduler telemetry
  BENCH_q3.json       server macro benchmark: simulated requests/sec
                      per scheme on the composite server/tls mixes
                      (q3_cassandra_lite), plus the harness wall time

Usage: scripts/collect_bench.py [--build BUILD_DIR] [--out-dir DIR]
                                [--repeat N] [--compare OLD.json]
                                [--compare-q3 OLD.json]

`--repeat N` runs every timed leg N times and keeps the best (the
machines that collect these baselines are small and noisy; best-of-N
measures the code, not the neighbours). Each repetition gets a fresh
cache directory, so cold legs stay cold.

`--compare OLD.json` diffs the freshly measured BENCH_fig7.json
against a previous one (normally the committed baseline): prints a
per-metric old/new/delta table and exits non-zero when cells/sec of
either leg regressed by more than 15%. This is the CI perf gate —
see docs/ARCHITECTURE.md, "Performance".

`--compare-q3 OLD.json` applies the same contract to BENCH_q3.json:
per-scheme simulated requests/sec must not drop more than 15% below
the committed baseline. Simulated cycles are deterministic, so any
drift here is a real simulator/scheme change, not measurement noise.

The build directory must be a Release build; micro binaries are
skipped (with a note) when google-benchmark was not available at
configure time.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time


def run_micro(binary):
    """One micro binary -> list of {name, ns_per_iter, cpu_ns_per_iter,
    [ns_per_item,] iterations}.

    An iteration is one pass of the bench's timed loop body, which may
    process many items (ops, trace elements); ns_per_item is present
    only for benches that report items via SetItemsProcessed, and comes
    from google-benchmark's items_per_second (CPU time based).
    """
    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        subprocess.run(
            [binary, "--benchmark_format=json",
             f"--benchmark_out={out.name}",
             "--benchmark_out_format=json"],
            check=True, stdout=subprocess.DEVNULL)
        doc = json.load(open(out.name))
    results = []
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") != "iteration":
            continue
        # Normalize to ns whatever time_unit the bench picked.
        scale = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[
            bench.get("time_unit", "ns")]
        entry = {
            "name": bench["name"],
            "ns_per_iter": round(bench["real_time"] * scale, 3),
            "cpu_ns_per_iter": round(bench["cpu_time"] * scale, 3),
        }
        if bench.get("items_per_second"):
            entry["ns_per_item"] = round(
                1e9 / bench["items_per_second"], 4)
        entry["iterations"] = bench["iterations"]
        results.append(entry)
    return results


def timed_sweep(run_experiment, config, extra=()):
    """One run_experiment sweep -> (seconds, telemetry dict)."""
    with tempfile.TemporaryDirectory() as scratch:
        stats = os.path.join(scratch, "stats.json")
        out = os.path.join(scratch, "report.json")
        start = time.monotonic()
        subprocess.run(
            [run_experiment, config, f"--out={out}",
             f"--stats-out={stats}", *extra],
            check=True, stdout=subprocess.DEVNULL)
        seconds = time.monotonic() - start
        telemetry = json.load(open(stats))
        # The cache dir is an ephemeral temp path; don't bake it into
        # a committed baseline.
        telemetry.get("cache_stats", {}).pop("dir", None)
        cells = len(json.load(open(out))["results"])
    return seconds, telemetry, cells


REGRESSION_LIMIT = 0.15  # fraction of cells/sec loss that fails CI

NOMINAL_HZ = 3e9  # presentation clock of the q3 requests/sec numbers


def timed_q3(q3_binary):
    """One q3 server sweep -> (seconds, per-scheme requests/sec)."""
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "report.json")
        start = time.monotonic()
        subprocess.run(
            [q3_binary, "--format=json", f"--out={out}"],
            check=True, stdout=subprocess.DEVNULL)
        seconds = time.monotonic() - start
        results = json.load(open(out))["results"]
    schemes = {}
    for cell in results:
        n = int(cell["workload"].rsplit("/", 1)[1])
        rps = n * NOMINAL_HZ / cell["cycles"]
        schemes.setdefault(cell["scheme"], {})[cell["workload"]] = \
            round(rps, 1)
    workloads = sorted({cell["workload"] for cell in results})
    return seconds, workloads, schemes


def compare_q3(new_doc, old_path):
    """Per-scheme requests/sec deltas vs a previous BENCH_q3.json.

    Returns regression messages (empty = gate passes). A scheme
    regresses when requests/sec of any workload dropped more than
    REGRESSION_LIMIT below the old baseline.
    """
    old_doc = json.load(open(old_path))
    failures = []
    print(f"comparison vs {old_path}:")
    print(f"  {'metric':<38} {'old':>12} {'new':>12} {'delta':>8}")
    for scheme, workloads in sorted(new_doc["schemes"].items()):
        for workload, new in sorted(workloads.items()):
            old = old_doc.get("schemes", {}).get(scheme, {}) \
                .get(workload)
            if old is None:
                continue
            delta = (new - old) / old if old else 0.0
            name = f"{scheme}[{workload}].req_per_sec"
            print(f"  {name:<38} {old:>12} {new:>12} {delta:>+7.1%}")
            if delta < -REGRESSION_LIMIT:
                failures.append(
                    f"{name} regressed {-delta:.1%} "
                    f"({old} -> {new}), limit {REGRESSION_LIMIT:.0%}")
    return failures


def compare_fig7(new_doc, old_path):
    """Print per-metric deltas vs a previous BENCH_fig7.json.

    Returns the list of regression messages (empty = gate passes).
    A leg regresses when its cells/sec dropped more than
    REGRESSION_LIMIT below the old baseline.
    """
    old_doc = json.load(open(old_path))
    failures = []
    print(f"comparison vs {old_path}:")
    print(f"  {'metric':<24} {'old':>10} {'new':>10} {'delta':>8}")
    for leg in ("cold", "warm"):
        for metric in ("seconds", "cells_per_sec"):
            old = old_doc.get(leg, {}).get(metric)
            new = new_doc.get(leg, {}).get(metric)
            if old is None or new is None:
                continue
            delta = (new - old) / old if old else 0.0
            print(f"  {leg + '.' + metric:<24} {old:>10} {new:>10} "
                  f"{delta:>+7.1%}")
            if metric == "cells_per_sec" and \
                    delta < -REGRESSION_LIMIT:
                failures.append(
                    f"{leg}.cells_per_sec regressed {-delta:.1%} "
                    f"({old} -> {new}), limit {REGRESSION_LIMIT:.0%}")
    return failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--build", default="build")
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--repeat", type=int, default=1,
                        help="best-of-N for every timed leg")
    parser.add_argument("--compare", metavar="OLD.json",
                        help="diff BENCH_fig7.json against this "
                             "baseline; exit 1 on a >15%% cells/sec "
                             "regression")
    parser.add_argument("--compare-q3", metavar="OLD.json",
                        help="diff BENCH_q3.json against this "
                             "baseline; exit 1 on a >15%% requests/sec "
                             "regression of any scheme")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    # --- BENCH_micro.json -------------------------------------------
    micro = {}
    for name in ("micro_btu", "micro_kmers", "micro_replay"):
        binary = os.path.join(args.build, "bench", name)
        if not os.path.exists(binary):
            print(f"note: {binary} not built (google-benchmark "
                  "missing?); skipping", file=sys.stderr)
            continue
        micro[name] = run_micro(binary)
    if micro:
        path = os.path.join(args.out_dir, "BENCH_micro.json")
        units = {
            "ns_per_iter": "wall ns per benchmark iteration",
            "cpu_ns_per_iter": "CPU ns per benchmark iteration",
            "ns_per_item": "CPU ns per processed item "
                           "(1e9 / items_per_second)",
        }
        json.dump({"units": units, "benchmarks": micro},
                  open(path, "w"), indent=2)
        print(f"wrote {path}")

    # --- BENCH_fig7.json --------------------------------------------
    run_experiment = os.path.join(args.build, "bench", "run_experiment")
    config = "configs/ci_smoke.json"
    # Best-of-N: each repetition is a fresh cache dir (cold stays
    # cold); cold and warm keep their best iteration independently.
    cold_s, warm_s = None, None
    for _ in range(max(1, args.repeat)):
        with tempfile.TemporaryDirectory() as cache_dir:
            cached = ("--cache=on", f"--cache-dir={cache_dir}")
            c_s, c_tel, cells = timed_sweep(run_experiment, config,
                                            cached)
            w_s, w_tel, _ = timed_sweep(run_experiment, config,
                                        cached)
        if cold_s is None or c_s < cold_s:
            cold_s, cold_tel = c_s, c_tel
        if warm_s is None or w_s < warm_s:
            warm_s, warm_tel = w_s, w_tel
    doc = {
        "config": config,
        "cells": cells,
        "cold": {
            "seconds": round(cold_s, 3),
            "cells_per_sec": round(cells / cold_s, 2),
            "cache_stats": cold_tel["cache_stats"],
        },
        # Warm: every cell replays from the result store, so this
        # isolates the analysis + replay overhead.
        "warm": {
            "seconds": round(warm_s, 3),
            "cells_per_sec": round(cells / warm_s, 2),
            "cache_stats": warm_tel["cache_stats"],
        },
    }
    assert doc["warm"]["cache_stats"]["simulated_cells"] == 0, doc
    path = os.path.join(args.out_dir, "BENCH_fig7.json")
    json.dump(doc, open(path, "w"), indent=2)
    print(f"wrote {path}")

    failures = []
    if args.compare:
        failures = compare_fig7(doc, args.compare)

    # --- BENCH_q3.json ----------------------------------------------
    # The server macro benchmark: simulated requests/sec-equivalent
    # per scheme on the composite server/tls mixes. The throughput
    # numbers derive from deterministic simulated cycles (identical
    # every run); only the wall seconds take best-of-N.
    q3_binary = os.path.join(args.build, "bench", "q3_cassandra_lite")
    q3_s = None
    for _ in range(max(1, args.repeat)):
        seconds, q3_workloads, q3_schemes = timed_q3(q3_binary)
        if q3_s is None or seconds < q3_s:
            q3_s = seconds
    doc = {
        "nominal_ghz": NOMINAL_HZ / 1e9,
        "workloads": q3_workloads,
        "seconds": round(q3_s, 3),
        "schemes": q3_schemes,
    }
    path = os.path.join(args.out_dir, "BENCH_q3.json")
    json.dump(doc, open(path, "w"), indent=2)
    print(f"wrote {path}")

    if args.compare_q3:
        failures += compare_q3(doc, args.compare_q3)

    if failures:
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
