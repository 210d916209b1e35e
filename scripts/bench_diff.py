#!/usr/bin/env python3
"""Warn-only bench trajectory diff for CI.

Compares the BENCH_*.json files of the current run against the previous
run's `bench-trajectory` artifact and prints a delta table. Never fails the
build: perf on shared CI runners is noisy, so this surfaces regressions in
the log for a human to judge.

Usage: bench_diff.py <previous-dir> <current-dir>
"""

import json
import math
import sys
from pathlib import Path

# Headline metric per bench JSON: (json key path, higher-is-better). A path
# segment "array[*]" maps over a list and the max of the leaf values is
# compared (used for the scaling curve's best point).
METRICS = {
    "BENCH_runtime_scaling.json": [
        ("baseline_options_per_second", True),
        ("points[*].modelled_options_per_second", True),
    ],
    "BENCH_cpu_fastpath.json": [
        ("single_thread_speedup", True),
    ],
    "BENCH_cpu_risk.json": [
        ("single_thread_speedup", True),
        ("max_rel_error", False),
    ],
    "BENCH_stream_ingest.json": [
        ("batches_per_second", True),
        ("steady_state_ratio", True),
        ("p50_ingest_to_result_us", False),
        ("p99_ingest_to_result_us", False),
    ],
    # SIMD vector kernel vs the scalar batch kernel, single thread; the
    # risk pass reuses the tabulated columns so it tracks separately.
    # shard64_vs_whole is the continuous book priced as 64-option calls
    # over one whole-book call: per-call overhead at shard size.
    "BENCH_cpu_vector.json": [
        ("single_thread_speedup", True),
        ("risk_speedup", True),
        ("shard64_vs_whole", False),
    ],
    # worst_accuracy_distance is max(ratio, 1/ratio) over the measured CPU
    # plans -- the lower-is-better distance of plan projections from 1.0x.
    "BENCH_planner.json": [
        ("worst_accuracy_distance", False),
        ("chosen_plan_wall_options_per_second", True),
    ],
    # Scenario-sweep engine (one book x N scenarios on shared grids) vs the
    # naive per-scenario BatchPricer loop, single thread at the active level.
    "BENCH_scenario_sweep.json": [
        ("single_thread_speedup", True),
        ("sweep_scenarios_per_second", True),
    ],
    # Multi-tenant pricing service over a loopback socket: end-to-end
    # request throughput and the service-clock latency percentiles.
    "BENCH_service.json": [
        ("requests_per_second", True),
        ("p50_request_us", False),
        ("p99_request_us", False),
    ],
    # Multi-process socket cluster (src/cluster): per-point modelled
    # throughput plus the 2-node-vs-1-node modelled scaling ratio.
    "BENCH_cluster_scaling.json": [
        ("points[*].modelled_options_per_second", True),
        ("modelled_scaling_2v1", True),
    ],
}

WARN_THRESHOLD = 0.10  # flag drops beyond 10%


def lookup(obj, dotted):
    parts = dotted.split(".")
    for i, part in enumerate(parts):
        if part.endswith("[*]"):
            items = obj.get(part[:-3]) if isinstance(obj, dict) else None
            rest = ".".join(parts[i + 1:])
            if not isinstance(items, list) or not items or not rest:
                return None
            values = [lookup(item, rest) for item in items]
            return None if any(v is None for v in values) else max(values)
        if not isinstance(obj, dict) or part not in obj:
            return None
        obj = obj[part]
    return obj if isinstance(obj, (int, float)) else None


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 0
    prev_dir, cur_dir = Path(sys.argv[1]), Path(sys.argv[2])
    if not prev_dir.is_dir():
        print(f"no previous artifact at {prev_dir}; skipping bench diff")
        return 0
    if not any(prev_dir.glob("BENCH_*.json")):
        # The artifact download can succeed yet deliver an empty directory
        # (first run on a branch, expired artifact): not an error.
        print(f"no prior trajectory in {prev_dir}; "
              "current run seeds the baseline")
        return 0

    rows = []
    for name, metrics in METRICS.items():
        prev_path, cur_path = prev_dir / name, cur_dir / name
        if not cur_path.is_file():
            rows.append((name, "-", "-", "-", "not produced by this run"))
            continue
        if not prev_path.is_file():
            rows.append((name, "-", "-", "-", "new bench (no baseline)"))
            continue
        try:
            prev, cur = (json.loads(p.read_text())
                         for p in (prev_path, cur_path))
        except (json.JSONDecodeError, OSError) as err:
            rows.append((name, "-", "-", "-", f"unreadable JSON: {err}"))
            continue
        for key, higher_is_better in metrics:
            a, b = lookup(prev, key), lookup(cur, key)
            if a is None or b is None:
                rows.append((f"{name}:{key}", a, b, "-", "metric missing"))
                continue
            if a == 0 or not math.isfinite(a) or not math.isfinite(b):
                delta, note = "-", "baseline zero/non-finite"
            else:
                change = (b - a) / abs(a)
                delta = f"{change:+.1%}"
                regressed = change < -WARN_THRESHOLD if higher_is_better \
                    else change > WARN_THRESHOLD
                note = "WARNING: regression" if regressed else ""
            rows.append((f"{name}:{key}", f"{a:.6g}", f"{b:.6g}", delta,
                         note))

    widths = [max(len(str(r[i])) for r in rows + [("metric", "prev",
              "current", "delta", "")]) for i in range(5)]
    header = ("metric", "prev", "current", "delta", "")
    for row in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip())
    print("\n(warn-only: CI runner perf is noisy; deltas beyond "
          f"{WARN_THRESHOLD:.0%} are flagged, never gated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
