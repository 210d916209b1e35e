#!/usr/bin/env python3
"""Build and run one workload of the cdsflow benchmark.

    python3 perfbench/run.py --workload intraday|eod|quotes|cluster \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
library and the benchmark (Release) under .bench_build/; later calls only
check that the build is current. The benchmark binary prints a human table,
then this script validates the metric names against BENCHMARK.json, records
the run with its provenance under .bench_results/, and prints as its last
line the result object: correct, attempted, failed and metrics (each a
value with its unit). A failed output gate, an invalid run or a refused
build prints no result and exits non-zero. See perfbench/NOTES.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_results"
NAME = re.compile(r"[A-Za-z0-9_.-]+")
BUILD_TIMEOUT_S = 700  # with the first run, within 900 s
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", flush=True)
    sys.exit(code)


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail("no cdsflow sources (src/, CMakeLists.txt) next to perfbench/")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                      "--target", "cdsbench", "cdsbench_selftest"])
        with open(log, "w") as out:
            for step in steps:
                try:
                    rc = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S).returncode
                except subprocess.TimeoutExpired:
                    rc = -1
                if rc != 0:
                    out.flush()
                    tail = log.read_text().splitlines()[-30:]
                    print("\n".join(tail))
                    fail(f"build failed: {' '.join(step[:2])} (log {log})")


def source_digest():
    h = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def flag_simd_mismatch(provenance):
    """Marks the record when earlier results in this checkout ran at another
    SIMD level: their figures are not comparable with this run's."""
    provenance["simd_mismatch"] = False
    for other in sorted(RESULTS.glob("result-*.json")):
        try:
            level = json.loads(other.read_text())["provenance"]["simd_level"]
        except (OSError, ValueError, KeyError):
            continue
        if level != provenance["simd_level"]:
            provenance["simd_mismatch"] = True
            print(f"WARNING: SIMD level {provenance['simd_level']} differs from "
                  f"{level} in {other.name}; do not compare these runs")


def self_test():
    build()
    ok = subprocess.run([str(BUILD / "cdsbench_selftest")]).returncode == 0
    listed = subprocess.run([str(BUILD / "cdsbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout
    emitted = {"end_to_end": {}, "per_layer": {}, "printed": {}}
    for line in listed.splitlines():
        kind, name, unit = line.split()
        if not NAME.fullmatch(name) or len(name) > 64:
            print(f"FAIL: metric name {name!r} is not [A-Za-z0-9_.-]+ (max 64)")
            ok = False
        if name in emitted["end_to_end"] or name in emitted[kind]:
            print(f"FAIL: metric {name} listed twice")
            ok = False
        emitted[kind][name] = unit
    end_to_end, per_layer = declared_metrics()
    for kind, declared in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        if emitted[kind] != declared:
            print(f"FAIL: {kind} metrics emitted {sorted(emitted[kind].items())} "
                  f"but BENCHMARK.json declares {sorted(declared.items())}")
            ok = False
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        if not NAME.fullmatch(w["name"]):
            print(f"FAIL: workload name {w['name']!r}")
            ok = False
    print("metric names: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")

    build()
    end_to_end, per_layer = declared_metrics()
    RESULTS.mkdir(exist_ok=True)
    cmd = [str(BUILD / "cdsbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(RESULTS)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    result_line = lines.pop() if lines and lines[-1].startswith("RESULT ") else None
    print("\n".join(lines))
    if proc.stderr:
        print(proc.stderr, end="", file=sys.stderr)
    if proc.returncode != 0 or result_line is None:
        fail(f"{args.workload} failed (exit {proc.returncode}); no metrics", 1)

    record = json.loads(result_line[len("RESULT "):])
    declared = per_layer if args.trace else end_to_end
    emitted = record["metrics"]
    for name, metric in emitted.items():
        if not NAME.fullmatch(name) or declared.get(name) != metric["unit"]:
            fail(f"metric {name} ({metric['unit']}) is not declared in BENCHMARK.json")
    missing = sorted(set(declared) - set(emitted))
    if missing:
        fail(f"metrics declared but not measured: {missing}")

    provenance = record["provenance"]
    provenance.update(git_sha=git_sha(), source_sha256=source_digest(),
                      nproc_os=os.cpu_count(), wall_s=round(time.monotonic() - started, 3))
    flag_simd_mismatch(provenance)
    out = RESULTS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("provenance: " + json.dumps(provenance))
    print(json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in emitted.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
