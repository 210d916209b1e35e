#!/usr/bin/env python3
"""cdslint: machine checks for cdsflow's written invariants.

The repo's contracts that used to live only in prose (docs/VECTOR_LANES.md,
docs/PROTOCOL.md, docs/CONCURRENCY.md, bench_diff.py's metric table) are
enforced here as an AST-free source lint, registered as a CTest and run in
the CI lint job. Rules:

  fp-contract        The arch/vector-kernel TUs must be compiled with
                     -ffp-contract=off (the bit-parity contract of
                     docs/VECTOR_LANES.md: "plain mul + add" must not be
                     fused into FMAs behind the kernels' back), and no
                     CMake file may enable fast-math anywhere.
  raw-primitives     No raw std::mutex / std::lock_guard / std::unique_lock
                     / std::scoped_lock outside the annotated wrappers in
                     src/common/thread_annotations.hpp, and no raw
                     std::thread outside the ThreadPool and the documented
                     thread owners -- everything else must go through the
                     Clang-thread-safety-annotated vocabulary.
  codec-bounds       In src/net/codec.cpp's decode switch, every frame case
                     must gate the payload through a require_payload_*
                     helper before its first raw byte read, and every
                     length-field read (count / len / lanes) must be
                     followed by a require_count_between gate on that
                     variable (docs/PROTOCOL.md: explicit bounds on every
                     length field).
  float-in-cds       No `float` types or literals in the src/cds pricing
                     paths: the engine's contract is double precision
                     everywhere except the deliberate reduced-precision
                     emulation in src/cds/precision.* (the paper's kSingle
                     study), which is allowlisted.
  level-fork         No comparison with simd::Level::kScalar in src/cds
                     outside the vector_kernel* files: the SIMD level is a
                     parameter of the cds::simd calls, whose kScalar path
                     is the scalar reference arithmetic, so a pricer that
                     branches on it grows a second, hand-fused copy of the
                     column path (docs/VECTOR_LANES.md).
  bench-json-keys    Every metric key bench_diff.py tracks must be written
                     by some bench source under that exact name, and every
                     tracked BENCH_*.json must be produced by the CI bench
                     job -- so a renamed key or dropped bench shows up as a
                     lint failure, not as a silently empty trajectory.

Usage:
  cdslint.py <repo-root>     lint a tree (exit 1 on violations)
  cdslint.py --self-test     run every rule against its seeded-violation
                             fixture tree (exit 1 when a rule fails to fire
                             or fires for the wrong reason)

No third-party dependencies; regex/token level on purpose (no compiler or
clang python bindings needed in CI).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# shared helpers


class Violation:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_cpp(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure.

    Keeps every newline so line numbers survive; replaces the stripped
    bytes with spaces so column-free regexes cannot match into comments or
    literals ("std::mutex" in a doc comment is not a violation).
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2 if i + 1 < n else 1
            out.append(" ")
            continue
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
            out.append(" ")
            continue
        else:
            out.append(c)
            i += 1
            continue
    return "".join(out)


def iter_lines(stripped: str):
    for lineno, line in enumerate(stripped.split("\n"), start=1):
        yield lineno, line


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


def cmake_statements(text: str):
    """Yields (lineno, 'command(args...)') for top-level CMake commands."""
    for match in re.finditer(r"(?m)^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(", text):
        start = match.end() - 1
        depth = 0
        for i in range(start, len(text)):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    lineno = text.count("\n", 0, match.start()) + 1
                    yield lineno, match.group(1), text[match.start():i + 1]
                    break


# --------------------------------------------------------------------------
# rule: fp-contract

ARCH_TUS = (
    "src/cds/vector_kernel_avx2.cpp",
    "src/cds/vector_kernel_avx512.cpp",
)

FAST_MATH_FLAGS = (
    "-ffast-math",
    "-funsafe-math-optimizations",
    "-Ofast",
    "-ffp-contract=fast",
    "-fassociative-math",
    "-freciprocal-math",
)


def rule_fp_contract(root: Path):
    violations = []
    cmake_files = [p for p in [root / "CMakeLists.txt"] if p.is_file()]
    cmake_files += sorted(root.glob("cmake/*.cmake"))
    cmake_files += sorted(root.glob("*/CMakeLists.txt"))
    cmake_files += sorted(root.glob("*/*/CMakeLists.txt"))

    properties_for = {tu: [] for tu in ARCH_TUS}
    for cmake in cmake_files:
        text = read(cmake)
        for lineno, command, statement in cmake_statements(text):
            for flag in FAST_MATH_FLAGS:
                if flag in statement:
                    violations.append(Violation(
                        "fp-contract", cmake, lineno,
                        f"{flag} would break the scalar/vector bit-parity "
                        "contract; fast-math is banned repo-wide"))
            if command != "set_source_files_properties":
                continue
            for tu in ARCH_TUS:
                if Path(tu).name in statement:
                    properties_for[tu].append((cmake, lineno, statement))

    for tu in ARCH_TUS:
        if not (root / tu).is_file():
            continue
        blocks = properties_for[tu]
        if not blocks:
            violations.append(Violation(
                "fp-contract", root / "CMakeLists.txt", 1,
                f"{tu} has no set_source_files_properties block; the arch "
                "TU must be compiled with -ffp-contract=off"))
            continue
        for cmake, lineno, statement in blocks:
            if "-ffp-contract=off" not in statement:
                violations.append(Violation(
                    "fp-contract", cmake, lineno,
                    f"{tu} compile options lack -ffp-contract=off; with "
                    "-mfma in scope the compiler would fuse the kernels' "
                    "plain mul+add into FMAs and break bit parity with the "
                    "scalar reference"))
    return violations


# --------------------------------------------------------------------------
# rule: raw-primitives

LOCK_TOKEN = re.compile(
    r"std::(?:recursive_|shared_|timed_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock)\b")
THREAD_TOKEN = re.compile(r"std::thread\b(?!::)")
MUTEX_INCLUDE = re.compile(r"#\s*include\s*<(?:mutex|shared_mutex)>")

# The annotated vocabulary itself wraps the std types.
LOCK_ALLOWLIST = {"src/common/thread_annotations.hpp"}
# Documented thread owners: the pool's workers and the stream dispatcher
# (both mapped in docs/CONCURRENCY.md). Everything else -- the runtimes'
# lanes, the cluster coordinator's drive tasks -- runs on a ThreadPool,
# normally through runtime::ShardRunner.
THREAD_ALLOWLIST = {
    "src/runtime/thread_pool.hpp",
    "src/runtime/thread_pool.cpp",
    "src/runtime/stream_runtime.hpp",
    "src/runtime/stream_runtime.cpp",
}


def rule_raw_primitives(root: Path):
    violations = []
    files = sorted((root / "src").rglob("*.[hc]pp")) if (root / "src").is_dir() else []
    if (root / "tools").is_dir():
        files += sorted((root / "tools").rglob("*.[hc]pp"))
    seen = set()
    for path in files:
        if path in seen:
            continue
        seen.add(path)
        rel = path.relative_to(root).as_posix()
        # The linter's own seeded-violation fixtures are deliberate
        # negatives, exercised by --self-test, not part of the tree.
        if rel.startswith("tools/cdslint/fixtures/"):
            continue
        stripped = strip_cpp(read(path))
        for lineno, line in iter_lines(stripped):
            if rel not in LOCK_ALLOWLIST:
                m = LOCK_TOKEN.search(line)
                if m:
                    violations.append(Violation(
                        "raw-primitives", path, lineno,
                        f"raw {m.group(0)}; use the annotated cdsflow::Mutex"
                        " / MutexLock / UniqueLock wrappers from "
                        "common/thread_annotations.hpp so Clang's "
                        "thread-safety analysis can see the lock"))
                if MUTEX_INCLUDE.search(line):
                    violations.append(Violation(
                        "raw-primitives", path, lineno,
                        "direct <mutex> include; include "
                        "common/thread_annotations.hpp instead"))
            if rel not in THREAD_ALLOWLIST and rel not in LOCK_ALLOWLIST:
                if THREAD_TOKEN.search(line):
                    violations.append(Violation(
                        "raw-primitives", path, lineno,
                        "raw std::thread outside the documented thread "
                        "owners (ThreadPool, stream dispatcher); run work "
                        "on a ThreadPool, normally through "
                        "runtime::ShardRunner, instead"))
    return violations


# --------------------------------------------------------------------------
# rule: codec-bounds

LENGTH_READ = re.compile(
    r"std::uint(?:16|32|64)_t\s+(\w*(?:count|len|lanes)\w*)\s*=\s*get_u\d+\s*\(")
CASE_SPLIT = re.compile(r"case\s+FrameType::(\w+)\s*:")
RAW_READ = re.compile(r"\bget_(?:u16|u32|u64|i32|f64)\s*\(")
REQUIRE_GATE = re.compile(r"\brequire_payload_\w+\s*\(")
COUNT_GATE_WINDOW = 6  # lines within which the require_count gate must appear


def rule_codec_bounds(root: Path):
    codec = root / "src" / "net" / "codec.cpp"
    if not codec.is_file():
        return []
    violations = []
    stripped = strip_cpp(read(codec))
    lines = stripped.split("\n")

    # Scope: FrameReader::feed's decode switch (everything after the first
    # `switch (frame.type)`), where payload bytes are interpreted.
    switch_at = next((i for i, l in enumerate(lines)
                      if "switch (frame.type)" in l), None)
    if switch_at is None:
        violations.append(Violation(
            "codec-bounds", codec, 1,
            "decode switch `switch (frame.type)` not found; the "
            "codec-bounds rule no longer matches the decoder structure"))
        return violations

    # Per-case: a require_payload_* gate must come before the first raw
    # byte read of the case.
    case_marks = [(i, m.group(1)) for i, l in enumerate(lines)
                  for m in [CASE_SPLIT.search(l)] if m and i >= switch_at]
    for idx, (start, name) in enumerate(case_marks):
        end = case_marks[idx + 1][0] if idx + 1 < len(case_marks) else len(lines)
        first_read = None
        first_gate = None
        for i in range(start, end):
            if first_read is None and RAW_READ.search(lines[i]):
                first_read = i
            if first_gate is None and REQUIRE_GATE.search(lines[i]):
                first_gate = i
        if first_read is not None and (first_gate is None
                                       or first_gate > first_read):
            violations.append(Violation(
                "codec-bounds", codec, first_read + 1,
                f"case {name}: raw payload read before any "
                "require_payload_* bounds gate"))

    # Per length-field read: the variable must be vetted by
    # require_count_between within the next few lines.
    for i in range(switch_at, len(lines)):
        m = LENGTH_READ.search(lines[i])
        if not m:
            continue
        var = m.group(1)
        window = "\n".join(lines[i:i + 1 + COUNT_GATE_WINDOW])
        if not re.search(r"require_count_between\s*\(\s*" + re.escape(var),
                         window):
            violations.append(Violation(
                "codec-bounds", codec, i + 1,
                f"length field '{var}' read without a require_count_between"
                f" gate within {COUNT_GATE_WINDOW} lines"))
    return violations


# --------------------------------------------------------------------------
# rule: float-in-cds

FLOAT_TYPE = re.compile(r"\bfloat\b")
FLOAT_LITERAL = re.compile(r"\b\d+(?:\.\d*)?(?:[eE][+-]?\d+)?f\b")
FLOAT_ALLOWLIST = {"src/cds/precision.hpp", "src/cds/precision.cpp"}


def rule_float_in_cds(root: Path):
    violations = []
    cds = root / "src" / "cds"
    if not cds.is_dir():
        return []
    for path in sorted(cds.rglob("*.[hc]pp")):
        rel = path.relative_to(root).as_posix()
        if rel in FLOAT_ALLOWLIST:
            continue
        stripped = strip_cpp(read(path))
        for lineno, line in iter_lines(stripped):
            m = FLOAT_TYPE.search(line) or FLOAT_LITERAL.search(line)
            if m:
                violations.append(Violation(
                    "float-in-cds", path, lineno,
                    f"'{m.group(0)}' in a pricing path: src/cds is "
                    "double-precision by contract; reduced precision lives "
                    "only in the deliberate src/cds/precision.* emulation"))
    return violations


# --------------------------------------------------------------------------
# rule: level-fork

# Binary operators are clang-formatted with spaces on both sides; requiring
# them keeps template arguments such as `<Level::kScalar>` out of the match.
COMPARE_OP = r"(?:==|!=|<=|>=|<|>)"
LEVEL_COMPARE = re.compile(
    r"\s" + COMPARE_OP + r"\s*(?:[A-Za-z_]\w*::)*Level::kScalar\b"
    r"|\bLevel::kScalar\s*" + COMPARE_OP + r"\s")


def rule_level_fork(root: Path):
    violations = []
    cds = root / "src" / "cds"
    if not cds.is_dir():
        return []
    for path in sorted(cds.rglob("*.[hc]pp")):
        if path.name.startswith("vector_kernel"):
            continue
        stripped = strip_cpp(read(path))
        for lineno, line in iter_lines(stripped):
            if LEVEL_COMPARE.search(line):
                violations.append(Violation(
                    "level-fork", path, lineno,
                    "comparison with Level::kScalar outside cds::simd: pass "
                    "the level to the cds::simd call instead; its kScalar "
                    "path already runs the scalar reference arithmetic"))
    return violations


# --------------------------------------------------------------------------
# rule: bench-json-keys

METRIC_FILE = re.compile(r'^\s*"(BENCH_[^"]+\.json)"\s*:')
METRIC_KEY = re.compile(r'^\s*\("([^"]+)"\s*,')


def parse_metrics(bench_diff: Path):
    metrics = {}
    current = None
    for line in read(bench_diff).split("\n"):
        m = METRIC_FILE.search(line)
        if m:
            current = m.group(1)
            metrics[current] = []
            continue
        m = METRIC_KEY.search(line)
        if m and current is not None:
            metrics[current].append(m.group(1))
    return metrics


def rule_bench_json_keys(root: Path):
    bench_diff = root / "scripts" / "bench_diff.py"
    bench_dir = root / "bench"
    if not bench_diff.is_file() or not bench_dir.is_dir():
        return []
    violations = []
    metrics = parse_metrics(bench_diff)
    if not metrics:
        violations.append(Violation(
            "bench-json-keys", bench_diff, 1,
            "no METRICS entries parsed; the bench-json-keys rule no longer "
            "matches bench_diff.py's table format"))
        return violations
    bench_text = "\n".join(read(p) for p in sorted(bench_dir.glob("*.cpp")))
    ci = root / ".github" / "workflows" / "ci.yml"
    ci_text = read(ci) if ci.is_file() else ""
    for fname, keypaths in metrics.items():
        if ci_text and fname not in ci_text:
            violations.append(Violation(
                "bench-json-keys", bench_diff, 1,
                f"{fname} is tracked by bench_diff.py but never produced or "
                "uploaded by the CI bench job"))
        for keypath in keypaths:
            for component in keypath.split("."):
                component = component.removesuffix("[*]")
                # The bench writers emit JSON by hand, so the key appears
                # as a (possibly escape-quoted) string literal.
                if not re.search(r'\\?"' + re.escape(component) + r'\\?"',
                                 bench_text):
                    violations.append(Violation(
                        "bench-json-keys", bench_diff, 1,
                        f"tracked key '{keypath}' ({fname}): no bench "
                        f"source writes \"{component}\" -- the trajectory "
                        "diff would silently report n/a"))
    return violations


# --------------------------------------------------------------------------
# driver

RULES = {
    "fp-contract": rule_fp_contract,
    "raw-primitives": rule_raw_primitives,
    "codec-bounds": rule_codec_bounds,
    "float-in-cds": rule_float_in_cds,
    "level-fork": rule_level_fork,
    "bench-json-keys": rule_bench_json_keys,
}


def lint(root: Path):
    violations = []
    for rule in RULES.values():
        violations.extend(rule(root))
    return violations


def self_test() -> int:
    fixtures = Path(__file__).resolve().parent / "fixtures"
    failures = 0
    for rule_name in RULES:
        tree = fixtures / rule_name.replace("-", "_")
        if not tree.is_dir():
            print(f"self-test: FIXTURE MISSING for rule {rule_name}: {tree}")
            failures += 1
            continue
        violations = lint(tree)
        fired = {v.rule for v in violations}
        if rule_name not in fired:
            print(f"self-test: rule {rule_name} did NOT fire on its seeded "
                  f"violation fixture {tree}")
            failures += 1
        else:
            hits = [v for v in violations if v.rule == rule_name]
            print(f"self-test: {rule_name}: OK "
                  f"({len(hits)} violation(s) detected)")
        unexpected = fired - {rule_name}
        if unexpected:
            print(f"self-test: fixture {tree} also tripped {unexpected}; "
                  "fixtures must be minimal (one rule each)")
            failures += 1
    if failures:
        print(f"self-test: {failures} failure(s)")
        return 1
    print("self-test: all rules fire on their fixtures")
    return 0


def main(argv) -> int:
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 2:
        print(__doc__)
        return 2
    root = Path(argv[1]).resolve()
    if not root.is_dir():
        print(f"cdslint: not a directory: {root}")
        return 2
    violations = lint(root)
    for v in violations:
        print(v)
    if violations:
        print(f"cdslint: {len(violations)} violation(s)")
        return 1
    print("cdslint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
