"""Smoke test of the benchmark: every workload at a tiny size, with tracing off and on.

Each run must exit 0, pass its output checks, and end with a result line
whose metrics are exactly those BENCHMARK.json names, with the same units.
A copy of the benchmark without the program's sources must exit nonzero
without printing a result.  Run from the root of a checkout::

    python3 perfbench/smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(workload, trace, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(spec, workload, trace, proc):
    problems = []
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"not correct: {proc.stdout.strip()[-1000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"missing {sorted(set(wanted) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(wanted))}")
    for name, metric in got.items():
        value = metric.get("value")
        if metric.get("unit") != wanted.get(name):
            problems.append(f"{name} unit {metric.get('unit')}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"end-to-end {name} is {value}")
    return problems


def check_without_sources(spec):
    """The benchmark alone, without src/, must fail without a result."""
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-smoke-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec["workloads"][0]["name"], 0, bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran without sources: exit {proc.returncode}, "
                f"stdout {proc.stdout.strip()[-300:]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.NAMES):
        failures.append(f"BENCHMARK.json workloads {names} != {workloads.NAMES}")
    for name in names:
        for trace in (0, 1):
            problems = check_result(spec, name, trace, run(name, trace, ROOT))
            status = "ok" if not problems else "FAIL"
            print(f"{name} trace {trace}: {status}")
            failures.extend(f"{name} trace {trace}: {p}" for p in problems)
    problems = check_without_sources(spec)
    print(f"without sources: {'ok' if not problems else 'FAIL'}")
    failures.extend(problems)
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
