"""Smoke test of the benchmark harness itself.

    python3 perfbench/smoke.py

Runs ``run.py`` on a three-ticker universe with ``--seconds 0`` (one
repetition; one traced and one untraced with ``--trace 1``) and checks
that the last line is the result object, that it carries exactly the
metrics BENCHMARK.json declares, every one a finite number, and that no
repetition failed. It also installs the tracer in this process and checks
that every function it wraps was found; the traced run itself fails when a
span is missing or never entered. Exits 1 and says why otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

from run import ROOT


def check(trace: int, declared: dict) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "tiny",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return [f"trace {trace}: exit {done.returncode}: {done.stderr.strip()}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"trace {trace}: {result['failed']} of {result['attempted']} failed")
    expected = declared["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in expected}:
        problems.append(f"trace {trace}: metrics {sorted(result['metrics'])}")
    for m in expected:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"trace {trace}: {m['name']} = {got}")
    return problems


def check_hooks() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    import splitstudy.report  # noqa: F401  (loads every module the tracer wraps)
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    return [f"tracer: no hook for {name}" for name in tracer.missing]


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_hooks() + check(0, declared) + check(1, declared)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
