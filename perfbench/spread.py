"""Run the benchmark over several seeds and record each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--trace 0] [--out .perfbench/spread.json]

For every workload in BENCHMARK.json it runs ``run.py`` with seeds 1 to
``--runs`` and the declared ``run_seconds``, one run after another, and
prints each metric's median, quartiles and interquartile range as a share
of the median, next to a third of the metric's bound. It writes the
per-run values, the quartiles and the machine record to ``--out`` as
JSON. Exits 1 if a run fails or reports a failed repetition.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORK, machine, quartiles


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=WORK / "spread.json")
    args = parser.parse_args()

    seconds = declared["run_seconds"]
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    record = {"machine": machine(), "seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in declared["workloads"]):
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        for seed in range(1, args.runs + 1):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if result["failed"] or not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
                ok = False
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        summary = {}
        for m in metrics:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, median, q3 = quartiles(vals)
            share = (q3 - q1) / median if median else float("nan")
            summary[m["name"]] = {"values": vals, "q1": q1, "median": median, "q3": q3,
                                  "iqr_share": share}
            target = f"  (a third of bound {m['bound'] / 3:.4f})" if "bound" in m else ""
            print(f"{workload:14s} {m['name']:30s} median {median:.6g} {m['unit']} "
                  f"q1 {q1:.6g} q3 {q3:.6g} iqr/median {share:.4f}{target}")
        record["workloads"][workload] = summary
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
