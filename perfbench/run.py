"""splitstudy benchmark: time to the finished report, memory and failures.

Run from the repository root:

    python3 perfbench/run.py --workload wide200 --seed 1 --seconds 20 --trace 0

The workloads, the metrics and their units are declared in BENCHMARK.json.
One run

1. generates the workload's four input CSVs for the seed, once per seed,
   under .perfbench/ (see universes.py);
2. with ``--trace 0``, times cold-interpreter imports of ``splitstudy.cli``
   and ``splitstudy.report`` in fresh processes (``setup_s``);
3. starts a fresh measured process (worker.py) that runs the engine in a
   closed loop for about ``--seconds`` and checks every repetition's
   outputs;
4. prints the figures, the machine, the output digests and, as its last
   line, the result as JSON: the end-to-end metrics with ``--trace 0``,
   the per-layer metrics with ``--trace 1``.

It exits non-zero without a result when the engine's sources are missing
or the measured process does not finish.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 15
# Each run must end within 180 s; leave room to report after the worker.
WORKER_DEADLINE_S = 165
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import splitstudy.cli, splitstudy.report; "
    "print(time.perf_counter() - t)"
)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile above the median with at least ten
    samples beyond it, if the sample count supports one."""
    n = len(values)
    pct = math.floor(100 * (1 - 10 / n))
    if pct <= 50:
        return None
    return pct, sorted(values)[math.ceil(pct / 100 * n) - 1]


def measure_setup(env: dict) -> list[float]:
    """Cold-interpreter import times; the first, which may compile, is dropped."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip()))
    return samples[1:]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "splitstudy" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import universes

    if args.workload not in universes.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))

    inputs = WORK / args.workload / f"seed-{args.seed}"
    if not (inputs / "truth.json").exists():
        universes.write_universe(args.workload, args.seed, inputs)
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    setup = [] if args.trace else measure_setup(env)

    run_dir = inputs / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    spans = WORK / "traces" / f"{args.workload}-seed{args.seed}.csv"
    # The worker forks a child per repetition; a session of their own lets
    # a timeout stop them all.
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--truth", "../truth.json",
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--result", "result.json", "--spans", str(spans)],
        cwd=run_dir, env=env, start_new_session=True,
    )
    try:
        worker.wait(timeout=max(10.0, WORKER_DEADLINE_S - (time.perf_counter() - started)))
        if worker.returncode != 0:
            raise RuntimeError(f"exit code {worker.returncode}")
        result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"error: measured process did not finish: {exc}", file=sys.stderr)
        stop_group(worker)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(
        f"workload {args.workload} seed {args.seed}: {truth['n_bars']} bars, "
        f"{truth['n_events']} splits, {len(truth['samples'])} samples, "
        f"{len(truth['excluded'])} excluded, volume basis {truth['volume_basis']}"
    )
    print("machine " + json.dumps(machine()))
    for error in result["errors"][:20]:
        print(f"FAILED {error.rstrip()}")
    attempted, failed = result["attempted"], result["failed"]

    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} repetitions)")
    if not result["run_s"] or (args.trace and not result["layers"]):
        print("error: no successful repetition to measure", file=sys.stderr)
        return 1
    if result["missing_spans"]:
        # A layer the tracer cannot see would read 0, which looks like a gain.
        print(f"error: no span for {', '.join(result['missing_spans'])}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = layer_figures(result)
        names = declared["per_layer"]
    else:
        metrics = {
            "run_s": statistics.median(result["run_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        names = declared["end_to_end"]
        print_spread("run_s", result["run_s"], "s", "repetitions")
        print_spread("setup_s", setup, "s", "cold imports")
    for name, digest in result["digests"].items():
        print(f"sha256 {digest} {name}")
    for metric in names:
        value = metrics[metric["name"]]
        shown = f"{value:.6g}" if isinstance(value, float) and not value.is_integer() else f"{value:.0f}"
        print(f"{metric['name']} {shown} {metric['unit']}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names
        },
    }))
    return 0


def stop_group(worker: subprocess.Popen) -> None:
    """Kill the worker's session and wait until none of its processes is left."""
    try:
        os.killpg(worker.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    worker.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(worker.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def print_spread(name: str, values: list[float], unit: str, what: str) -> None:
    if not values:
        print(f"{name}: no successful {what}")
        return
    q1, median, q3 = quartiles(values)
    line = f"{name} median {median:.6f} {unit}, q1 {q1:.6f}, q3 {q3:.6f}, n {len(values)} {what}"
    tail = tail_percentile(values)
    if tail:
        line += f", p{tail[0]} {tail[1]:.6f}"
    print(line)


def layer_figures(result: dict) -> dict[str, float]:
    """Median of each per-layer metric over the traced repetitions."""
    reps = result["layers"]
    figures = {name: statistics.median(r[name] for r in reps) for name in reps[0]}
    figures["trace.overhead_s"] = (
        statistics.median(result["traced_s"]) - statistics.median(result["run_s"])
    )
    return figures


if __name__ == "__main__":
    sys.exit(main())
