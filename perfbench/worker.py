"""The measured process: runs one workload in a closed loop and checks it.

Started by ``run.py`` in a fresh interpreter whose working directory is a
scratch run directory beside the workload's inputs, so that every
repetition, and every run of the same seed, passes the engine the same
relative paths (``../bars.csv``, ``out``) and writes byte-identical files.

Each repetition runs the engine the way the CLI does with ``--emit all``:
``report.run_pipeline`` and then ``report.emit`` with json and csv. The
next one starts when the previous one has ended, in an emptied output
directory. Each runs in a child forked from this process after its
imports, so each starts from the same state, as a CLI invocation does.
The child times the repetition; the checks and the clearing are not
timed. With ``--trace 1`` the repetitions alternate between traced and
untraced, so the tracing overhead is measured on the same machine state.

Usage: python3 worker.py --truth ../truth.json --seconds 20 --trace 0
           --result result.json [--spans spans.csv]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import time
import traceback
from pathlib import Path

import splitstudy.report as report

from tracing import SPANS, Tracer, layer_metrics, write_spans

EXPECTED_FILES = {"report.json"} | {
    f"{name}.csv"
    for name in ("table1", "table2", "table3", "betas", *(f"fig{i}" for i in range(1, 17)))
}
VOLUME_KEYS = (("h1", "volume_comparison"), ("h3", "volume_comparison_90"),
               ("h3", "volume_comparison_half_year"))


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def check_outputs(out_dir: Path, truth: dict) -> list[str]:
    """Problems with one repetition's outputs against the ground truth."""
    names = {p.name for p in out_dir.iterdir()}
    if names != EXPECTED_FILES:
        return [f"files written {sorted(names ^ EXPECTED_FILES)} differ from expected"]
    try:
        doc = json.loads(
            (out_dir / "report.json").read_text(encoding="utf-8"),
            parse_constant=_reject_constant,
        )
    except ValueError as exc:
        return [f"report.json is not strict JSON: {exc}"]

    try:
        return _check_report(doc, truth)
    except (KeyError, TypeError) as exc:
        return [f"report.json lacks an expected field: {exc!r}"]


def _check_report(doc: dict, truth: dict) -> list[str]:
    problems = []
    ids = [s["id"] for s in doc["samples"]]
    if ids != truth["samples"] or doc["aggregate"]["n_samples"] != len(ids):
        problems.append(f"{len(ids)} samples, expected {len(truth['samples'])}")
    excluded = [e["sample"] for e in doc["exclusions"]]
    if excluded != truth["excluded"]:
        problems.append(f"excluded {excluded}, expected {truth['excluded']}")
    for sample in doc["samples"]:
        expected = truth["volumes"].get(sample["id"], {})
        for section, key in VOLUME_KEYS:
            got = sample[section][key]
            want = expected.get(key)
            if got is None or [got["before_total"], got["after_total"]] != want \
                    or got["basis"] != truth["volume_basis"]:
                problems.append(f"{sample['id']} {key}: totals differ from {want}")
    return problems


def digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def missing_spans(missing: list[str], seen: set[str], truth: dict) -> list[str]:
    """Spans whose function the tracer could not find, or that no traced
    repetition entered. split_adjust runs only on the adjusted basis."""
    skipped = {"adjust.split_adjust"} if truth["volume_basis"] == "raw" else set()
    never = [name for name, *_ in SPANS if name not in seen | skipped | set(missing)]
    return missing + [f"{name} (never called)" for name in never]


def run_forked(config: report.RunConfig, out: Path, tracer: Tracer | None) -> dict:
    """Run the engine once in a forked child and return what it measured.

    Every repetition thus starts from the state this process reached after
    its imports, as a CLI invocation does; repetitions in one process would
    inherit the previous ones' heap and slow down from one to the next.
    """
    read_fd, write_fd = os.pipe()
    gc.collect()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            measured = measure(config, out, tracer)
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(measured, fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        data = fh.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not data:
        return {"error": f"repetition process exited with code {code}"}
    return json.loads(data)


def measure(config: report.RunConfig, out: Path, tracer: Tracer | None) -> dict:
    """One repetition: its wall seconds, and its trace if traced."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        written = report.emit(report.run_pipeline(config), out, ("json", "csv"))
        wall = time.perf_counter() - t0
    except Exception:
        return {"error": traceback.format_exc(limit=3)}
    measured = {"wall": wall}
    if tracer is not None:
        tracer.counts["report.emit.files"] = len(written)
        tracer.counts["report.emit.bytes"] = sum(Path(p).stat().st_size for p in written)
        measured["layers"] = layer_metrics(tracer.spans, tracer.counts, wall)
        measured["spans"] = tracer.spans
        measured["missing"] = tracer.missing
    return measured


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--truth", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    truth = json.loads(args.truth.read_text(encoding="utf-8"))
    inputs = args.truth.parent
    config = report.RunConfig(
        bars=str(inputs / "bars.csv"),
        splits=str(inputs / "splits.csv"),
        fundamentals=str(inputs / "fundamentals.csv"),
        rates=str(inputs / "rates.csv"),
        out="out",
        params=report.RunParams(volume_basis=truth["volume_basis"]),
    )
    out, ref = Path("out"), Path("ref")
    tracer = Tracer() if args.trace else None

    run_s, traced_s = [], []
    layer_reps, span_reps, errors = [], [], []
    missing, seen_spans = [], set()
    ref_digests = None
    identical = 0  # repetitions byte-identical to the reference outputs
    attempted = 0
    last = 0.0
    start = time.perf_counter()
    # Start another repetition unless it would more likely end past the
    # deadline than before it, so a run lasts about --seconds whatever the
    # repetition's length.
    while attempted < (2 if tracer else 1) or \
            time.perf_counter() - start + last / 2 < args.seconds:
        traced = tracer is not None and attempted % 2 == 0
        attempted += 1
        began = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        rep = run_forked(config, out, tracer if traced else None)
        last = time.perf_counter() - began
        if "error" in rep:
            errors.append(f"rep {attempted}: {rep['error']}")
            continue
        current = digests(out)
        if ref_digests is None:
            shutil.copytree(out, ref)
            ref_digests = current
        if current != ref_digests:
            errors.append(f"rep {attempted}: outputs differ from the first repetition")
            continue
        identical += 1
        if traced:
            traced_s.append(rep["wall"])
            layer_reps.append(rep["layers"])
            span_reps.append(rep["spans"])
            seen_spans.update(span[0] for span in rep["spans"])
            missing = rep["missing"]
        else:
            run_s.append(rep["wall"])
    # The largest peak of any repetition's process.
    peak_rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    # Every successful repetition wrote the reference bytes, so checking the
    # reference once checks each of them.
    problems = check_outputs(ref, truth) if ref_digests else ["no repetition completed"]
    if problems:
        errors.extend(problems)
        identical = 0
    if args.spans and span_reps:
        write_spans(args.spans, span_reps)
    result = {
        "attempted": attempted,
        "failed": attempted - identical,
        "errors": errors,
        "run_s": run_s,
        "traced_s": traced_s,
        "layers": layer_reps,
        "missing_spans": missing_spans(missing, seen_spans, truth) if tracer else [],
        "peak_rss_mb": peak_rss_kib / 1024,
        "digests": ref_digests or {},
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
