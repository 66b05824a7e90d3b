"""Byte-identity of report.json and all 20 CSVs on pinned demo runs.

Each case runs the demo universe of one seed on one volume basis and one
beta variant, in an empty working directory with relative paths, and
compares the sha256 of every emitted file with ``golden_digests.json``.
A refactor that changes one output byte fails here.

Regenerate the digests only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from splitstudy.report import RunConfig, RunParams, emit, run_pipeline

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
CASES = [
    (seed, volume_basis, beta_variant)
    for seed in (0, 1, 2)
    for volume_basis in ("raw", "adjusted")
    for beta_variant in ("cov", "corr")
]


def _case_id(seed: int, volume_basis: str, beta_variant: str) -> str:
    return f"seed{seed}-{volume_basis}-{beta_variant}"


def run_digests(seed: int, volume_basis: str, beta_variant: str) -> dict[str, str]:
    """sha256 of each file one demo run writes into ./out."""
    config = RunConfig(
        out="out",
        seed=seed,
        params=RunParams(volume_basis=volume_basis, beta_variant=beta_variant),
    )
    written = emit(run_pipeline(config), config.out)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(written)
    }


@pytest.mark.parametrize(
    "seed,volume_basis,beta_variant", CASES, ids=[_case_id(*c) for c in CASES]
)
def test_outputs_match_golden_digests(
    tmp_path, monkeypatch, seed, volume_basis, beta_variant
):
    expected = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    got = run_digests(seed, volume_basis, beta_variant)
    assert len(got) == 21
    assert got == expected[_case_id(seed, volume_basis, beta_variant)]


if __name__ == "__main__":
    digests = {}
    origin = os.getcwd()
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                digests[_case_id(*case)] = run_digests(*case)
            finally:
                os.chdir(origin)
    DIGEST_FILE.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(digests)} cases to {DIGEST_FILE}\n")
