"""The engine's float reductions against NumPy, bit for bit, and its imports.

The engine computes its means, moments, OLS sums and returns in plain
Python; the NumPy versions in ``oracles`` are what it must reproduce.
Results are compared with ``float.hex`` so that ``-0.0`` and ``0.0`` differ.
"""

import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import splitstudy
from splitstudy.errors import DataError
from splitstudy.returns import (
    CORRELATION,
    COVARIANCE,
    beta,
    covariance,
    pairwise_sum,
    pct_change_series,
    variance,
)
from splitstudy.volume import ols_fit

from oracles import (
    numpy_beta,
    numpy_covariance,
    numpy_ols_fit,
    numpy_pct_change_series,
    numpy_variance,
)

# Mixed magnitudes in one list make the result depend on the order of every
# addition; returns-sized values are what the engine sees.
NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-0.1, max_value=0.1),
    st.floats(min_value=-1e6, max_value=1e6),
    st.just(-0.0),
    st.integers(min_value=-(2**62), max_value=2**62),
)


@st.composite
def numbers(draw, min_size, max_size=300):
    """Lists of every length up to 300 alike, so that each branch of
    ``pairwise_sum`` (below 8, 8 to 128, split in two) is drawn often.

    A seeded generator fills the list at one scale, or at mixed ones, and
    up to ten drawn ``NUMBER``s overwrite it; drawing all 300 values from
    Hypothesis would cost ~30 ms an example.
    """
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = draw(st.sampled_from([0.05, 1.0, 1e6, None]))
    values = [
        rng.uniform(-1.0, 1.0) * (10.0 ** rng.randint(-12, 12) if scale is None else scale)
        for _ in range(n)
    ]
    for i, value in draw(st.lists(st.tuples(st.integers(0, 299), NUMBER), max_size=10)):
        if i < n:
            values[i] = value
    return values


def _bits(value):
    if isinstance(value, float):
        return value.hex()
    return [_bits(v) for v in value]


def _outcome(compute, *args):
    try:
        with np.errstate(all="ignore"):
            return _bits(compute(*args))
    except (DataError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _numpy_sum(values):
    # Some NumPy versions hand a reduction to the inner loop in chunks of
    # the ufunc buffer; a buffer longer than the input makes it one
    # pairwise_sum call on every version.
    old = np.setbufsize(1 << 15)
    try:
        with np.errstate(all="ignore"):
            return float(np.add.reduce(np.asarray(values, dtype=np.float64)))
    finally:
        np.setbufsize(old)


@settings(max_examples=300, deadline=None)
@given(numbers(0))
def test_pairwise_sum_matches_numpy(values):
    assert pairwise_sum(values).hex() == _numpy_sum(values).hex()


@pytest.mark.parametrize("n", [8191, 8192, 8193, 12_345, 20_000])
def test_pairwise_sum_matches_numpy_on_long_input(n):
    rng = random.Random(n)
    values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12) for _ in range(n)]
    values[::97] = [-0.0] * len(values[::97])
    assert pairwise_sum(values).hex() == _numpy_sum(values).hex()


def test_pairwise_sum_edge_cases():
    assert pairwise_sum([]).hex() == (0.0).hex()
    assert pairwise_sum([-0.0]).hex() == (0.0).hex()
    assert pairwise_sum([-0.0] * 200).hex() == (0.0).hex()
    assert pairwise_sum([3, 4]) == 7.0 and type(pairwise_sum([3, 4])) is float
    # Ints above 2**53 are rounded one by one, as NumPy's cast rounds them,
    # before any addition, in every branch.
    for n in (5, 16, 131):
        ints = [2**60 + 2 * k + 1 for k in range(n)]
        assert pairwise_sum(ints).hex() == _numpy_sum(ints).hex()


@settings(max_examples=200, deadline=None)
@given(numbers(0))
def test_pct_change_series_matches_numpy(values):
    assert _outcome(pct_change_series, values) == _outcome(
        numpy_pct_change_series, values
    )


@settings(max_examples=200, deadline=None)
@given(numbers(0), st.booleans())
def test_variance_matches_numpy(values, constant):
    if constant and values:
        values = [values[0]] * len(values)
    assert _outcome(variance, values) == _outcome(numpy_variance, values)


@st.composite
def pairs(draw, min_size=0):
    xs = draw(numbers(min_size))
    if draw(st.booleans()):
        ys = draw(numbers(len(xs), len(xs)))
    else:
        ys = draw(numbers(min_size))
    return xs, ys


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_covariance_matches_numpy(xy):
    assert _outcome(covariance, *xy) == _outcome(numpy_covariance, *xy)


@pytest.mark.parametrize("variant", [COVARIANCE, CORRELATION])
@settings(max_examples=200, deadline=None)
@given(xy=pairs(min_size=2), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_beta_matches_numpy(variant, xy, seed):
    rng = random.Random(seed)
    n = rng.randint(2, 300)
    stock = [rng.gauss(0.0, 0.02) for _ in range(n)]
    reference = [rng.gauss(0.0, 0.01) for _ in range(n)]
    for args in (xy, (stock, reference)):
        assert _outcome(lambda s, r: beta(s, r, variant).beta, *args) == _outcome(
            numpy_beta, *args, variant
        )


@st.composite
def volume_trends(draw):
    """Trading-day offsets against integer volumes, as ``volume_trend`` fits."""
    n = draw(st.integers(min_value=0, max_value=300))
    lo = draw(st.integers(min_value=-130, max_value=0))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return list(range(lo, lo + n)), [rng.randint(0, 10**9) for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(xy=pairs(), trend=volume_trends())
def test_ols_fit_matches_numpy(xy, trend):
    for args in (xy, trend):
        assert _outcome(ols_fit, *args) == _outcome(numpy_ols_fit, *args)


def test_engine_imports_no_numpy():
    src = Path(splitstudy.__file__).resolve().parents[1]
    names = [
        f"splitstudy.{m.name}" for m in pkgutil.iter_modules(splitstudy.__path__)
    ]
    assert "splitstudy.report" in names and "splitstudy.cli" in names
    # Every module the engine loads is its own or the standard library's:
    # neither numpy nor any other third-party package.
    code = (
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(loaded - {'splitstudy'} - sys.stdlib_module_names))\n"
    )
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
