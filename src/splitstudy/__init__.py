"""splitstudy: a desk-scale event-study engine for stock splits.

Ingests daily OHLCV bars, a split calendar, fiscal-year fundamentals and
a reference return series; computes volume, price, return/beta, price-gap
and fundamentals analytics around each split; and emits deterministic
JSON/CSV reports. A seeded synthetic-universe generator with known ground
truth makes every estimator verifiable end to end against the brute-force
oracles in the test suite.
"""

__version__ = "0.1.0"
