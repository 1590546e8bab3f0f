"""Differential test of the clock stream's inverse normal CDF against scipy.

``clocks._ndtri`` ports Cephes ``ndtri``, the algorithm behind
``scipy.special.ndtri``, in Cephes' order of operations. The centre
branch uses no ``log`` and must match bit for bit; the tails may differ
where numpy's ``log`` rounds otherwise than libm's, by a few ulp. The
int64 clock errors the stream turns them into must not differ at all.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.special import ndtri

from m2mlat import clocks
from m2mlat.clocks import AUTONOMOUS_PAIR, CO_REFERENCED_PAIR, _ndtri, clock_errors

MAX_ULP = 8
S = 1_000_000_000


def _inputs() -> np.ndarray:
    rng = np.random.default_rng(53)
    m = rng.integers(0, 2**53, 1_000_000, dtype=np.int64)
    stream = (m.astype(np.float64) + 0.5) * 2.0**-53  # the stream's form
    edges = [2.0**-54, 1.0 - 2.0**-53, 0.5, np.finfo(np.float64).smallest_subnormal]
    # the centre/tail split, and the x = 8 split of the tails
    for b in (np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0), 1.0 - np.exp(-32.0)):
        edges += [np.nextafter(b, 0.0), b, np.nextafter(b, 1.0)]
    near_x8 = np.exp(-32.0) * np.linspace(0.999, 1.001, 20_001)
    tails = np.geomspace(np.finfo(np.float64).smallest_subnormal, np.exp(-2.0), 20_000)
    return np.concatenate([stream, edges, near_x8, tails, 1.0 - tails[tails > 2.0**-53]])


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ulp distance between same-signed finite float64 arrays."""
    assert np.isfinite(a).all() and np.isfinite(b).all()
    assert (np.signbit(a) == np.signbit(b)).all()
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_within_a_few_ulp_of_scipy_without_warnings():
    u = _inputs()
    assert ((u > 0.0) & (u < 1.0)).all()
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = _ndtri(u)
    ulps = _ulps(got, ndtri(u))
    assert ulps.max() <= MAX_ULP
    centre = (u > np.exp(-2.0)) & (u <= 1.0 - np.exp(-2.0))
    assert centre.mean() > 0.7
    assert not ulps[centre].any()


@pytest.mark.parametrize("model", [CO_REFERENCED_PAIR[1], AUTONOMOUS_PAIR[1]],
                         ids=["co_referenced", "autonomous"])
def test_clock_errors_equal_scipy_draws(model, monkeypatch):
    t = np.arange(1, 300_001, dtype=np.int64) * (5 * S + 7_919)
    ours = [clock_errors(model, t, seed, salt=2) for seed in (1, 2, 3)]
    monkeypatch.setattr(clocks, "_ndtri", ndtri)
    for seed, errors in zip((1, 2, 3), ours):
        assert np.array_equal(errors, clock_errors(model, t, seed, salt=2))
