"""Order-statistics summaries and box-plot reductions for latency samples.

Quantiles use linear interpolation between order statistics (rank
``h = (n - 1) * p``), and the standard deviation is the population form
(divide by n). Both are pinned so that reports are bit-reproducible.

``summarize`` and ``boxplot_data`` take one of two paths, which give the
same results and raise the same errors, bit for bit (``tests/test_stats.py``
pins the one against the other):

- a list or tuple whose items are all ``int`` (not ``bool``) within int64,
  as ``report --samples`` and ``probe``'s offset summary pass, is reduced
  with the standard library alone, so that ``report`` loads no numpy; its
  standard deviation is a port of numpy's pairwise ``add.reduce``;
- anything else (the int64 arrays of ``pairing`` and ``clocks``, floats,
  numpy scalars) goes through ``np.asarray(..., dtype=np.int64)``, and
  numpy is imported only then. An unsigned array holding 2**63 or more,
  which that cast would wrap negative, is refused.

``ms_fields`` writes each figure that the report, ``precision`` and
``probe`` print in ms.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import reduce
from operator import add
from typing import Sequence

from .errors import ConfigInvalid, EmptySample, TooFewSamples
from .record import Record
from .tables import write_table


class SummaryStats(Record):
    """Summary block used by every report surface.

    ``frac_over`` maps a threshold in ns to the fraction of samples
    strictly greater than it.
    """

    n: int
    min_ns: int
    max_ns: int
    mean_ns: float
    std_ns: float
    median_ns: float
    q1_ns: float
    q3_ns: float
    iqr_ns: float
    frac_over: dict[int, float]

    def __post_init__(self):
        if self.n < 1:
            raise ConfigInvalid("stats require n >= 1")
        # quantiles interpolate float64 copies of the samples, so past 2**53
        # they are ordered against the rounded extremes, not the exact ints
        if not (
            float(self.min_ns)
            <= self.q1_ns <= self.median_ns <= self.q3_ns
            <= float(self.max_ns)
        ):
            raise ConfigInvalid("quantiles out of order")
        if self.std_ns < 0:
            raise ConfigInvalid("std must be non-negative")
        for t, f in self.frac_over.items():
            if not 0.0 <= f <= 1.0:
                raise ConfigInvalid(f"frac_over[{t}] out of [0, 1]: {f}")


def summarize(samples, thresholds: Sequence[int] = ()) -> SummaryStats:
    """Summarize a sample set of integer ns; permutation invariant bit-exactly.

    ``samples`` is a list or tuple of ints, an int64 array, or anything
    ``np.asarray`` takes as one (see the module docstring for which takes
    which path). It is sorted (into a copy) before any floating-point
    reduction, so reorderings of the same sample set cannot change
    summation order.
    """
    ordered = sorted_samples(samples)
    n = len(ordered)
    if n == 0:
        raise EmptySample("summarize requires at least one sample")
    q1, median, q3 = _quartiles(ordered)
    return SummaryStats(
        n=n,
        min_ns=int(ordered[0]),
        max_ns=int(ordered[-1]),
        mean_ns=_mean(ordered),
        std_ns=_std(ordered),
        median_ns=median,
        q1_ns=q1,
        q3_ns=q3,
        iqr_ns=q3 - q1,
        frac_over={int(t): (n - bisect_right(ordered, int(t))) / n for t in thresholds},
    )


class BoxplotData(Record):
    """Tukey box-plot reduction: whiskers reach the furthest sample within
    1.5 * IQR of the quartiles; points beyond are outliers."""

    q1_ns: float
    median_ns: float
    q3_ns: float
    whisker_lo_ns: int
    whisker_hi_ns: int
    outliers_ns: tuple[int, ...]


def boxplot_data(samples) -> BoxplotData:
    """Box plot of a sample set of integer ns, given as ``summarize`` takes it."""
    ordered = sorted_samples(samples)
    if len(ordered) < 5:
        raise TooFewSamples(f"box plot requires n >= 5, got {len(ordered)}")
    q1, median, q3 = _quartiles(ordered)
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    # the fences are compared as float64, as numpy compares int64 with a
    # float; float() keeps sorted ints in order, so the inside is one run
    lo = bisect_left(ordered, lo_fence, key=float)
    hi = bisect_right(ordered, hi_fence, key=float)
    whiskers = int(ordered[lo]), int(ordered[hi - 1])
    outliers = (*map(int, ordered[:lo]), *map(int, ordered[hi:]))
    return BoxplotData(
        q1_ns=q1,
        median_ns=median,
        q3_ns=q3,
        whisker_lo_ns=whiskers[0],
        whisker_hi_ns=whiskers[1],
        outliers_ns=outliers,
    )


def sorted_samples(samples):
    """The samples in ascending order: a list for a list or tuple of ints
    within int64, an int64 array for anything else. Sorted samples are
    returned after one pass (``sorted`` finds the one run; a sorted 1-D
    int64 array is returned as it is), so a caller that reduces one sample
    set more than once sorts it here first."""
    if isinstance(samples, (list, tuple)) and {int}.issuperset(map(type, samples)):
        ordered = sorted(samples)
        if not ordered or (-(2**63) <= ordered[0] and ordered[-1] < 2**63):
            return ordered
    import numpy as np

    if getattr(getattr(samples, "dtype", None), "kind", "") == "u" and (samples >= 2**63).any():
        raise ConfigInvalid("samples of 2**63 ns or more do not fit in int64")
    ordered = np.asarray(samples, dtype=np.int64)
    if ordered.ndim != 1 or (ordered[1:] < ordered[:-1]).any():
        ordered = np.sort(ordered)
    return ordered


def _mean(ordered) -> float:
    """Mean of sorted int samples, correctly rounded: the exact sum, which
    Python's int / int rounds once.

    An int64 array's exact sum is taken as two int64 sums that cannot wrap
    below 2**31 samples (the high and the low 32 bits of each sample).
    """
    if isinstance(ordered, list):
        return sum(ordered) / len(ordered)
    total = int((ordered >> 32).sum()) * 2**32 + int((ordered & 0xFFFFFFFF).sum())
    return total / ordered.size


# numpy's default cast buffer: add.reduce of an int array as float64 casts
# and sums this many elements at a time, adding each chunk's sum in turn
_NUMPY_BUFSIZE = 8192


def _std(ordered) -> float:
    """Population standard deviation of sorted int samples.

    Taken over the exact integer distances from the minimum (modulo 2**64
    in an array, so never overflowing), which a shift of every sample
    leaves unchanged: the result is bit-identical under shifts, not merely
    close.

    A list's is numpy's ``std`` of those distances as a uint64 array, step
    for step: their float64 sum in ``_NUMPY_BUFSIZE`` chunks, each summed
    pairwise and added in order from 0.0, over n; then the squared
    deviations from that mean, summed pairwise in one pass, over n.
    That match assumes numpy's default cast buffer (``np.setbufsize``
    left alone) and the block layout of its ``pairwise_sum``; a numpy
    release that changes either can put the two paths an ulp apart, which
    the tests in ``tests/test_stats.py`` are there to show.
    """
    if not isinstance(ordered, list):
        import numpy as np

        dist = ordered.view(np.uint64) - ordered[:1].view(np.uint64)
        return float(dist.std())
    n, least = len(ordered), ordered[0]
    dist = [float(v - least) for v in ordered]
    total = 0.0
    for start in range(0, n, _NUMPY_BUFSIZE):
        total += _pairwise_sum(dist, start, min(_NUMPY_BUFSIZE, n - start))
    mean = total / n
    squares = [(d - mean) * (d - mean) for d in dist]
    return math.sqrt(_pairwise_sum(squares, 0, n) / n)


def _pairwise_sum(xs: list[float], lo: int, n: int) -> float:
    """Sum of ``xs[lo:lo + n]`` in numpy's order for float64 ``add.reduce``
    (its ``pairwise_sum``): below 8 items one running sum from 0.0; up to
    128, eight running sums over the items taken eight apart, added as a
    tree, then the leftover items one by one; above 128, the sums of two
    halves, split at half the count rounded down to a multiple of 8.
    """
    if n < 8:
        return reduce(add, xs[lo:lo + n], 0.0)
    if n <= 128:
        end = lo + n - n % 8
        r = [reduce(add, xs[lo + j:end:8]) for j in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, xs[end:lo + n], res)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs, lo, half) + _pairwise_sum(xs, lo + half, n - half)


def _quartiles(ordered) -> tuple[float, float, float]:
    """Q1, median and Q3 of sorted samples at rank ``h = (n - 1) * p``.

    Bit for bit numpy's ``quantile(method="linear")``, at a fraction of its
    cost on small samples: with ``g = h - floor(h)``, ``a + (b - a) * g``
    below 0.5 and ``b - (b - a) * (1 - g)`` from 0.5 up, in Python ints
    and floats.
    """
    n = len(ordered)
    out = []
    for p in (0.25, 0.5, 0.75):
        h = (n - 1) * p
        lo = int(h)
        g = h - lo
        a, b = int(ordered[lo]), int(ordered[min(lo + 1, n - 1)])
        out.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))
    return tuple(out)


STATS_COLUMNS = (
    "n", "min_ns", "max_ns", "mean_ns", "std_ns",
    "median_ns", "q1_ns", "q3_ns", "iqr_ns",
)
BOXPLOT_COLUMNS = ("q1_ns", "median_ns", "q3_ns", "whisker_lo_ns", "whisker_hi_ns")


def ms_fields(record, columns, prefix: str = "") -> list[tuple[str, str]]:
    """``(prefix + name_ms, value in ms to six decimals)`` of each
    ``name_ns`` column of ``record``, as the CLI prints its figures."""
    return [(f"{prefix}{c[:-3]}_ms", f"{getattr(record, c) / 1e6:.6f}") for c in columns]


def stats_csv(stats: SummaryStats) -> str:
    """Machine-readable one-row CSV rendering of a stats block."""
    over = sorted(stats.frac_over)
    return write_table(
        STATS_COLUMNS + tuple(f"frac_over_{t}ns" for t in over),
        [[getattr(stats, c)] for c in STATS_COLUMNS] + [[stats.frac_over[t]] for t in over],
    )


def boxplot_csv(bp: BoxplotData) -> str:
    """One-row CSV of a box plot; outliers are ``;``-separated in one cell."""
    outliers = ";".join(map(str, bp.outliers_ns))
    return write_table(
        BOXPLOT_COLUMNS + ("outliers_ns",),
        [[getattr(bp, c)] for c in BOXPLOT_COLUMNS] + [[outliers]],
    )
