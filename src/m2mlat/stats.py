"""Order-statistics summaries and box-plot reductions for latency samples.

Quantiles use linear interpolation between order statistics (rank
``h = (n - 1) * p``), and the standard deviation is the population form
(divide by n). Both are pinned so that reports are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigInvalid, EmptySample, TooFewSamples
from .tables import write_table


@dataclass(frozen=True)
class SummaryStats:
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
    frac_over: dict[int, float] = field(default_factory=dict)

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

    ``samples`` is an int64 array, or anything ``np.asarray`` takes as
    one. It is sorted (into a copy) before any floating-point reduction, so
    reorderings of the same sample set cannot change summation order.
    """
    arr = np.sort(np.asarray(samples, dtype=np.int64))
    if arr.size == 0:
        raise EmptySample("summarize requires at least one sample")
    q1, median, q3 = _quartiles(arr)
    n = int(arr.size)
    return SummaryStats(
        n=n,
        min_ns=int(arr[0]),
        max_ns=int(arr[-1]),
        mean_ns=_mean(arr),
        std_ns=_std(arr),
        median_ns=median,
        q1_ns=q1,
        q3_ns=q3,
        iqr_ns=q3 - q1,
        frac_over={
            int(t): float(np.count_nonzero(arr > int(t)) / n) for t in thresholds
        },
    )


@dataclass(frozen=True)
class BoxplotData:
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
    arr = np.sort(np.asarray(samples, dtype=np.int64))
    if arr.size < 5:
        raise TooFewSamples(f"box plot requires n >= 5, got {arr.size}")
    q1, median, q3 = _quartiles(arr)
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    outliers = arr[(arr < lo_fence) | (arr > hi_fence)]
    return BoxplotData(
        q1_ns=q1,
        median_ns=median,
        q3_ns=q3,
        whisker_lo_ns=int(inside.min()),
        whisker_hi_ns=int(inside.max()),
        outliers_ns=tuple(outliers.tolist()),
    )


def _mean(arr: np.ndarray) -> float:
    """Mean of an int64 array, correctly rounded.

    The exact sum is taken as two int64 sums that cannot wrap below 2**31
    samples (the high and the low 32 bits of each sample), and Python's
    int / int rounds once.
    """
    total = int((arr >> 32).sum()) * 2**32 + int((arr & 0xFFFFFFFF).sum())
    return total / arr.size


def _std(sorted_arr: np.ndarray) -> float:
    """Population standard deviation of a sorted int64 array.

    Taken over the exact integer distances from the minimum (modulo 2**64,
    so never overflowing), which a shift of every sample leaves unchanged:
    the result is bit-identical under shifts, not merely close.
    """
    dist = sorted_arr.view(np.uint64) - sorted_arr[:1].view(np.uint64)
    return float(dist.std())


def _quartiles(sorted_arr: np.ndarray) -> tuple[float, float, float]:
    """Q1, median and Q3 of a sorted array at rank ``h = (n - 1) * p``.

    Bit for bit numpy's ``quantile(method="linear")``, at a fraction of its
    cost on small samples: with ``g = h - floor(h)``, ``a + (b - a) * g``
    below 0.5 and ``b - (b - a) * (1 - g)`` from 0.5 up.
    """
    n = len(sorted_arr)
    out = []
    for p in (0.25, 0.5, 0.75):
        h = (n - 1) * p
        lo = int(h)
        g = h - lo
        a, b = sorted_arr[lo].item(), sorted_arr[min(lo + 1, n - 1)].item()
        out.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))
    return tuple(out)


_STATS_COLUMNS = (
    "n", "min_ns", "max_ns", "mean_ns", "std_ns",
    "median_ns", "q1_ns", "q3_ns", "iqr_ns",
)
_BOXPLOT_COLUMNS = ("q1_ns", "median_ns", "q3_ns", "whisker_lo_ns", "whisker_hi_ns")


def stats_csv(stats: SummaryStats) -> str:
    """Machine-readable one-row CSV rendering of a stats block."""
    over = sorted(stats.frac_over)
    return write_table(
        _STATS_COLUMNS + tuple(f"frac_over_{t}ns" for t in over),
        [[getattr(stats, c)] for c in _STATS_COLUMNS] + [[stats.frac_over[t]] for t in over],
    )


def boxplot_csv(bp: BoxplotData) -> str:
    """One-row CSV of a box plot; outliers are ``;``-separated in one cell."""
    outliers = ";".join(map(str, bp.outliers_ns))
    return write_table(
        _BOXPLOT_COLUMNS + ("outliers_ns",),
        [[getattr(bp, c)] for c in _BOXPLOT_COLUMNS] + [[outliers]],
    )
