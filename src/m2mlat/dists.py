"""Non-negative delay distributions with median/IQR-targeted fitting.

Scenario components are specified by the statistics field studies report
(median and interquartile range) rather than by distribution parameters,
so each supported family can be fitted to a (median, IQR) pair:

* log-normal has a closed form: mu = ln(median) and, because the quartiles
  sit at exp(mu +- sigma * z75), sigma = asinh(iqr / (2 * median)) / z75;
* gamma is solved by bisection on the shape, whose iqr/median ratio is
  monotone; its quantiles come from ``scipy.special.gammaincinv`` (the
  unit-scale gamma ppf), which spares the package importing ``scipy.stats``;
* constants are their own median with zero spread;
* empirical distributions resample a frozen sample list and cannot be
  fitted, only constructed.

All sampling takes an explicit numpy Generator and returns integer
nanoseconds. Families are sampled through their standard variates
(``standard_normal``, ``standard_gamma``), so scaling a fitted
distribution and re-sampling with the same seed scales every draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaincinv

from .errors import ConfigInvalid, Unfittable

# Standard normal upper-quartile point.
Z75 = 0.6744897501960817


class DistKind(Enum):
    CONSTANT = "constant"
    LOGNORMAL = "lognormal"
    GAMMA = "gamma"
    EMPIRICAL = "empirical"


class DelayDist:
    """One non-negative delay distribution; immutable."""

    kind: DistKind

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n integer-ns draws."""
        raise NotImplementedError

    def median_ns(self) -> float:
        raise NotImplementedError

    def iqr_ns(self) -> float:
        raise NotImplementedError

    def scaled(self, factor: float) -> "DelayDist":
        """Distribution of ``factor * X``; factor must be positive."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantDelay(DelayDist):
    value_ns: int
    kind = DistKind.CONSTANT

    def __post_init__(self):
        if not 0 <= self.value_ns < 2**63:
            raise ConfigInvalid("delay must be >= 0 and fit in int64 ns")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # No rng consumption: a constant must not perturb coupled draws.
        return np.full(n, self.value_ns, dtype=np.int64)

    def median_ns(self) -> float:
        return float(self.value_ns)

    def iqr_ns(self) -> float:
        return 0.0

    def scaled(self, factor: float) -> "ConstantDelay":
        return ConstantDelay(int(round(self.value_ns * factor)))


@dataclass(frozen=True)
class LogNormalDelay(DelayDist):
    mu: float
    sigma: float
    kind = DistKind.LOGNORMAL

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigInvalid("sigma must be > 0; use ConstantDelay for zero spread")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        draws = np.exp(self.mu + self.sigma * rng.standard_normal(n))
        return np.rint(draws).astype(np.int64)

    def median_ns(self) -> float:
        return math.exp(self.mu)

    def iqr_ns(self) -> float:
        return math.exp(self.mu) * 2.0 * math.sinh(self.sigma * Z75)

    def scaled(self, factor: float) -> "LogNormalDelay":
        return LogNormalDelay(self.mu + math.log(factor), self.sigma)


@dataclass(frozen=True)
class GammaDelay(DelayDist):
    shape: float
    scale_ns: float
    kind = DistKind.GAMMA

    def __post_init__(self):
        if self.shape <= 0 or self.scale_ns <= 0:
            raise ConfigInvalid("shape and scale must be > 0")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        draws = rng.standard_gamma(self.shape, n) * self.scale_ns
        return np.rint(draws).astype(np.int64)

    def median_ns(self) -> float:
        return float(gammaincinv(self.shape, 0.5)) * self.scale_ns

    def iqr_ns(self) -> float:
        q1, q3 = gammaincinv(self.shape, [0.25, 0.75])
        return float(q3 - q1) * self.scale_ns

    def scaled(self, factor: float) -> "GammaDelay":
        return GammaDelay(self.shape, self.scale_ns * factor)


@dataclass(frozen=True)
class EmpiricalDelay(DelayDist):
    values_ns: tuple[int, ...]
    kind = DistKind.EMPIRICAL

    def __post_init__(self):
        if not self.values_ns:
            raise ConfigInvalid("empirical distribution requires samples")
        if not all(0 <= v < 2**63 for v in self.values_ns):
            raise ConfigInvalid("delays must be >= 0 and fit in int64 ns")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        values = np.asarray(self.values_ns, dtype=np.int64)
        return values[rng.integers(0, len(values), n)]

    def median_ns(self) -> float:
        return float(np.quantile(self.values_ns, 0.5, method="linear"))

    def iqr_ns(self) -> float:
        q1, q3 = np.quantile(self.values_ns, [0.25, 0.75], method="linear")
        return float(q3 - q1)

    def scaled(self, factor: float) -> "EmpiricalDelay":
        return EmpiricalDelay(tuple(int(round(v * factor)) for v in self.values_ns))


_GAMMA_SHAPE_LO = 1e-3
_GAMMA_SHAPE_HI = 1e6


def _gamma_ratio(shape: float) -> float:
    q1, q2, q3 = gammaincinv(shape, [0.25, 0.5, 0.75])
    return (q3 - q1) / q2


def fit_delay_dist(kind: DistKind, median_ns: float, iqr_ns: float) -> DelayDist:
    """Fit a distribution whose analytic median and IQR hit the targets.

    ``median_ns`` must be positive. A zero ``iqr_ns`` is only satisfiable
    by (and only accepted for) the constant kind.
    """
    if median_ns <= 0:
        raise Unfittable(f"median must be > 0, got {median_ns}")
    if iqr_ns < 0:
        raise Unfittable(f"iqr must be >= 0, got {iqr_ns}")
    if kind is DistKind.CONSTANT:
        if iqr_ns != 0:
            raise Unfittable("a constant delay cannot carry a nonzero IQR")
        return ConstantDelay(int(round(median_ns)))
    if iqr_ns == 0:
        raise Unfittable(f"{kind.value} requires a positive IQR")
    if kind is DistKind.LOGNORMAL:
        mu = math.log(median_ns)
        sigma = math.asinh(iqr_ns / (2.0 * median_ns)) / Z75
        return LogNormalDelay(mu, sigma)
    if kind is DistKind.GAMMA:
        return _fit_gamma(median_ns, iqr_ns)
    raise Unfittable(f"{kind.value} cannot be fitted from quantiles")


def _fit_gamma(median_ns: float, iqr_ns: float) -> GammaDelay:
    target = iqr_ns / median_ns
    lo, hi = _GAMMA_SHAPE_LO, _GAMMA_SHAPE_HI
    # ratio(shape) decreases from heavy-tailed to near-normal.
    if not _gamma_ratio(hi) <= target <= _gamma_ratio(lo):
        raise Unfittable(
            f"iqr/median ratio {target:.4g} outside the gamma shape range"
        )
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if _gamma_ratio(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-13:
            break
    shape = math.sqrt(lo * hi)
    scale = median_ns / float(gammaincinv(shape, 0.5))
    return GammaDelay(shape, scale)
