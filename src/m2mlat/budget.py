"""Additive error budget for a two-node timestamp-difference measurement.

The total measurement error decomposes into four non-negative
contributions: clock synchronization between the nodes, signal-path
difference from sensor to interrupt pin, interrupt-scheduling asymmetry,
and sensor-placement calibration. Components combine by plain addition;
the budget separately reports whether the total falls inside the 10 to
15 ms precision band such a setup is expected to achieve.
"""

from __future__ import annotations

import math

from .errors import ConfigInvalid, EmptyLog, NegativeComponent, ZeroRate
from .record import Record
from .tables import write_fields, write_table

# Hall-effect sensor reaction time; wiring propagation is negligible next
# to it, so this constant is the whole signal-path contribution.
DEFAULT_CIRCUIT_ERROR_NS = 2_000

PRECISION_BAND_NS = (10_000_000, 15_000_000)


def _round_half_away(x: float) -> int:
    """Nearest integer, ties away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


class CalibModel(Record):
    """Sensor placement uncertainty: a misalignment angle swept at the
    typical steering rate converts to a timing error."""

    misalignment_deg: float
    steering_rate_deg_per_s: float

    def __post_init__(self):
        if self.misalignment_deg < 0:
            raise ConfigInvalid("misalignment_deg must be >= 0")
        if self.steering_rate_deg_per_s <= 0:
            raise ZeroRate("steering_rate_deg_per_s must be > 0")


def calib_error(c: CalibModel) -> int:
    """Timing uncertainty in ns from sensor misalignment: angle / rate."""
    ns = c.misalignment_deg / c.steering_rate_deg_per_s * 1e9
    if not math.isfinite(ns):
        raise ConfigInvalid(f"calibration error is not finite: {ns} ns")
    return _round_half_away(ns)


def kernel_asymmetry(a_ns, b_ns) -> int:
    """Worst-case inter-node interrupt-handling asymmetry in ns.

    ``a_ns`` and ``b_ns`` are the two nodes' interrupt scheduling latency
    samples (any iterable of non-negative integers, numpy arrays
    included). One node sees its maximum scheduling delay while the other
    sees its minimum; the measured latency absorbs the difference.
    """
    a, b = [int(x) for x in a_ns], [int(x) for x in b_ns]
    if not a or not b:
        raise EmptyLog("scheduling stats require at least one sample")
    if min(a) < 0 or min(b) < 0:
        raise NegativeComponent(f"scheduling latency must be >= 0, got {min(a + b)} ns")
    return max(max(a) - min(b), max(b) - min(a))


class ErrorBudget(Record):
    e_sync_ns: int
    e_circuit_ns: int
    e_kernel_ns: int
    e_calib_ns: int

    def __post_init__(self):
        parts = (self.e_sync_ns, self.e_circuit_ns, self.e_kernel_ns, self.e_calib_ns)
        if any(p < 0 for p in parts):
            raise NegativeComponent(f"components must be >= 0, got {parts}")
        if self.e_total_ns >= 2**63:  # budget files hold int64 cells
            raise ConfigInvalid(f"total error does not fit in int64: {self.e_total_ns} ns")

    @property
    def e_total_ns(self) -> int:
        """The sum of the four components."""
        return self.e_sync_ns + self.e_circuit_ns + self.e_kernel_ns + self.e_calib_ns

    @property
    def in_precision_band(self) -> bool:
        lo, hi = PRECISION_BAND_NS
        return lo <= self.e_total_ns <= hi

    def fields(self) -> tuple[tuple[str, int | str], ...]:
        """``(name, value)`` of the four components, their total and the band
        verdict: the budget CSV's columns and the text's lines."""
        return (*vars(self).items(), ("e_total_ns", self.e_total_ns),
                ("in_precision_band", str(self.in_precision_band).lower()))

    def to_text(self) -> str:
        """``fields()`` as ``name=value`` lines, with ``e_total_ms`` after ``e_total_ns``."""
        fields = list(self.fields())
        fields.insert(-1, ("e_total_ms", f"{self.e_total_ns / 1e6:.3f}"))
        return write_fields(fields)

    def to_csv(self) -> str:
        names, values = zip(*self.fields())
        return write_table(names, [[value] for value in values])


def total_error(
    e_sync_ns: int, e_circuit_ns: int, e_kernel_ns: int, e_calib_ns: int
) -> ErrorBudget:
    """Combine the four error contributions into a budget."""
    return ErrorBudget(e_sync_ns, e_circuit_ns, e_kernel_ns, e_calib_ns)
