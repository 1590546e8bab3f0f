"""Per-node clock-error modeling and inter-node offset analysis.

It builds no logs: ``sim`` turns clock error into synthetic captures,
the shared-pulse precision run included.

Sign conventions, used consistently everywhere:

* A node's clock error is ``err = reading - true_time``; a recorded
  timestamp is ``true_time + err``.
* The offset of node b relative to node a at one instant is
  ``t_b - t_a``; this is how the vehicle clock enters a latency
  measurement.
* ``precision_analysis`` reports the *a minus b* offset per shared pulse
  (``t_a - t_b``), matching a shared-stimulus comparison where node a is
  listed first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigInvalid, EmptyLog, LengthMismatch, NegativeRtt
from .events import EventLog
from .stats import SummaryStats, summarize
from .tables import write_table

NS_PER_S = 1_000_000_000

# Stream salts separating the two nodes' stochastic clock draws under one
# run seed (operator/node a first, vehicle/node b second).
OPERATOR_SALT = 1
VEHICLE_SALT = 2

# Version of the counter-based stream behind clock_errors' jitter and
# spikes; a config echoed under another version would not reproduce.
CLOCK_STREAM = "splitmix64-1"

# Largest share of the larger log that precision_analysis leaves unpaired.
MAX_UNMATCHED = 0.01

_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_U64 = 1 << 64
# splitmix64: finalizer shifts and multipliers, then the shift to 53 bits,
# and the Weyl steps of lanes 1, 2 and 3. One-element arrays, not numpy
# scalars: numpy applies them to a short array in half the time.
_SHIFTS = tuple(np.array([s], dtype=np.uint64) for s in (30, 27, 31, 11))
_MULTIPLIERS = tuple(np.array([m], dtype=np.uint64) for m in (_MIX_B, 0x94D049BB133111EB))
_LANE_STEPS = np.array([j * _MIX_A % _U64 for j in (1, 2, 3)], dtype=np.uint64)


@dataclass(frozen=True)
class ClockModel:
    """Generative model of one node's wall-clock error.

    The error at true time t is a disciplined deterministic part (initial
    offset plus linear drift, pulled toward zero by a factor of
    ``correction_gain`` once per ``correction_interval_s``), plus white
    Gaussian jitter, plus an occasional uniform spike. When
    ``spike_max_ns`` is positive it also bounds the *total* excursion:
    sampled offsets are clamped to that magnitude, which is what keeps a
    disciplined clock's worst case finite.
    """

    initial_offset_ns: int = 0
    drift_ppm: float = 0.0
    jitter_std_ns: float = 0.0
    correction_interval_s: float = 16.0
    correction_gain: float = 1.0
    spike_prob: float = 0.0
    spike_max_ns: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigInvalid(f"{name} must be finite")
        if self.jitter_std_ns < 0:
            raise ConfigInvalid("jitter_std_ns must be >= 0")
        if self.correction_interval_s <= 0:
            raise ConfigInvalid("correction_interval_s must be > 0")
        if self.correction_interval_s * NS_PER_S >= 2**63:  # inf ns would make nan errors
            raise ConfigInvalid("correction_interval_s must be below 2**63 ns")
        if not 0.0 < self.correction_gain <= 1.0:
            raise ConfigInvalid("correction_gain must be in (0, 1]")
        if not 0.0 <= self.spike_prob <= 1.0:
            raise ConfigInvalid("spike_prob must be in [0, 1]")
        if self.spike_max_ns < 0:
            raise ConfigInvalid("spike_max_ns must be >= 0")


class SyncMode(Enum):
    CO_REFERENCED = "co_referenced"
    AUTONOMOUS = "autonomous"


# Inter-node offset processes calibrated against one-hour shared-pulse
# captures: mean |offset| 0.322 ms with rare multi-ms excursions for the
# co-referenced mode, 0.330 ms with a tight 1.1 ms bound for autonomous.
# The whole relative process is carried by the vehicle-side model; the
# operator node is the time reference. Jitter sigmas were solved so the
# clamped-|offset| means land exactly on the targets.
CO_REFERENCED_PAIR = (
    ClockModel(),
    ClockModel(jitter_std_ns=328_600.9, spike_prob=0.03, spike_max_ns=4_500_000),
)
AUTONOMOUS_PAIR = (
    ClockModel(),
    ClockModel(jitter_std_ns=414_885.0, spike_prob=0.0, spike_max_ns=1_100_000),
)


def preset_models(mode: SyncMode) -> tuple[ClockModel, ClockModel]:
    """(operator, vehicle) clock models for a synchronization mode."""
    if mode is SyncMode.CO_REFERENCED:
        return CO_REFERENCED_PAIR
    if mode is SyncMode.AUTONOMOUS:
        return AUTONOMOUS_PAIR
    raise ConfigInvalid(f"unknown sync mode: {mode!r}")


def _mix_key(seed: int, salt: int) -> int:
    return (seed * _MIX_A + salt * _MIX_B + 1) % _U64


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (arithmetic wraps mod 2**64)."""
    x = (x ^ (x >> _SHIFTS[0])) * _MULTIPLIERS[0]
    x = (x ^ (x >> _SHIFTS[1])) * _MULTIPLIERS[1]
    return x ^ (x >> _SHIFTS[2])


def _uniforms(t: np.ndarray, seed: int, salt: int, lanes: int) -> np.ndarray:
    """Lanes 1 to ``lanes`` of the stream at each t, as floats in the open (0, 1).

    Row i is ``mix(base + j * _MIX_A)`` for lane j, where
    ``base = mix(_mix_key(seed, salt) ^ mix(t[i]))``; the top 53 bits give
    ``(m + 0.5) / 2**53``.
    """
    key = np.array([_mix_key(seed, salt)], dtype=np.uint64)
    base = _mix(key ^ _mix(t.view(np.uint64)))
    bits = _mix(base[:, None] + _LANE_STEPS[:lanes])
    return ((bits >> _SHIFTS[3]).astype(np.float64) + 0.5) * 2.0**-53


def _disciplined(model: ClockModel, t: np.ndarray) -> np.ndarray:
    """Deterministic error component at true times t (closed form)."""
    c_ns = model.correction_interval_s * NS_PER_S
    drift = model.drift_ppm * 1e-6
    k = np.floor_divide(t, c_ns)  # corrections applied at c, 2c, ..., kc <= t
    r = 1.0 - model.correction_gain
    if r == 0.0:
        base = np.zeros(len(t))
    else:
        # Post-correction offset after k steps of drift-then-pull.
        rk = np.power(r, k)
        base = rk * model.initial_offset_ns + drift * c_ns * r * (1.0 - rk) / (1.0 - r)
    base = np.where(k == 0, float(model.initial_offset_ns), base)
    return base + drift * (t - k * c_ns)


def clock_errors(model: ClockModel, t_true_ns, seed: int, salt: int = 0) -> np.ndarray:
    """Clock error in ns at each true time t, as an int64 array.

    The stochastic terms come from a counter-based stream (``CLOCK_STREAM``):
    a splitmix64 hash keyed by (seed, salt, t), so each element is a pure
    function of its own time, whatever the order or repetition of the
    others. Jitter is Gaussian from lane 1; lane 2 decides a spike and
    lane 3 draws its uniform size.
    """
    try:
        t = np.atleast_1d(np.asarray(t_true_ns, dtype=np.int64))
    except OverflowError:
        raise ConfigInvalid("t_true_ns must be < 2**63")
    if t.size and t.min() < 0:
        raise ConfigInvalid("t_true_ns must be >= 0")
    offset = _disciplined(model, t)
    if model.jitter_std_ns > 0.0 or model.spike_prob > 0.0:
        u = _uniforms(t, seed, salt, 3 if model.spike_prob > 0.0 else 1)
        if model.jitter_std_ns > 0.0:
            from scipy.special import ndtri  # here, so importing clocks loads no scipy

            offset += ndtri(u[:, 0]) * model.jitter_std_ns
        if model.spike_prob > 0.0:
            spike = (2.0 * u[:, 2] - 1.0) * model.spike_max_ns
            offset += np.where(u[:, 1] < model.spike_prob, spike, 0.0)
    if model.spike_max_ns > 0:
        offset = np.minimum(np.maximum(offset, -model.spike_max_ns), model.spike_max_ns)
    offset = np.rint(offset)
    if np.abs(offset).max(initial=0.0) >= 2.0**63:
        raise ConfigInvalid("clock error does not fit in int64")
    return offset.astype(np.int64)


def sample_clock_error(
    model: ClockModel, t_true_ns: int, seed: int, salt: int = 0
) -> int:
    """``clock_errors`` at one true time t, as an int."""
    return int(clock_errors(model, [t_true_ns], seed, salt)[0])


# One row per compared pulse; also the offsets CSV's columns.
OFFSET_DTYPE = np.dtype([("t_ref_ns", np.int64), ("offset_ns", np.int64)])


@dataclass(frozen=True, eq=False)
class OffsetSeries:
    """Per-pulse inter-node offsets with signed and absolute summaries.

    ``samples`` is one ``OFFSET_DTYPE`` row per pulse, where t_ref is node
    a's timestamp and offset is ``t_a - t_b``. Whether an offset table
    should be read signed or absolute is ambiguous in general, so both
    summaries are carried, explicitly labeled; absolute is the one to
    compare against shared-pulse precision figures.
    """

    samples: np.ndarray
    stats_signed: SummaryStats
    stats_abs: SummaryStats

    def to_csv(self) -> str:
        return write_table(OFFSET_DTYPE.names, self.samples.tolist())


def precision_analysis(log_a: EventLog, log_b: EventLog) -> OffsetSeries:
    """Per-pulse offset series from two logs of one shared stimulus.

    Events are paired by sequence number when the two logs share one
    numbering (at least ``1 - MAX_UNMATCHED`` of the larger log matches);
    otherwise by order after truncating to the common length. More than
    ``MAX_UNMATCHED`` unmatched either way raises LengthMismatch.
    """
    if not len(log_a) or not len(log_b):
        raise EmptyLog("both logs must contain events to compare")
    larger = max(len(log_a), len(log_b))

    _, ia, ib = np.intersect1d(log_a.seq, log_b.seq, assume_unique=True, return_indices=True)
    if len(ia) < (1.0 - MAX_UNMATCHED) * larger:
        # Unrelated numbering; fall back to order alignment.
        common = min(len(log_a), len(log_b))
        if larger - common > MAX_UNMATCHED * larger:
            raise LengthMismatch(
                f"{larger - common} of {larger} events unmatched "
                f"(tolerance {MAX_UNMATCHED:.0%})"
            )
        ia = ib = slice(common)

    t_a = log_a.t_wall_ns[ia]
    offsets = t_a - log_b.t_wall_ns[ib]
    samples = np.column_stack((t_a, offsets)).view(OFFSET_DTYPE)[:, 0]  # one row per pulse
    return OffsetSeries(samples, summarize(offsets), summarize(np.abs(offsets)))


def kernel_asymmetry(a_ns, b_ns) -> int:
    """Worst-case inter-node interrupt-handling asymmetry in ns.

    ``a_ns`` and ``b_ns`` are the two nodes' interrupt scheduling latency
    samples. One node sees its maximum scheduling delay while the other
    sees its minimum; the measured latency absorbs the difference.
    """
    a, b = np.asarray(a_ns, dtype=np.int64), np.asarray(b_ns, dtype=np.int64)
    if not a.size or not b.size:
        raise EmptyLog("scheduling stats require at least one sample")
    return max(a.max().item() - b.min().item(), b.max().item() - a.min().item())


def probe_offset(t1: int, t2: int, t3: int, t4: int) -> tuple[float, int]:
    """Two-way time-transfer estimate from one request/response exchange.

    t1: local send, t2: remote receive, t3: remote send, t4: local
    receive. Returns ``(offset_ns, rtt_ns)`` where offset is the remote
    clock minus the local clock, exact to half a nanosecond (hence float),
    and rtt excludes remote processing time. The estimate is unbiased only
    for symmetric paths; with asymmetric one-way delays the error is half
    the asymmetry.
    """
    if t4 < t1:
        raise NegativeRtt(f"local receive {t4} before send {t1}")
    if t3 < t2:
        raise NegativeRtt(f"remote send {t3} before receive {t2}")
    rtt = (t4 - t1) - (t3 - t2)
    if rtt < 0:
        raise NegativeRtt(f"round trip {rtt} ns is negative")
    offset = ((t2 - t1) + (t3 - t4)) / 2
    return offset, rtt
