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
_BELOW_ONE = np.nextafter(1.0, 0.0)

# Cephes ndtri's constants. Its centre branch covers exp(-2) < u <=
# 1 - exp(-2); the tails, with x = sqrt(-2 log y) for y = min(u, 1 - u),
# take P1/Q1 below x = 8 and P2/Q2 from there. Coefficients run from the
# highest power down, and each Q carries its implied leading 1.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


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
    return _unit_floats(_mix(base[:, None] + _LANE_STEPS[:lanes]))


def _unit_floats(bits: np.ndarray) -> np.ndarray:
    """``(m + 0.5) / 2**53`` for the top 53 bits m of each uint64, in the open (0, 1).

    m = 2**53 - 1 rounds to exactly 1.0, so it is clamped to the largest
    double below 1; the clamp moves no other value.
    """
    u = ((bits >> _SHIFTS[3]).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, _BELOW_ONE, out=u)


def _horner(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """``coef[0] * x**n + ... + coef[n]`` in Horner's order (Cephes ``polevl``)."""
    out = coef[0] * x
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF at each float64 u in the open (0, 1).

    A port of Cephes ``ndtri`` (S. L. Moshier), the algorithm
    ``scipy.special.ndtri`` implements, in Cephes' order of operations.
    It evaluates the lower half at y = min(u, 1 - u) and mirrors it for
    u > 0.5; both steps are exact, so the centre branch gives scipy's
    results bit for bit. In the tails numpy's ``log`` may round otherwise
    than libm's, which moves a result by a few ulp.
    """
    y = np.minimum(u, 1.0 - u)
    yc = y - 0.5
    y2 = yc * yc
    # The centre formula over every element costs less than gathering the
    # ~70% that need it; the tails overwrite the rest.
    out = (yc + yc * (y2 * _horner(y2, _P0) / _horner(y2, _Q0))) * _SQRT_2PI
    tail = np.flatnonzero((u <= _EXP_M2) | (u > 1.0 - _EXP_M2))
    x = np.sqrt(-2.0 * np.log(y[tail]))
    z = 1.0 / x
    p, q = _horner(z, _P1), _horner(z, _Q1)
    far = x >= 8.0  # y below exp(-32): rare, so evaluated apart
    if far.any():
        p[far], q[far] = _horner(z[far], _P2), _horner(z[far], _Q2)
    out[tail] = z * p / q - (x - np.log(x) / x)
    return np.negative(out, out=out, where=u > 0.5)


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
    others. Jitter is Gaussian from lane 1, through ``_ndtri``, a numpy
    port of Cephes' inverse normal CDF (scipy is not loaded); lane 2
    decides a spike and lane 3 draws its uniform size. An error that is
    not finite or not below 2**63 ns in magnitude raises ConfigInvalid.
    """
    try:
        t = np.atleast_1d(np.asarray(t_true_ns, dtype=np.int64))
    except OverflowError:
        raise ConfigInvalid("t_true_ns must be < 2**63")
    if t.size and t.min() < 0:
        raise ConfigInvalid("t_true_ns must be >= 0")
    # An overflow is an inf, and inf - inf a nan; the guard below refuses both.
    with np.errstate(over="ignore", invalid="ignore"):
        offset = _disciplined(model, t)
        if model.jitter_std_ns > 0.0 or model.spike_prob > 0.0:
            u = _uniforms(t, seed, salt, 3 if model.spike_prob > 0.0 else 1)
            if model.jitter_std_ns > 0.0:
                offset += _ndtri(u[:, 0]) * model.jitter_std_ns
            if model.spike_prob > 0.0:
                spike = (2.0 * u[:, 2] - 1.0) * model.spike_max_ns
                offset += np.where(u[:, 1] < model.spike_prob, spike, 0.0)
        if model.spike_max_ns > 0:
            offset = np.minimum(np.maximum(offset, -model.spike_max_ns), model.spike_max_ns)
        offset = np.rint(offset)
    if not np.abs(offset).max(initial=0.0) < 2.0**63:  # nan fails this too
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
        columns = OFFSET_DTYPE.names
        return write_table(columns, [self.samples[c] for c in columns])


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
