"""Debounce raw edge streams and FIFO-match operator events to vehicle events.

A physical steering motion can fire several sensor edges (multiple
magnets, contact bounce); debouncing keeps the first edge of each burst.
Matching walks operator events in time order and pairs each with the
earliest unconsumed vehicle event inside the acceptance window
``[op_t + min_latency_ns, op_t + max_window_ns]``: vehicle events are
consumed at most once, so later operator events pair with later vehicle
events. Negative latencies are never accepted; they indicate clock error
exceeding the true latency and count as unmatched. Both steps run on the
logs' int64 columns, and each match is one row of a structured array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, EmptyLog, RoleMismatch
from .events import EventLog, Role
from .tables import write_table

MS = 1_000_000

# Field-capture defaults: bursts from one motion land well inside 500 ms,
# medians sit under a second, and trials are spaced further apart than 2 s.
DEFAULT_DEBOUNCE_NS = 500 * MS
DEFAULT_MIN_LATENCY_NS = 0
DEFAULT_MAX_WINDOW_NS = 2_000 * MS


@dataclass(frozen=True)
class PairingConfig:
    debounce_ns: int = DEFAULT_DEBOUNCE_NS
    min_latency_ns: int = DEFAULT_MIN_LATENCY_NS
    max_window_ns: int = DEFAULT_MAX_WINDOW_NS

    def __post_init__(self):
        if self.debounce_ns < 0:
            raise ConfigInvalid("debounce_ns must be >= 0")
        if self.min_latency_ns < 0:
            raise ConfigInvalid("min_latency_ns must be >= 0")
        if self.max_window_ns <= self.min_latency_ns:
            raise ConfigInvalid("max_window_ns must exceed min_latency_ns")
        if max(self.debounce_ns, self.max_window_ns) >= 2**63:
            raise ConfigInvalid("durations must fit in int64 nanoseconds")


# One row per matched pair; also the pairing CSV's columns.
SAMPLE_DTYPE = np.dtype([(name, np.int64) for name in (
    "op_seq", "veh_seq", "op_t_wall_ns", "veh_t_wall_ns", "m2m_ns")])


@dataclass(frozen=True, eq=False)
class PairingReport:
    """Matching outcome plus the bookkeeping needed to audit it.

    ``samples`` is one ``SAMPLE_DTYPE`` row per matched pair, in operator
    time order. Every raw input event is accounted for:
    ``2 * len(samples) + unmatched_op + unmatched_veh + suppressed_op +
    suppressed_veh`` equals the total number of raw events.
    """

    samples: np.ndarray
    unmatched_op: int
    unmatched_veh: int
    suppressed_op: int
    suppressed_veh: int
    config: PairingConfig

    def __eq__(self, other) -> bool:
        # meta_text lists every field but the samples
        return (
            isinstance(other, PairingReport)
            and np.array_equal(self.samples, other.samples)
            and self.meta_text() == other.meta_text()
        )

    @property
    def m2m_values(self) -> np.ndarray:
        """The sample set: the int64 ``m2m_ns`` column, in operator time order."""
        return self.samples["m2m_ns"]

    def to_csv(self) -> str:
        return write_table(SAMPLE_DTYPE.names, self.samples.tolist())

    def meta_text(self) -> str:
        return (
            f"samples={len(self.samples)}\n"
            f"unmatched_op={self.unmatched_op}\n"
            f"unmatched_veh={self.unmatched_veh}\n"
            f"suppressed_op={self.suppressed_op}\n"
            f"suppressed_veh={self.suppressed_veh}\n"
            f"debounce_ns={self.config.debounce_ns}\n"
            f"min_latency_ns={self.config.min_latency_ns}\n"
            f"max_window_ns={self.config.max_window_ns}\n"
        )


def debounce(log: EventLog, debounce_ns: int) -> EventLog:
    """Keep the first event of each burst on one node.

    An event is dropped when it falls strictly within ``debounce_ns`` of
    the last kept event; an event exactly at the window edge is kept.
    Idempotent: when no event is dropped the input log itself is returned.
    """
    if debounce_ns < 0:
        raise ConfigInvalid("debounce_ns must be >= 0")
    t = log.t_wall_ns
    if (np.diff(t) >= debounce_ns).all():
        return log
    # next_kept[i]: first event debounce_ns or more after event i (t > 0, so t - w fits)
    next_kept = np.searchsorted(t - debounce_ns, t).tolist()
    keep, i = [], 0
    while i < len(next_kept):
        keep.append(i)
        i = next_kept[i]
    index = np.array(keep)
    return EventLog(log.node, *(c[index] for c in log.columns), dict(log.meta))


def compute_m2m(op_t_wall_ns, veh_t_wall_ns):
    """Raw motion-to-motion latency in ns, of two timestamp columns (or ints).

    Vehicle minus operator; may be negative, as acceptance is the caller's
    decision. Roles are checked once, on the logs, by ``pair_events``.
    """
    return veh_t_wall_ns - op_t_wall_ns


def pair_events(
    op_log: EventLog, veh_log: EventLog, cfg: PairingConfig | None = None
) -> PairingReport:
    """Debounce both logs, then FIFO-match operator events to vehicle events.

    Ties between candidate vehicle events at the same timestamp go to the
    lower sequence number (log order). Deterministic: the result depends
    only on the event content of the two logs and the config.
    """
    cfg = cfg or PairingConfig()
    if op_log.node.role is not Role.OPERATOR:
        raise RoleMismatch("op_log must come from the operator node")
    if veh_log.node.role is not Role.VEHICLE:
        raise RoleMismatch("veh_log must come from the vehicle node")
    if not len(op_log) or not len(veh_log):
        raise EmptyLog("both logs must contain events to pair")

    ops = debounce(op_log, cfg.debounce_ns)
    vehs = debounce(veh_log, cfg.debounce_ns)

    # first[i]: the earliest vehicle event at or after operator event i's
    # window start (searched as veh_t - min_latency_ns, which cannot
    # overflow). Windows only move right and a match consumes the vehicle
    # event at ``start``, so every vehicle event before ``start`` is out of reach.
    first = np.searchsorted(vehs.t_wall_ns - cfg.min_latency_ns, ops.t_wall_ns).tolist()
    times = vehs.t_wall_ns.tolist()
    n = len(times)
    start = 0
    op_idx, veh_idx = [], []
    for i, t in enumerate(ops.t_wall_ns.tolist()):
        start = max(start, first[i])
        if start < n and times[start] - t <= cfg.max_window_ns:
            op_idx.append(i)
            veh_idx.append(start)
            start += 1

    op_t, veh_t = ops.t_wall_ns[op_idx], vehs.t_wall_ns[veh_idx]
    table = (ops.seq[op_idx], vehs.seq[veh_idx], op_t, veh_t, compute_m2m(op_t, veh_t))
    samples = np.column_stack(table).view(SAMPLE_DTYPE)[:, 0]  # one row per pair
    return PairingReport(
        samples=samples,
        unmatched_op=len(ops) - len(samples),
        unmatched_veh=n - len(samples),
        suppressed_op=len(op_log) - len(ops),
        suppressed_veh=len(veh_log) - n,
        config=cfg,
    )
