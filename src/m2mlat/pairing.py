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

Both steps are array operations, with an event-by-event walk kept only
where events interact. Debouncing walks a stretch of events, each within
the window of the one before, that lasts the window or more; any other
stretch keeps just its first event. Matching solves every window at once
from the hits it would have if no window competed, and walks a chain of
windows only where that solution does not hold. Field captures, with one
burst per motion and seconds between motions, need neither walk.
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
        columns = SAMPLE_DTYPE.names
        return write_table(columns, [self.samples[c] for c in columns])

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
    gap = np.diff(t) >= debounce_ns
    if gap.all():
        return log
    # An event debounce_ns or more after the one before it is kept whatever
    # was kept before it. So a stretch between two such events keeps only
    # its first event unless it lasts debounce_ns or more, and only such a
    # stretch needs the greedy walk.
    keep = np.concatenate(([True], gap))
    heads = np.flatnonzero(keep)
    tails = np.append(heads[1:], len(t)) - 1
    long = t[tails] - t[heads] >= debounce_ns
    if long.any():
        # next_kept[i]: first event debounce_ns or more after event i (t > 0, so t - w fits)
        next_kept = np.searchsorted(t - debounce_ns, t).tolist()
        walked = []
        for head, tail in zip(heads[long].tolist(), tails[long].tolist()):
            i = next_kept[head]
            while i <= tail:
                walked.append(i)
                i = next_kept[i]
        keep[walked] = True
    index = np.flatnonzero(keep)
    return EventLog(log.node, *(c[index] for c in log.columns), log.skipped, log.first_error)


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

    # Operator event i's window holds vehicle events first[i] to last[i]
    # (searched as veh_t minus a duration, which cannot overflow).
    first = np.searchsorted(vehs.t_wall_ns - cfg.min_latency_ns, ops.t_wall_ns)
    last = np.searchsorted(vehs.t_wall_ns - cfg.max_window_ns, ops.t_wall_ns, side="right") - 1
    op_idx, veh_idx = _match(first, last)

    op_t, veh_t = ops.t_wall_ns[op_idx], vehs.t_wall_ns[veh_idx]
    table = (ops.seq[op_idx], vehs.seq[veh_idx], op_t, veh_t, compute_m2m(op_t, veh_t))
    samples = np.column_stack(table).view(SAMPLE_DTYPE)[:, 0]  # one row per pair
    return PairingReport(
        samples=samples,
        unmatched_op=len(ops) - len(samples),
        unmatched_veh=len(vehs) - len(samples),
        suppressed_op=len(op_log) - len(ops),
        suppressed_veh=len(veh_log) - len(vehs),
        config=cfg,
    )


def _match(first: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matched operator and vehicle event indices of the FIFO rule, for
    operator windows that hold vehicle events ``first[i]`` to ``last[i]``.

    Operator event i tries vehicle event ``s_i = max(first_i, s_(i-1) +
    hit_(i-1))`` and hits when ``s_i <= last_i``: windows only move right
    and a match consumes the vehicle event it takes, so every vehicle event
    before ``s`` is out of reach.

    One round takes each window's hit as if no window competed (``first_i
    <= last_i``), solves for every ``s`` at once with a cumsum and a
    cummax, and reads the hits again. Those hits can only be too many, so
    the round's ``s`` and ``s + hit`` are upper bounds. Where ``first_i``
    reaches the bound of the event before, ``s_i`` is ``first_i`` whatever
    came before; such an event starts a stretch, and a stretch whose hits
    read the same twice is solved. ``_walk`` runs on the other stretches
    only, each of which it starts at its first event's ``first``.
    """
    hit = first <= last
    taken = np.cumsum(hit) - hit  # hits before each operator event
    start = taken + np.maximum.accumulate(first - taken)
    wrong = (start <= last) != hit
    if wrong.any():
        head = np.concatenate(([True], first[1:] >= start[:-1] + hit[:-1]))
        stretch = np.cumsum(head)
        unsolved = np.zeros(stretch[-1] + 1, bool)
        unsolved[stretch[wrong]] = True
        redo = np.flatnonzero(unsolved[stretch])
        start[redo], hit[redo] = _walk(first[redo].tolist(), last[redo].tolist())
    op_idx = np.flatnonzero(hit)
    return op_idx, start[op_idx]


def _walk(first: list[int], last: list[int]) -> tuple[list[int], list[bool]]:
    """The FIFO rule one operator event at a time, the reference for
    ``_match``: the vehicle event each operator event tries, and whether it
    hits."""
    start, starts, hits = 0, [], []
    for lo, hi in zip(first, last):
        if start < lo:
            start = lo
        hit = start <= hi
        starts.append(start)
        hits.append(hit)
        start += hit
    return starts, hits
