"""Debounce raw edge streams and FIFO-match operator events to vehicle events.

A physical steering motion can fire several sensor edges (multiple
magnets, contact bounce); debouncing keeps the first edge of each burst.
Matching then walks operator events in time order and pairs each with the
earliest unconsumed vehicle event inside the acceptance window
``[op_t + min_latency_ns, op_t + max_window_ns]``. Vehicle events are
consumed at most once, so the matching is monotone: later operator events
pair with later vehicle events. Negative computed latencies are never
accepted; they indicate clock error exceeding the true latency and are
surfaced as unmatched counts instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigInvalid, EmptyLog, RoleMismatch
from .events import EventLog, EventRecord, Role
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


@dataclass(frozen=True)
class LatencySample:
    """One matched operator/vehicle event pair."""

    op_event: EventRecord
    veh_event: EventRecord
    m2m_ns: int

    def __post_init__(self):
        if self.m2m_ns != self.veh_event.t_wall_ns - self.op_event.t_wall_ns:
            raise ConfigInvalid("m2m_ns must equal the event timestamp difference")


@dataclass(frozen=True)
class PairingReport:
    """Matching outcome plus the bookkeeping needed to audit it.

    Every raw input event is accounted for:
    ``2 * len(samples) + unmatched_op + unmatched_veh + suppressed_op +
    suppressed_veh`` equals the total number of raw events.
    """

    samples: tuple[LatencySample, ...]
    unmatched_op: int
    unmatched_veh: int
    suppressed_op: int
    suppressed_veh: int
    config: PairingConfig

    @property
    def m2m_values(self) -> list[int]:
        return [s.m2m_ns for s in self.samples]

    def to_csv(self) -> str:
        return write_table(
            ("op_seq", "veh_seq", "op_t_wall_ns", "veh_t_wall_ns", "m2m_ns"),
            ((s.op_event.seq, s.veh_event.seq, s.op_event.t_wall_ns,
              s.veh_event.t_wall_ns, s.m2m_ns) for s in self.samples),
        )

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
    if debounce_ns == 0:
        return log
    kept = []
    last_kept_t: int | None = None
    for rec in log.records:
        if last_kept_t is not None and rec.t_wall_ns - last_kept_t < debounce_ns:
            continue
        kept.append(rec)
        last_kept_t = rec.t_wall_ns
    if len(kept) == len(log.records):
        return log
    return EventLog(log.node, tuple(kept), dict(log.meta))


def compute_m2m(e1: EventRecord, e2: EventRecord) -> int:
    """Raw motion-to-motion latency in ns: vehicle event ``e2`` minus operator ``e1``.

    May be negative; acceptance is the caller's decision. Roles are checked
    once, on the logs, by ``pair_events``.
    """
    return e2.t_wall_ns - e1.t_wall_ns


def pair_events(
    op_log: EventLog, veh_log: EventLog, cfg: PairingConfig | None = None
) -> PairingReport:
    """Debounce both logs, then FIFO-match operator events to vehicle events.

    Ties between candidate vehicle events at the same timestamp go to the
    lower sequence number (log order). Deterministic: the result depends
    only on the record content of the two logs and the config.
    """
    cfg = cfg or PairingConfig()
    if op_log.node.role is not Role.OPERATOR:
        raise RoleMismatch("op_log must come from the operator node")
    if veh_log.node.role is not Role.VEHICLE:
        raise RoleMismatch("veh_log must come from the vehicle node")
    if not op_log.records or not veh_log.records:
        raise EmptyLog("both logs must contain events to pair")

    ops = debounce(op_log, cfg.debounce_ns)
    vehs = debounce(veh_log, cfg.debounce_ns)
    suppressed_op = len(op_log.records) - len(ops.records)
    suppressed_veh = len(veh_log.records) - len(vehs.records)

    veh_recs = vehs.records
    n = len(veh_recs)
    consumed = [False] * n
    start = 0  # first vehicle event that is neither consumed nor below any future window
    samples: list[LatencySample] = []
    unmatched_op = 0
    for op in ops.records:
        lo = op.t_wall_ns + cfg.min_latency_ns
        hi = op.t_wall_ns + cfg.max_window_ns
        # Windows only ever move right, so everything skipped here is
        # permanently out of reach.
        while start < n and (consumed[start] or veh_recs[start].t_wall_ns < lo):
            start += 1
        if start < n and veh_recs[start].t_wall_ns <= hi:
            veh = veh_recs[start]
            consumed[start] = True
            samples.append(LatencySample(op, veh, compute_m2m(op, veh)))
        else:
            unmatched_op += 1
    unmatched_veh = n - len(samples)
    return PairingReport(
        samples=tuple(samples),
        unmatched_op=unmatched_op,
        unmatched_veh=unmatched_veh,
        suppressed_op=suppressed_op,
        suppressed_veh=suppressed_veh,
        config=cfg,
    )
