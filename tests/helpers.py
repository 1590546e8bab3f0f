"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive behavior in the most naive way
possible (full rescans, explicit rational arithmetic) so they stay
independent of the library implementations they check.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from m2mlat.events import EventLog, EventRecord, EventSource, NodeId, Role
from m2mlat.pairing import PairingConfig

OPERATOR = NodeId("operator", Role.OPERATOR)
VEHICLE = NodeId("vehicle", Role.VEHICLE)


def make_log(
    node: NodeId,
    times_ns,
    *,
    seqs=None,
    source: EventSource = EventSource.HALL_EDGE,
) -> EventLog:
    times = list(times_ns)
    if seqs is None:
        seqs = range(len(times))
    records = tuple(
        EventRecord(int(seq), int(t), None, source)
        for seq, t in zip(seqs, times)
    )
    return EventLog(node, records)


def random_times(rng: np.random.Generator, n: int, lo: int, hi: int) -> list[int]:
    """n sorted (non-decreasing) integer timestamps in [lo, hi]."""
    return sorted(int(t) for t in rng.integers(lo, hi, n))


def oracle_debounce(records, debounce_ns: int):
    """Greedy first-of-burst scan, written from the rule."""
    kept = []
    for rec in records:
        if kept and rec.t_wall_ns - kept[-1].t_wall_ns < debounce_ns:
            continue
        kept.append(rec)
    return kept


def oracle_pairs(op_records, veh_records, cfg: PairingConfig):
    """FIFO matching by full rescan: for each operator event in (time, seq)
    order, take the first unused vehicle event inside its window."""
    ops = sorted(
        oracle_debounce(op_records, cfg.debounce_ns),
        key=lambda r: (r.t_wall_ns, r.seq),
    )
    vehs = sorted(
        oracle_debounce(veh_records, cfg.debounce_ns),
        key=lambda r: (r.t_wall_ns, r.seq),
    )
    used = set()
    matches = []
    for op in ops:
        lo = op.t_wall_ns + cfg.min_latency_ns
        hi = op.t_wall_ns + cfg.max_window_ns
        for j, veh in enumerate(vehs):
            if j in used or veh.t_wall_ns < lo or veh.t_wall_ns > hi:
                continue
            used.add(j)
            matches.append((op, veh))
            break
    return matches


def oracle_calib_ns(misalignment_deg: float, rate_deg_per_s: float) -> int:
    """Exact rational angle/rate timing error, rounded half away from zero."""
    value = Fraction(misalignment_deg) / Fraction(rate_deg_per_s) * 10**9
    floor_half = (value + Fraction(1, 2)).__floor__()
    if value >= 0:
        return int(floor_half)
    return -int((-value + Fraction(1, 2)).__floor__())
