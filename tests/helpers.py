"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive behavior in the most naive way
possible (full rescans, explicit rational arithmetic) so they stay
independent of the library implementations they check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import m2mlat
from m2mlat.events import EventLog, EventSource, NodeId, Role
from m2mlat.pairing import PairingConfig

OPERATOR = NodeId("operator", Role.OPERATOR)
VEHICLE = NodeId("vehicle", Role.VEHICLE)


# Zeros of scripts whose digits int() takes: Arabic-Indic, Extended
# Arabic-Indic, Devanagari, fullwidth.
_FOREIGN_ZEROS = ("\u0660", "\u06f0", "\u0966", "\uff10")


@st.composite
def lax_integers(draw) -> str:
    """A spelling of an integer >= 10 that int() takes but no integer cell of
    the toolkit's formats allows: a digit-group ``_``, a leading ``+``, or a
    digit of another script."""
    digits = str(draw(st.integers(10, 10**12)))
    kind = draw(st.sampled_from(("underscore", "plus", "script")))
    if kind == "underscore":
        i = draw(st.integers(1, len(digits) - 1))
        cell = digits[:i] + "_" + digits[i:]
    elif kind == "plus":
        cell = "+" + digits
    else:
        i = draw(st.integers(0, len(digits) - 1))
        zero = ord(draw(st.sampled_from(_FOREIGN_ZEROS)))
        cell = digits[:i] + chr(zero + int(digits[i])) + digits[i + 1:]
    assert int(cell) == int(digits)
    return cell


def make_log(
    node: NodeId,
    times_ns,
    *,
    seqs=None,
    source: EventSource = EventSource.HALL_EDGE,
) -> EventLog:
    times = [int(t) for t in times_ns]
    if seqs is None:
        seqs = range(len(times))
    code = tuple(EventSource).index(source)
    return EventLog(node, list(seqs), times, source=[code] * len(times))


def events_of(log: EventLog) -> list[tuple[int, int]]:
    """The log's events as plain ``(seq, t_wall_ns)`` tuples."""
    return list(zip(log.seq.tolist(), log.t_wall_ns.tolist()))


def pairs_of(report) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """A pairing report's matches as ``((op_seq, op_t), (veh_seq, veh_t))``."""
    return [((op_seq, op_t), (veh_seq, veh_t))
            for op_seq, veh_seq, op_t, veh_t, _ in report.samples.tolist()]


def random_times(rng: np.random.Generator, n: int, lo: int, hi: int) -> list[int]:
    """n sorted (non-decreasing) integer timestamps in [lo, hi]."""
    return sorted(int(t) for t in rng.integers(lo, hi, n))


def oracle_order_violation(seqs, times):
    """``(error class name, 1-based position)`` of the first event out of
    order with the one before it, or None when the log is ordered."""
    for pos in range(1, len(seqs)):
        if seqs[pos] <= seqs[pos - 1]:
            return "NonMonotonicSeq", pos + 1
        if times[pos] < times[pos - 1]:
            return "NonMonotonicTime", pos + 1
    return None


def oracle_debounce(events, debounce_ns: int):
    """Greedy first-of-burst scan over ``(seq, t)`` tuples, written from the rule."""
    kept = []
    for ev in events:
        if kept and ev[1] - kept[-1][1] < debounce_ns:
            continue
        kept.append(ev)
    return kept


def oracle_pairs(op_events, veh_events, cfg: PairingConfig):
    """FIFO matching by full rescan over ``(seq, t)`` tuples: for each
    operator event in (time, seq) order, take the first unused vehicle
    event inside its window."""
    ops = sorted(
        oracle_debounce(op_events, cfg.debounce_ns),
        key=lambda ev: (ev[1], ev[0]),
    )
    vehs = sorted(
        oracle_debounce(veh_events, cfg.debounce_ns),
        key=lambda ev: (ev[1], ev[0]),
    )
    used = set()
    matches = []
    for op in ops:
        lo = op[1] + cfg.min_latency_ns
        hi = op[1] + cfg.max_window_ns
        for j, veh in enumerate(vehs):
            if j in used or veh[1] < lo or veh[1] > hi:
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


def oracle_write_table(columns, rows) -> str:
    """The CSV text of ``rows``, one tuple each, built a line at a time."""
    pattern = ",".join(["%s"] * len(columns))
    lines = [",".join(columns)]
    lines.extend(pattern % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


WATCHED_MODULES = (
    "numpy", "scipy", "m2mlat.clocks", "m2mlat.dists", "m2mlat.events",
    "m2mlat.pairing", "m2mlat.probe", "m2mlat.sim", "m2mlat.stats",
)


def loaded_modules(code: str, *args: str) -> list[str]:
    """Which of ``WATCHED_MODULES`` are in ``sys.modules``, sorted, after
    ``code`` runs in a fresh interpreter, with ``args`` as its
    ``sys.argv[1:]`` and the package's ``src`` directory on PYTHONPATH.
    The code must not raise."""
    probe = code + (
        "\nimport json, sys\nprint(json.dumps(sorted(m for m in "
        f"{WATCHED_MODULES!r} if m in sys.modules)))\n"
    )
    src = str(Path(m2mlat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])
