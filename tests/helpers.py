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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import m2mlat
from m2mlat import events
from m2mlat.errors import ConfigInvalid, EmptyLog, LineError, UnparseableLine
from m2mlat.events import (
    EventLog,
    EventSource,
    LogFormat,
    NodeId,
    Role,
    _check_order,
    _header,
    _parse_csv_row,
    _parse_kernel_line,
    _sniff_layout,
    infer_node,
)
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


def oracle_render_config(cfg) -> str:
    """The scenario's INI text as ``configparser.ConfigParser.write``
    writes it, from sections built here field by field."""
    import configparser
    import io

    from m2mlat.dists import EmpiricalDelay
    from m2mlat.sim import CHAIN_COLUMNS, CLOCK_STREAM, MS_NS

    cp = configparser.ConfigParser(interpolation=None)
    cp["scenario"] = {
        "label": cfg.label,
        "stationary": str(cfg.stationary).lower(),
        "sync_mode": cfg.sync_mode.value,
        "trial_interval_s": repr(cfg.trial_interval_s),
        "trials": str(cfg.trials),
        "seed": str(cfg.seed),
        "start_ns": str(cfg.start_ns),
        "clock_stream": CLOCK_STREAM,
    }
    for name in CHAIN_COLUMNS:
        dist = getattr(cfg, name)
        if isinstance(dist, EmpiricalDelay):
            cp[name] = {"kind": dist.kind.value,
                        "samples_ms": ",".join(repr(v / MS_NS) for v in dist.values_ns)}
        else:
            cp[name] = {"kind": dist.kind.value, "median_ms": repr(dist.median_ns() / MS_NS),
                        "iqr_ms": repr(dist.iqr_ns() / MS_NS)}
    if cfg.clock_models is not None:
        for name, model in zip(("clock_op", "clock_veh"), cfg.clock_models):
            cp[name] = {field: repr(value) for field, value in vars(model).items()}
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


def oracle_parse_log(
    raw: str | bytes, fmt: LogFormat, node: NodeId | None, lenient: bool
) -> EventLog:
    """``parse_log`` one line at a time, with the library's line parsers:
    every line goes through them, and a lenient parse collects each line
    they reject, or whose row breaks the order rule, in a list."""
    rejected: list[LineError] = []

    def reject(err: LineError) -> None:
        if not lenient:
            raise err
        rejected.append(err)

    text = raw if isinstance(raw, str) else _decode(raw, reject)
    if fmt is LogFormat.CSV:
        node, columns = _parse_csv(text, node, reject)
    elif fmt is LogFormat.KERNEL_RING:
        if node is None:
            raise ConfigInvalid("kernel ring logs carry no node id; pass node= explicitly")
        columns = _collect(text.split("\n"), 1, _parse_kernel_line, reject)
    else:
        raise ConfigInvalid(f"unsupported log format: {fmt!r}")
    first = min(rejected, key=lambda err: err.line_no, default=None)
    return EventLog(node, *columns, len(rejected), None if first is None else str(first))


def _decode(raw: bytes, reject) -> str:
    """UTF-8 text of a log; each line that is not UTF-8 is rejected and blanked."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        lines = raw.split(b"\n")  # no byte of a multi-byte UTF-8 character is LF
    for pos, line in enumerate(lines):
        try:
            lines[pos] = line.decode("utf-8")
        except UnicodeDecodeError:
            reject(UnparseableLine(pos + 1, "not valid UTF-8"))
            lines[pos] = ""
    return "\n".join(lines)


def _parse_csv(text: str, node: NodeId | None, reject) -> tuple[NodeId, np.ndarray]:
    lines = text.split("\n")
    start = 0
    layout: tuple[str, ...] | None = None

    # Skip leading blank lines, then detect an optional header.
    while start < len(lines) and not lines[start].strip():
        start += 1
    if start < len(lines):
        layout = _header(lines[start], start + 1)
        if layout is not None:
            start += 1

    # Without a header the first row that parses pins the layout, and
    # without a node it pins the node id, for the rest of the file.
    node_id = node.id if node is not None else None

    def parse_line(line: str, line_no: int) -> tuple[int, int, int, int]:
        nonlocal layout, node_id
        row_layout = layout or _sniff_layout([c.strip() for c in line.split(",")])
        if row_layout is None:
            raise UnparseableLine(line_no, "expected 3 to 5 columns")
        node_id, row = _parse_csv_row(line, line_no, row_layout, node_id)
        layout = row_layout
        return row

    columns = _collect(lines[start:], start + 1, parse_line, reject)
    return node or infer_node(node_id), columns


def _collect(
    lines: list[str], first_line_no: int, parse_line, reject
) -> np.ndarray:
    """The four columns of the non-blank lines.

    ``parse_line(line, line_no)`` gives one ``(seq, t_wall, t_mono,
    source)`` row. A line it rejects, or whose row breaks the order rule
    against the last kept row, goes to ``reject``.
    """
    rows: list[tuple[int, int, int, int]] = []
    prev_seq, prev_t = -1, 0  # below every parsed seq and t_wall
    for line_no, line in enumerate(lines, start=first_line_no):
        if not line.strip():
            continue
        try:
            row = parse_line(line, line_no)
            _check_order(prev_seq, prev_t, row[0], row[1], line_no)
        except LineError as err:
            reject(err)
            continue
        rows.append(row)
        prev_seq, prev_t = row[0], row[1]
    if not rows:
        raise EmptyLog("no event records found")
    return np.array(rows, dtype=np.int64).T


def count_line_parser_calls(monkeypatch) -> Counter:
    """Counts, by name, the calls ``parse_log`` makes from here on to the
    line parsers ``events._parse_csv_row`` and ``events._parse_kernel_line``."""
    calls: Counter = Counter()
    for name in ("_parse_csv_row", "_parse_kernel_line"):
        def counted(*args, real=getattr(events, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(events, name, counted)
    return calls


WATCHED_MODULES = (
    "configparser", "dataclasses", "numpy", "scipy", "m2mlat.clocks", "m2mlat.dists",
    "m2mlat.events", "m2mlat.pairing", "m2mlat.probe", "m2mlat.record", "m2mlat.sim",
    "m2mlat.stats",
)


def run_python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter with the package's ``src``
    directory on PYTHONPATH; stdout and stderr captured as bytes. Without
    PYTHONUNBUFFERED, as a console script usually runs, stdout to the pipe
    is block-buffered, so output left unflushed at exit goes missing."""
    src = str(Path(m2mlat.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, timeout=60)


def fresh_result(code: str, *args: str):
    """The JSON value that ``code``, run in a fresh interpreter (see
    ``run_python``) with ``args`` as its ``sys.argv[1:]``, prints on the
    last line of its stdout. The code must not raise."""
    out = run_python("-c", code, *args)
    assert out.returncode == 0, out.stderr.decode()
    return json.loads(out.stdout.splitlines()[-1])


def loaded_modules(code: str, *args: str) -> list[str]:
    """Which of ``WATCHED_MODULES`` are in ``sys.modules``, sorted, after
    ``code`` runs in a fresh interpreter (see ``fresh_result``)."""
    return fresh_result(code + (
        "\nimport json, sys\nprint(json.dumps(sorted(m for m in "
        f"{WATCHED_MODULES!r} if m in sys.modules)))\n"
    ), *args)


@dataclass(frozen=True)
class DataTwin:
    """The frozen dataclass that ``m2mlat.record.Record`` stands in for:
    ``tests/test_record.py`` builds a record with these fields, defaults
    and check, and compares the two."""

    n: int
    label: str = "x"
    parts: tuple = ()

    def __post_init__(self):
        if self.n < 0:
            raise ConfigInvalid(f"n must be >= 0, got {self.n}")


@dataclass(frozen=True, eq=False)
class DataIdentityTwin:
    """``DataTwin``'s fields with identity equality, as ``eq=False`` gives."""

    n: int
    label: str = "x"
