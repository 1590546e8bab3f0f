"""Timestamped interrupt events and the text log formats that carry them.

A capture session involves two nodes, an operator station and a vehicle,
each producing an ordered log of edge-detection events. Two input formats
are supported:

* CSV, the toolkit's canonical format: header
  ``node,seq,t_wall_ns[,t_mono_ns][,source]``, one event per line, UTF-8,
  LF line endings. ``source`` is one of ``hall``, ``pulse``, ``synthetic``
  and defaults to ``hall``. A headerless file is accepted when its first
  line does not begin with ``node,``; headerless 4-column rows are
  disambiguated by whether the fourth field is numeric (``t_mono_ns``) or
  a source name.
* Kernel ring text: one event per line matching
  ``m2m_irq: seq=<uint> ts=<uint ns> src=<hall|pulse>``. Anything before
  the ``m2m_irq:`` marker (such as a bracketed kernel timestamp) is
  ignored. Ring logs carry no node identity, so ``parse_log`` requires an
  explicit ``node`` for this format. Interrupt-logging kernel modules do
  not share a standard output grammar; this line shape is the contract
  this toolkit commits to, and an emitter must match it (or be piped
  through a one-line rewrite) to be ingested.

Timestamps are stored as 64-bit signed integer nanoseconds; derived
statistics may be floating point but storage never is, and a cell beyond
int64 is an unparseable line. An ``EventLog`` is one node (CSV repeats its
id on every line) plus one int64 array per CSV column: ``seq``,
``t_wall_ns``, ``t_mono_ns`` (-1 where absent) and ``source`` (an index
into ``tuple(EventSource)``). Within one log, ``seq`` is strictly
increasing and ``t_wall_ns`` is non-decreasing (equal timestamps are
legal: interrupt bursts can collide at nanosecond granularity);
``_check_order`` is the one place that rule is written.

``parse_log`` reads an ASCII log in one regex pass over the whole text,
with no split into lines. For CSV the row pattern is built from the header
(or the first row's layout) and the pinned node id, and every other line
must be blank. For ring text every ``m2m_irq:`` marker must sit in a
well-formed event line, one per line; the other non-blank lines are the
ones a lenient parse skips. This fast path only returns what the line loop
(``_parse_lines``) returns for the same input, and it hands the input to
that loop unchanged whenever it cannot show this: text that is not ASCII,
a line that is none of the above, a strict ring parse with marker-less
lines, a cell beyond int64, or rows that break the order rule or start at
a ``t_wall_ns`` of 0. So the loop's line parsers write every error message.

CSV does not serialize ``EventLog.meta`` or the node role. Parsing the
output of ``write_log`` (which, like every CSV table of the toolkit, goes
through ``tables.write_table``) reproduces the original log exactly for
logs with empty meta and a canonical node id ("operator" or "vehicle");
for any other node, pass the original ``node`` back into ``parse_log``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .errors import (
    ConfigInvalid,
    EmptyLog,
    LineError,
    NonMonotonicSeq,
    NonMonotonicTime,
    UnparseableLine,
)
from .tables import write_table


class Role(Enum):
    OPERATOR = "operator"
    VEHICLE = "vehicle"


class EventSource(Enum):
    HALL_EDGE = "hall"
    SHARED_PULSE = "pulse"
    SYNTHETIC = "synthetic"


class LogFormat(Enum):
    CSV = "csv"
    KERNEL_RING = "kernelring"


# Source column codes: index into tuple(EventSource); HALL_EDGE is 0.
_SOURCE_NAMES = tuple(s.value for s in EventSource)
_SOURCE_BY_NAME = {name: code for code, name in enumerate(_SOURCE_NAMES)}

# Node ids mapped to roles when no explicit NodeId is supplied; anything
# else defaults to OPERATOR (precision analysis does not use roles, and the
# CLI reassigns roles from its flag names).
_ROLE_BY_ID = {
    "operator": Role.OPERATOR,
    "op": Role.OPERATOR,
    "vehicle": Role.VEHICLE,
    "veh": Role.VEHICLE,
}

_KERNEL_RING_RE = re.compile(
    r"m2m_irq:\s*seq=([0-9]+)\s+ts=([0-9]+)\s+src=(hall|pulse)\s*$"
)

_CSV_COLUMNS = ("node", "seq", "t_wall_ns", "t_mono_ns", "source")


@dataclass(frozen=True)
class NodeId:
    """Identity of one recording endpoint."""

    id: str
    role: Role

    def __post_init__(self):
        if not self.id:
            raise ConfigInvalid("node id must be non-empty")
        if not isinstance(self.role, Role):
            raise ConfigInvalid(f"invalid role: {self.role!r}")


def infer_node(node_id: str) -> NodeId:
    """Build a NodeId from a bare id, guessing the role from well-known names."""
    return NodeId(node_id, _ROLE_BY_ID.get(node_id.lower(), Role.OPERATOR))


class EventLog:
    """An ordered, validated sequence of events from a single node.

    One int64 array per CSV column; ``t_mono_ns`` defaults to -1 (absent)
    and ``source`` to 0 (``hall``). Treat instances as immutable value
    data; they are safe to share read-only across threads.
    """

    def __init__(self, node: NodeId, seq, t_wall_ns, t_mono_ns=None, source=None,
                 meta: dict[str, str] | None = None):
        n = len(seq)
        self.node = node
        self.meta = {} if meta is None else meta
        self.seq, self.t_wall_ns, self.t_mono_ns, self.source = (
            np.ascontiguousarray(c, dtype=np.int64) for c in (
                seq, t_wall_ns, np.full(n, -1) if t_mono_ns is None else t_mono_ns,
                np.zeros(n, np.int64) if source is None else source))
        if any(c.shape != (n,) for c in self.columns):
            raise ConfigInvalid("event log columns must be 1-D and of equal length")
        seq, t = self.seq, self.t_wall_ns
        bad = (seq[1:] <= seq[:-1]) | (t[1:] < t[:-1])
        if bad.any():
            i = int(bad.argmax()) + 1
            _check_order(int(seq[i - 1]), int(t[i - 1]), int(seq[i]), int(t[i]), i + 1)
        # seq and t_wall_ns are ordered now, so their first values are their minima
        if n and (seq[0] < 0 or t[0] <= 0):
            raise ConfigInvalid(f"need seq >= 0 and t_wall_ns > 0, got {seq[0]} and {t[0]}")
        if n and (self.source.min() < 0 or self.source.max() >= len(_SOURCE_NAMES)):
            raise ConfigInvalid("source codes must index tuple(EventSource)")

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """``(seq, t_wall_ns, t_mono_ns, source)``."""
        return self.seq, self.t_wall_ns, self.t_mono_ns, self.source

    def __len__(self) -> int:
        return len(self.seq)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EventLog)
            and (self.node, self.meta) == (other.node, other.meta)
            and all(map(np.array_equal, self.columns, other.columns))
        )


def with_role(log: EventLog, role: Role) -> EventLog:
    """Return the log with the node role replaced; the columns are shared."""
    if log.node.role is role:
        return log
    return EventLog(NodeId(log.node.id, role), *log.columns, dict(log.meta))


def parse_log(
    raw: str | bytes,
    fmt: LogFormat = LogFormat.CSV,
    *,
    node: NodeId | None = None,
    lenient: bool = False,
) -> EventLog:
    """Parse raw log text into a validated EventLog.

    In strict mode (the default) any malformed line, line that is not
    UTF-8, cell beyond int64, or monotonicity violation raises. With
    ``lenient=True`` offending lines are dropped and counted; the count
    and first failure reason are reported in the returned log's ``meta``
    under ``parse_skipped`` / ``parse_first_error``.
    """
    data = _ascii(raw)
    log = None
    if data is not None and fmt is LogFormat.CSV:
        log = _parse_csv_fast(data, node)
    elif data is not None and fmt is LogFormat.KERNEL_RING and node is not None:
        log = _parse_ring_fast(data, node, lenient)
    return _parse_lines(raw, fmt, node, lenient) if log is None else log


def write_log(log: EventLog) -> str:
    """Serialize a log to CSV text, the one writable format.

    Optional columns are emitted only when some event needs them, so all
    header variants of the format are produced naturally.
    """
    cells = {"node": repeat(log.node.id), "seq": log.seq.tolist(),
             "t_wall_ns": log.t_wall_ns.tolist()}
    if (log.t_mono_ns >= 0).any():
        cells["t_mono_ns"] = ["" if t < 0 else t for t in log.t_mono_ns.tolist()]
    if log.source.any():
        cells["source"] = [_SOURCE_NAMES[c] for c in log.source.tolist()]
    return write_table(tuple(cells), zip(*cells.values()))


def _parse_lines(
    raw: str | bytes, fmt: LogFormat, node: NodeId | None, lenient: bool
) -> EventLog:
    """``parse_log`` one line at a time: the reference parser, and the only
    one that rejects lines."""
    state = _LenientState(lenient)
    text = raw if isinstance(raw, str) else _decode(raw, state)
    if fmt is LogFormat.CSV:
        return _parse_csv(text, node, state)
    if fmt is LogFormat.KERNEL_RING:
        if node is None:
            raise ConfigInvalid("kernel ring logs carry no node id; pass node= explicitly")
        return EventLog(node, *_collect(text.split("\n"), 1, _parse_kernel_line, state))
    raise ConfigInvalid(f"unsupported log format: {fmt!r}")


class _LenientState:
    """Skip counters for lenient parsing; strict parsing raises instead."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.skipped = 0
        self.first: LineError | None = None

    def reject(self, err: LineError) -> None:
        if not self.enabled:
            raise err
        self.skipped += 1
        if self.first is None or err.line_no < self.first.line_no:
            self.first = err


def _decode(raw: bytes, state: _LenientState) -> str:
    """UTF-8 text of a log; each line that is not UTF-8 is rejected and blanked."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        lines = raw.split(b"\n")  # no byte of a multi-byte UTF-8 character is LF
    for pos, line in enumerate(lines):
        try:
            lines[pos] = line.decode("utf-8")
        except UnicodeDecodeError:
            state.reject(UnparseableLine(pos + 1, "not valid UTF-8"))
            lines[pos] = ""
    return "\n".join(lines)


def _check_order(prev_seq: int, prev_t: int, seq: int, t_wall: int, line_no: int) -> None:
    """The one ordering rule of a log: seq strictly up, t_wall_ns never down."""
    if seq <= prev_seq:
        raise NonMonotonicSeq(line_no, f"seq {seq} after {prev_seq}")
    if t_wall < prev_t:
        raise NonMonotonicTime(line_no, f"t_wall_ns {t_wall} after {prev_t}")


def _parse_csv(text: str, node: NodeId | None, state: _LenientState) -> EventLog:
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

    # Without a header the first data row pins the layout, and without a
    # node the first event pins the node id, for the rest of the file.
    node_id = node.id if node is not None else None

    def parse_line(line: str, line_no: int) -> tuple[int, int, int, int]:
        nonlocal layout, node_id
        if layout is None:
            layout = _sniff_layout([c.strip() for c in line.split(",")])
            if layout is None:
                raise UnparseableLine(line_no, "expected 3 to 5 columns")
        node_id, row = _parse_csv_row(line, line_no, layout, node_id)
        return row

    columns = _collect(lines[start:], start + 1, parse_line, state)
    return EventLog(node or infer_node(node_id), *columns)


def _collect(
    lines: list[str], first_line_no: int, parse_line, state: _LenientState
) -> tuple:
    """The four columns of the non-blank lines, and the meta of their log.

    ``parse_line(line, line_no)`` gives one ``(seq, t_wall, t_mono,
    source)`` row. A line it rejects, or whose row breaks the order rule
    against the last kept row, goes to ``state``.
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
            state.reject(err)
            continue
        rows.append(row)
        prev_seq, prev_t = row[0], row[1]
    if not rows:
        raise EmptyLog("no event records found")
    meta: dict[str, str] = {}
    if state.skipped:
        meta["parse_skipped"] = str(state.skipped)
        meta["parse_first_error"] = str(state.first)
    return (*np.array(rows, dtype=np.int64).T, meta)


def _header(line: str, line_no: int) -> tuple[str, ...] | None:
    """The layout a header line declares, or None if the line is no header."""
    cells = [c.strip() for c in line.split(",")]
    return _header_layout(cells, line_no) if cells[0] == "node" else None


def _header_layout(cells: list[str], line_no: int) -> tuple[str, ...]:
    if (
        len(cells) < 3
        or tuple(cells[:3]) != _CSV_COLUMNS[:3]
        or any(c not in _CSV_COLUMNS[3:] for c in cells[3:])
        or len(set(cells)) != len(cells)
    ):
        raise UnparseableLine(line_no, f"bad header: {','.join(cells)!r}")
    return tuple(cells)


def _parse_csv_row(
    line: str, line_no: int, layout: tuple[str, ...], pinned_id: str | None
) -> tuple[str, tuple[int, int, int, int]]:
    cells = [c.strip() for c in line.split(",")]
    if len(cells) != len(layout):
        raise UnparseableLine(
            line_no, f"expected {len(layout)} columns, got {len(cells)}"
        )
    row = dict(zip(layout, cells))

    node_id = row["node"]
    if not node_id:
        raise UnparseableLine(line_no, "empty node id")
    if pinned_id is not None and node_id != pinned_id:
        raise UnparseableLine(
            line_no, f"node {node_id!r} does not match log node {pinned_id!r}"
        )

    seq = _parse_uint(row["seq"], line_no, "seq")
    t_wall = _parse_uint(row["t_wall_ns"], line_no, "t_wall_ns")
    if t_wall <= 0:
        raise UnparseableLine(line_no, "t_wall_ns must be positive")
    t_mono = -1
    if row.get("t_mono_ns"):
        t_mono = _parse_uint(row["t_mono_ns"], line_no, "t_mono_ns")
    source = 0
    if row.get("source"):
        try:
            source = _SOURCE_BY_NAME[row["source"]]
        except KeyError:
            raise UnparseableLine(line_no, f"unknown source {row['source']!r}")
    return node_id, (seq, t_wall, t_mono, source)


def _sniff_layout(cells: list[str]) -> tuple[str, ...] | None:
    """Column layout for headerless rows; 4 columns need disambiguation."""
    if len(cells) == 3:
        return _CSV_COLUMNS[:3]
    if len(cells) == 5:
        return _CSV_COLUMNS
    if len(cells) == 4:
        if cells[3] in _SOURCE_BY_NAME:
            return ("node", "seq", "t_wall_ns", "source")
        return ("node", "seq", "t_wall_ns", "t_mono_ns")
    return None


def _parse_uint(cell: str, line_no: int, name: str) -> int:
    # ASCII digits only: int() would also take "1_000", "+2" and other scripts' digits
    if not (cell.isascii() and cell.isdigit()):
        tail = cell[1:]
        if cell[:1] == "-" and tail.isascii() and tail.isdigit() and int(tail):
            raise UnparseableLine(line_no, f"{name} must be non-negative: {-int(tail)}")
        raise UnparseableLine(line_no, f"{name} is not an integer: {cell!r}")
    value = int(cell)
    if value >= 2**63:
        raise UnparseableLine(line_no, f"{name} does not fit in int64: {value}")
    return value


def _parse_kernel_line(line: str, line_no: int) -> tuple[int, int, int, int]:
    marker = line.find("m2m_irq:")
    if marker < 0:
        raise UnparseableLine(line_no, "no m2m_irq: marker")
    m = _KERNEL_RING_RE.match(line[marker:])
    if m is None:
        raise UnparseableLine(line_no, f"bad event line: {line.strip()!r}")
    seq = _parse_uint(m.group(1), line_no, "seq")
    t_wall = _parse_uint(m.group(2), line_no, "ts")
    if t_wall <= 0:
        raise UnparseableLine(line_no, "ts must be positive")
    return seq, t_wall, -1, _SOURCE_BY_NAME[m.group(3)]


# The whole-text fast path of parse_log. It reads ASCII bytes with one
# regex pass per format and gives up (returns None) wherever it cannot
# show that _parse_lines would return the same log.

# The ASCII bytes str.strip() removes, less LF.
_BLANK = rb"[\t\x0b\x0c\r\x1c-\x1f ]"
_LEADING_BLANK_LINES = re.compile(rb"(?:%s*\n)*" % _BLANK)
_LF_BEFORE_BLANK_LINE = re.compile(rb"\n(?=%s*$)" % _BLANK, re.M)
_MARKERLESS_LINE = re.compile(rb"^(?!%s*$)(?![^\n]*m2m_irq:)" % _BLANK, re.M)
_RING_EVENT = re.compile(
    rb"m2m_irq: *seq=([0-9]{1,19}) +ts=([0-9]{1,19}) +src=(hall|pulse) *$", re.M
)
_CSV_CELL = {
    "seq": rb"([0-9]{1,19})",
    "t_wall_ns": rb"([0-9]{1,19})",
    "t_mono_ns": rb"([0-9]{1,19})?",
    "source": rb"(%s)?" % "|".join(_SOURCE_NAMES).encode(),
}
_SOURCE_CODES = {None: 0, **{name.encode(): c for name, c in _SOURCE_BY_NAME.items()}}


def _ascii(raw) -> bytes | None:
    """The log as bytes if it is all ASCII, else None."""
    if isinstance(raw, str):
        return raw.encode() if raw.isascii() else None
    return raw if isinstance(raw, bytes) and raw.isascii() else None


def _line_at(data: bytes, start: int) -> str:
    end = data.find(b"\n", start)
    return data[start:None if end < 0 else end].decode()


def _groups(pattern: re.Pattern, data: bytes) -> list[list]:
    """Each group of ``pattern`` over all its matches in ``data``, None
    where a group did not take part. ``split`` lists the text between
    matches and the groups of each match in one flat list, so each group is
    a slice of it, with no tuple per match."""
    flat = pattern.split(data)
    width = pattern.groups + 1
    return [flat[i::width] for i in range(1, width)]


def _blank_lines(data: bytes, start: int) -> int:
    """How many lines from the one that begins at ``start`` on are blank."""
    first = not _line_at(data, start).strip()
    return first + len(_LF_BEFORE_BLANK_LINE.findall(data, start))


def _parse_csv_fast(data: bytes, node: NodeId | None) -> EventLog | None:
    start = _LEADING_BLANK_LINES.match(data).end()
    try:
        layout = _header(_line_at(data, start), data.count(b"\n", 0, start) + 1)
    except LineError:
        return None
    if layout is not None:
        end = data.find(b"\n", start)
        if end < 0:
            return None
        start = _LEADING_BLANK_LINES.match(data, end + 1).end()
    first = _line_at(data, start).split(",")
    layout = layout or _sniff_layout([c.strip() for c in first])
    # The loop strips each cell of a line split at commas, so the node cell
    # only matches itself if stripping leaves it whole.
    node_id = first[0] if node is None else node.id
    if layout is None or not node_id or node_id != node_id.strip() or "," in node_id:
        return None
    cells = (re.escape(node_id.encode()), *(_CSV_CELL[c] for c in layout[1:]))
    row = re.compile(b"^%s$" % b",".join(cells), re.M)
    # The lines before start are blank or the header, which no row matches.
    columns = dict(zip(layout[1:], _groups(row, data)))
    rows = len(columns["seq"])
    if not rows or rows + _blank_lines(data, start) != data.count(b"\n", start) + 1:
        return None
    ints = [columns["seq"], columns["t_wall_ns"]]
    if "t_mono_ns" in columns:
        ints.append([c or b"-1" for c in columns["t_mono_ns"]])
    return _fast_log(node or infer_node(node_id), ints, columns.get("source"), {})


def _parse_ring_fast(data: bytes, node: NodeId, lenient: bool) -> EventLog | None:
    seq, ts, source = _groups(_RING_EVENT, data)
    # One match per marker: every line with a marker is an event line with
    # no other marker, so the other non-blank lines are the marker-less ones
    # the loop skips.
    if not seq or data.count(b"m2m_irq:") != len(seq):
        return None
    skipped = data.count(b"\n") + 1 - len(seq) - _blank_lines(data, 0)
    meta = {}
    if skipped:
        if not lenient:
            return None
        start = _MARKERLESS_LINE.search(data).start()
        try:
            _parse_kernel_line(_line_at(data, start), data.count(b"\n", 0, start) + 1)
        except LineError as err:
            meta = {"parse_skipped": str(skipped), "parse_first_error": str(err)}
    return _fast_log(node, [seq, ts], source, meta)


def _fast_log(node: NodeId, ints: list, sources, meta: dict[str, str]) -> EventLog | None:
    """The log of the matched cells: ``ints`` holds the seq, t_wall_ns and
    any t_mono_ns cells. None if a cell passes int64 or a row breaks the
    order rule."""
    source = None
    if sources is not None:
        source = np.fromiter(map(_SOURCE_CODES.__getitem__, sources), np.int64, len(sources))
    try:
        seq, t_wall, *t_mono = np.array(ints, dtype=np.int64)
        return EventLog(node, seq, t_wall, t_mono[0] if t_mono else None, source, meta)
    except (OverflowError, LineError, ConfigInvalid):
        return None
