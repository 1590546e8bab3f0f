"""Timestamped interrupt events and the text log formats that carry them.

A capture session involves two nodes, an operator station and a vehicle,
each producing an ordered log of edge-detection events. Two input formats
are supported:

* CSV, the toolkit's canonical format: header
  ``node,seq,t_wall_ns[,t_mono_ns][,source]``, one event per line, UTF-8,
  LF or CRLF line endings. ``source`` is one of ``hall``, ``pulse``,
  ``synthetic`` and defaults to ``hall``. A headerless file is accepted
  when its first line does not begin with ``node,``; headerless 4-column
  rows are disambiguated by whether the fourth field is numeric
  (``t_mono_ns``) or a source name. Without a header the first row that parses fixes the
  layout, so a lenient parse that skips a bad first line still reads the
  rows after it.
* Kernel ring text: one event per line matching
  ``m2m_irq: seq=<uint> ts=<uint ns> src=<hall|pulse>``, UTF-8, LF or CRLF
  line endings. The fields may be separated by any ASCII blank (such as a
  tab), and anything before the ``m2m_irq:`` marker (such as a bracketed
  kernel timestamp) is ignored. Ring logs carry no node identity, so
  ``parse_log`` requires an explicit ``node`` for this format.
  Interrupt-logging kernel modules do not share a standard output grammar;
  this line shape is the contract this toolkit commits to, and an emitter
  must match it (or be piped through a one-line rewrite) to be ingested.

Timestamps are stored as 64-bit signed integer nanoseconds; derived
statistics may be floating point but storage never is, and a cell beyond
int64 is an unparseable line. An ``EventLog`` is one node (CSV repeats its
id on every line) plus one int64 array per CSV column: ``seq``,
``t_wall_ns``, ``t_mono_ns`` (-1 where absent) and ``source`` (an index
into ``tuple(EventSource)``). Within one log, ``seq`` is strictly
increasing and ``t_wall_ns`` is non-decreasing (equal timestamps are
legal: interrupt bursts can collide at nanosecond granularity);
``_check_order`` is the one place that rule is written.

``parse_log`` reads a log with no split into lines, and numpy reads the
columns of either format from the bytes, with no Python object per event:
the integer cells come from one Horner pass per column. Both formats must
be UTF-8, in which no byte of a multi-byte character is a comma, an LF, an
ASCII digit or an ASCII blank, so the scans and gathers below see the same
lines and cells as the loop. CSV's layout comes from the header (or the
first row), and one scan each finds the LFs and commas after the header. A
line with one comma per cell after the node id must be a row: gathers
check that it starts with the pinned node id (its UTF-8 bytes) and its
first comma, that each integer cell holds 1-19 digits (``t_mono_ns``
0-19), and that each ``source`` cell is empty or one of the names, byte for
byte, with at most one CR after the last cell. Every other line must hold
only blank bytes. In ring text, one scan each finds the spaces (the ASCII
bytes ``str.strip()`` removes, LF among them), the ``m2m_irq:`` markers and
the ``=`` signs, and gathers at those positions check that each marker
starts a well-formed event, so there is one per line; the other lines that
are not blank are the ones a lenient parse skips. This fast path only
returns what the line loop (``_parse_lines``) returns for the same input.
Wherever it cannot show this it raises ``_Fallback``, and ``parse_log``,
the one place that catches it, hands the input to that loop unchanged: input
that is not UTF-8, a line that is none of the above, a strict ring parse
with marker-less lines, a cell beyond int64, or, from ``_header`` and
``EventLog``, a bad header or rows that break the order rule or start at a
``t_wall_ns`` of 0. So the loop's line parsers write every error message.

A lenient parse keeps the number of lines it skipped in
``EventLog.skipped`` and the error of the first of them in
``EventLog.first_error``. CSV serializes neither, nor the node role.
Parsing the output of ``write_log`` (which, like every CSV table of the
toolkit, goes through ``tables.write_table``) reproduces the original log
exactly for logs that skipped nothing and a canonical node id
("operator" or "vehicle"); for any other node, pass the original ``node``
back into ``parse_log``.
``write_log`` refuses a node id that holds a comma, CR or LF, or that
starts or ends with a blank (anything ``str.strip()`` removes): a row
would then split into other cells, or read back as another id.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    and ``source`` to 0 (``hall``). ``skipped`` counts the lines a lenient
    parse dropped, and ``first_error`` is the error of the first of them,
    given exactly when ``skipped > 0``. Treat instances as immutable value
    data; they are safe to share read-only across threads.
    """

    def __init__(self, node: NodeId, seq, t_wall_ns, t_mono_ns=None, source=None,
                 skipped: int = 0, first_error: str | None = None):
        if skipped < 0 or (first_error is None) != (skipped == 0):
            raise ConfigInvalid(f"skipped={skipped} does not fit first_error={first_error!r}")
        n = len(seq)
        self.node = node
        self.skipped, self.first_error = skipped, first_error
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
    def meta(self) -> dict[str, str]:
        """``skipped`` and ``first_error`` as the text dict that
        ``bench/field.py`` reads, ``{}`` when nothing was skipped. It goes
        with the benchmark's next refresh."""
        if not self.skipped:
            return {}
        return {"parse_skipped": str(self.skipped), "parse_first_error": self.first_error}

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """``(seq, t_wall_ns, t_mono_ns, source)``."""
        return self.seq, self.t_wall_ns, self.t_mono_ns, self.source

    def __len__(self) -> int:
        return len(self.seq)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EventLog)
            and (self.node, self.skipped, self.first_error)
            == (other.node, other.skipped, other.first_error)
            and all(map(np.array_equal, self.columns, other.columns))
        )


def with_role(log: EventLog, role: Role) -> EventLog:
    """Return the log with the node role replaced; the columns are shared."""
    if log.node.role is role:
        return log
    return EventLog(NodeId(log.node.id, role), *log.columns, log.skipped, log.first_error)


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
    ``lenient=True`` offending lines are dropped: the returned log's
    ``skipped`` counts them, and its ``first_error`` is the message of the
    one with the lowest line number.
    """
    try:
        if fmt is LogFormat.CSV:
            return _parse_csv_fast(_utf8(raw), node)
        if fmt is LogFormat.KERNEL_RING and node is not None:
            return _parse_ring_fast(_utf8(raw), node, lenient)
    except (_Fallback, LineError, ConfigInvalid):
        # the fast path's own refusals, and the header or order errors of
        # _header and EventLog: the loop writes every error message
        pass
    return _parse_lines(raw, fmt, node, lenient)


def write_log(log: EventLog) -> str:
    """Serialize a log to CSV text, the one writable format.

    Optional columns are emitted only when some event needs them, so all
    header variants of the format are produced naturally. A node id that
    ``parse_log`` could not read back (see the module docstring) raises
    ConfigInvalid.
    """
    node_id = log.node.id
    if not _csv_node_id(node_id):
        raise ConfigInvalid(f"node id {node_id!r} cannot be written to CSV: it holds a "
                            "comma, CR or LF, or starts or ends with a blank")
    cells = {"node": [node_id] * len(log), "seq": log.seq, "t_wall_ns": log.t_wall_ns}
    if (log.t_mono_ns >= 0).any():
        cells["t_mono_ns"] = ["" if t < 0 else t for t in log.t_mono_ns.tolist()]
    if log.source.any():
        cells["source"] = np.array(_SOURCE_NAMES, object)[log.source]
    return write_table(tuple(cells), list(cells.values()))


def _csv_node_id(node_id: str) -> bool:
    """Whether a CSV row's node cell can hold ``node_id`` and read back as
    it: the loop splits lines at LF and cells at commas, strips each cell,
    and a CR may end a line."""
    return node_id == node_id.strip() and not any(char in node_id for char in ",\r\n")


def _parse_lines(
    raw: str | bytes, fmt: LogFormat, node: NodeId | None, lenient: bool
) -> EventLog:
    """``parse_log`` one line at a time: the reference parser, and the only
    one that rejects lines."""
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


def _check_order(prev_seq: int, prev_t: int, seq: int, t_wall: int, line_no: int) -> None:
    """The one ordering rule of a log: seq strictly up, t_wall_ns never down."""
    if seq <= prev_seq:
        raise NonMonotonicSeq(line_no, f"seq {seq} after {prev_seq}")
    if t_wall < prev_t:
        raise NonMonotonicTime(line_no, f"t_wall_ns {t_wall} after {prev_t}")


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


def _header(line: str, line_no: int) -> tuple[str, ...] | None:
    """The layout a header line declares, or None if the line is no header."""
    cells = tuple(c.strip() for c in line.split(","))
    if cells[0] != "node":
        return None
    if (
        cells[:3] != _CSV_COLUMNS[:3]
        or any(c not in _CSV_COLUMNS[3:] for c in cells[3:])
        or len(set(cells)) != len(cells)
    ):
        raise UnparseableLine(line_no, f"bad header: {','.join(cells)!r}")
    return cells


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


# The whole-text fast path of parse_log. It checks the bytes with numpy
# scans and gathers, reads the columns with numpy, and raises _Fallback
# wherever it cannot show that _parse_lines would return the same log;
# parse_log then hands the input to that loop.

# The ASCII bytes str.strip() removes, less LF.
_BLANK = b"\t\x0b\x0c\r\x1c\x1d\x1e\x1f "
# By byte value: whether it is one of _BLANK, and whether it is one of
# _BLANK or LF.
_IS_BLANK, _IS_SPACE = (np.frombuffer(bytes(byte in spaces for byte in range(256)), bool)
                        for spaces in (_BLANK, _BLANK + b"\n"))
_LEADING_BLANK_LINES = re.compile(rb"(?:[%s]*\n)*" % _BLANK)


class _Fallback(Exception):
    """The fast path cannot vouch for the input; the line loop reads it."""


def _require(ok) -> None:
    if not ok:
        raise _Fallback


def _utf8(raw) -> bytes:
    """The log as bytes; _Fallback unless it is a str that encodes or UTF-8 bytes."""
    try:
        if isinstance(raw, str):
            return raw.encode()
        if isinstance(raw, bytes):
            if not raw.isascii():
                raw.decode()
            return raw
    except UnicodeError:
        pass
    raise _Fallback


def _line_at(data: bytes, start: int) -> str:
    end = data.find(b"\n", start)
    return data[start:None if end < 0 else end].decode()


def _parse_csv_fast(data: bytes, node: NodeId | None) -> EventLog:
    start = _LEADING_BLANK_LINES.match(data).end()
    layout = _header(_line_at(data, start), data.count(b"\n", 0, start) + 1)
    if layout is not None:
        end = data.find(b"\n", start)
        _require(end >= 0)
        start = _LEADING_BLANK_LINES.match(data, end + 1).end()
    first = _line_at(data, start).split(",")
    layout = layout or _sniff_layout([c.strip() for c in first])
    node_id = first[0] if node is None else node.id
    _require(layout is not None and node_id and _csv_node_id(node_id))
    return _csv_columns(np.frombuffer(data, np.uint8, offset=start), node_id,
                        node or infer_node(node_id), layout[1:])


def _csv_columns(text: np.ndarray, node_id: str, node: NodeId,
                 cells: tuple[str, ...]) -> EventLog:
    """The log of the lines of ``text`` if each one is blank or a row of
    ``node_id`` and ``cells``; _Fallback if not, if no row is there or if
    a cell passes int64.

    Node ids and blank lines hold no comma, so a row is a line that holds
    ``len(cells)`` commas, and every other line must hold only ``_BLANK``
    bytes. A row starts with the node id, up to its first comma, and may
    end in one CR; each cell runs from the comma before it to the next
    comma or, for the last one, the end of its row before that CR.
    """
    commas = np.flatnonzero(text == ord(","))
    # Line k runs from bounds[k] + 1 up to bounds[k + 1]. A comma is no
    # blank, so the blank check refuses a line with the wrong number of
    # commas too.
    bounds = np.concatenate(([-1], np.flatnonzero(text == ord("\n")), [len(text)]))
    row = np.diff(np.searchsorted(commas, bounds)) == len(cells)
    others = np.flatnonzero(~row)
    heads, stops = bounds[others] + 1, bounds[others + 1]
    heads, stops = heads[heads < stops], stops[heads < stops]
    # A line that is not blank seldom starts with a blank, so checking the
    # first bytes first spares the gather of every byte of such lines.
    _require(_IS_BLANK[text[heads]].all() and _IS_BLANK[text[_spans(heads, stops)]].all())
    rows = np.flatnonzero(row)
    heads, ends = bounds[rows] + 1, bounds[rows + 1]
    del bounds, row, others, rows  # the parse's peak memory is what it holds at once
    commas = commas.reshape(-1, len(cells))
    word = node_id.encode()
    _require(len(commas) and ((commas[:, 0] == heads + len(word))
                              & _word_at(text, heads, word)).all())
    del heads
    ends -= text[ends - 1] == ord("\r")
    stops = np.vstack((commas.T[1:], ends))
    lengths = stops - commas.T - 1
    columns = {}
    for name, stop, length in zip(cells, stops, lengths):
        if name == "source":
            columns[name] = _source_cells(text, stop, length)
        else:
            _require(length.max() <= 19 and (name == "t_mono_ns" or length.min() > 0))
            columns[name] = _uint_cells(text, stop, length)
    if "t_mono_ns" in columns:
        columns["t_mono_ns"][lengths[cells.index("t_mono_ns")] == 0] = -1
    return EventLog(node, columns["seq"], columns["t_wall_ns"], columns.get("t_mono_ns"),
                    columns.get("source"))


def _spans(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The positions from each of ``starts`` up to its stop, in order."""
    lengths = stops - starts
    return np.arange(int(lengths.sum())) + np.repeat(starts - (np.cumsum(lengths) - lengths),
                                                     lengths)


def _source_cells(text: np.ndarray, stops: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The codes of the source cells of ``lengths[i]`` bytes that end at
    ``stops[i]``, 0 (hall) when empty; _Fallback unless each is empty or a
    name."""
    codes = np.zeros(len(stops), np.int64)
    named = lengths == 0
    starts = stops - lengths
    for code, name in enumerate(_SOURCE_NAMES):
        cell = np.flatnonzero(lengths == len(name))
        cell = cell[_word_at(text, starts[cell], name.encode())]
        codes[cell] = code
        named[cell] = True
    _require(named.all())
    return codes


def _uint_cells(text: np.ndarray, stops: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The int64 values of the cells of ``lengths[i]`` (at most 19) bytes
    that end at ``stops[i]``, 0 when empty; _Fallback if a cell holds a byte
    that is no ASCII digit, or is 2**63 or more.

    One Horner pass reads as many bytes as the longest cell has, up to where
    each cell ends, with the bytes before a cell read as 0. Nineteen digits
    stay below 2**64, so no sum wraps. ``stops`` ascend, so the cells that
    end within the first ``width`` bytes come first; each is read from the
    start of the text and moved to the end of its window.
    """
    width = max(int(lengths.max()), 1)
    digits = sliding_window_view(text, width)[np.maximum(stops - width, 0)]
    for row, stop in enumerate(stops[:width].tolist()):
        if stop >= width:
            break
        digits[row, width - stop:] = text[:stop]
    digits -= np.uint8(ord("0"))
    value = np.zeros(len(stops), np.uint64)
    every = width - int(lengths.min())  # the first place that every cell holds
    for place, column in enumerate(digits.T):
        if place < every:
            column *= lengths >= width - place  # a byte before its cell reads as 0
        value *= np.uint64(10)
        value += column
    _require(digits.max() <= 9 and value.max() < np.uint64(2**63))
    return value.view(np.int64)


def _parse_ring_fast(data: bytes, node: NodeId, lenient: bool) -> EventLog:
    """The log of ring text that is UTF-8, read from the bytes as CSV is.

    One scan each finds the spaces (the ASCII bytes ``str.strip()`` removes,
    LF among them), the ``m2m_irq:`` markers and, in ``_ring_tails``, the
    ``=`` signs. A line of ASCII is blank if the spaces hold all its bytes,
    which their positions show; a line of other text is decoded. Each marker
    must start a tail that ``_ring_tails`` reads. No tail holds a second
    marker, so the lines the loop skips are the others that are not blank.
    """
    text = np.frombuffer(data, np.uint8)
    spaces = np.flatnonzero(text <= ord(" "))
    byte = text.take(spaces)
    space = _IS_SPACE.take(byte)
    if not space.all():  # a control byte that is no space
        spaces, byte = spaces[space], byte[space]
    colons = np.flatnonzero(text == ord(":"))
    colons = colons[colons >= 7]
    for back, marker_byte in enumerate(b"qri_m2m", 1):
        colons = colons[text[colons - back] == marker_byte]
    _require(len(colons))
    # Line k runs from bounds[k] + 1 up to bounds[k + 1], and is blank if as
    # many spaces as bytes lie between those two LFs.
    at_lf = np.flatnonzero(byte == ord("\n"))
    bounds = np.concatenate(([-1], spaces[at_lf], [len(text)]))
    blank = np.diff(bounds) == np.diff(np.concatenate(([-1], at_lf, [len(spaces)])))
    del byte, space, at_lf  # the parse's peak memory is what it holds at once
    if not data.isascii():
        for line in np.unique(np.searchsorted(bounds, np.flatnonzero(text > 0x7f)) - 1).tolist():
            blank[line] = not _line_at(data, int(bounds[line]) + 1).strip()
    lines = np.searchsorted(bounds, colons) - 1
    ends = bounds[lines + 1]
    markerless = ~blank
    markerless[lines] = False
    skipped = np.flatnonzero(markerless)
    first_error = None
    if len(skipped):
        _require(lenient)
        first = int(skipped[0])
        try:
            _parse_kernel_line(_line_at(data, int(bounds[first]) + 1), first + 1)
        except LineError as err:
            first_error = str(err)
    del bounds, blank, lines, markerless
    return EventLog(node, *_ring_tails(text, spaces, colons, ends), len(skipped), first_error)


def _ring_tails(text: np.ndarray, spaces: np.ndarray, colons: np.ndarray,
                ends: np.ndarray) -> tuple:
    """The ``seq``, ``t_wall_ns``, ``t_mono_ns`` and ``source`` columns of
    the tails that run from the markers ending at ``colons`` up to ``ends``;
    _Fallback unless every tail is well formed.

    A tail is blanks, ``seq=`` and 1-19 digits, blanks, ``ts=`` and 1-19
    digits, blanks, ``src=`` and a source name, then blanks. A blank is a
    space other than LF: what the loop's ``\\s`` takes there in ASCII. The
    three ``=`` of a tail are the first three after its marker, and each
    digit cell ends at the next space. Each blank run then starts at the
    space that follows the run before it, so walking ``spaces`` from the
    first one after the marker checks it with two gathers.
    """
    eqs = np.flatnonzero(text == ord("="))
    first = np.searchsorted(eqs, colons)
    _require(first[-1] + 3 <= len(eqs) and len(spaces))  # a tail holds three = and blanks
    seq_eq, ts_eq, src_eq = eqs[first], eqs[first + 1], eqs[first + 2]
    del eqs, first
    pulse = _word_at(text, src_eq + 1, b"pulse")
    _require(((_word_at(text, src_eq + 1, b"hall") | pulse) & _word_at(text, seq_eq - 3, b"seq")
              & _word_at(text, ts_eq - 2, b"ts") & _word_at(text, src_eq - 3, b"src")).all())
    at = np.searchsorted(spaces, colons)
    _require(_space_run(spaces, at, colons + 1, seq_eq - 3).all())
    at += seq_eq - 4 - colons
    cells = []
    for eq, word in ((seq_eq, ts_eq - 2), (ts_eq, src_eq - 3)):
        stops = spaces.take(at, mode="clip")
        lengths = stops - eq - 1
        _require(((lengths > 0) & (lengths < 20) & (stops < word)
                  & _space_run(spaces, at, stops, word)).all())
        at += word - stops
        cells.append(_uint_cells(text, stops, lengths))
    _require(_space_run(spaces, at, src_eq + 5 + pulse, ends).all())
    seq, t_wall = cells
    # source codes index tuple(EventSource): hall is 0 and pulse 1
    return seq, t_wall, None, pulse.astype(np.int64)


def _space_run(spaces: np.ndarray, at: np.ndarray, starts: np.ndarray,
               stops: np.ndarray) -> np.ndarray:
    """Whether the bytes from ``starts`` up to ``stops`` are spaces, the
    first of them ``spaces[at]``: true of an empty run and false of one that
    would end before it starts. ``spaces`` rises, so it holds every byte of
    the run if it holds its first and last this far apart."""
    last = at + (stops - starts) - 1
    return (stops == starts) | (
        (stops > starts) & (last < len(spaces)) & (spaces.take(at, mode="clip") == starts)
        & (spaces.take(last, mode="clip") == stops - 1))


def _word_at(text: np.ndarray, starts: np.ndarray, word: bytes) -> np.ndarray:
    """Whether ``word`` starts at each of ``starts``; a byte past the end of
    the text reads as its last one."""
    found = np.ones(len(starts), bool)
    for offset, byte in enumerate(word):
        found &= text.take(starts + offset, mode="clip") == byte
    return found
