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
  kernel timestamp) is ignored. A line whose blanks are not the kernel
  module's (one after the marker and one between each two fields, none
  after the source but a CR) is read line by line, more slowly. Ring logs
  carry no node identity, so ``parse_log`` requires an explicit ``node``.
  Interrupt-logging kernel modules do not share a standard output grammar;
  this line shape is the contract this toolkit commits to, and an emitter
  must match it (or be piped through a one-line rewrite) to be ingested.

Either format may start with a UTF-8 byte-order mark, as Excel's "CSV
UTF-8" and PowerShell 5's ``Out-File -Encoding utf8`` write one; it is
dropped, and line numbers do not change.

Timestamps are stored as 64-bit signed integer nanoseconds; derived
statistics may be floating point but storage never is, and a cell beyond
int64 is an unparseable line. An ``EventLog`` is one node (CSV repeats its
id on every line) plus one int64 array per CSV column: ``seq``,
``t_wall_ns``, ``t_mono_ns`` (-1 where absent) and ``source`` (an index
into ``tuple(EventSource)``). Within one log, ``seq`` is strictly
increasing and ``t_wall_ns`` is non-decreasing (equal timestamps are
legal: interrupt bursts can collide at nanosecond granularity);
``_check_order`` writes that rule for one event and ``_out_of_order`` for
all of them.

``parse_log`` has one path: numpy reads the columns of either format from
the bytes, with no Python object per event and one Horner pass per integer
column. No byte of a multi-byte UTF-8 character is a comma, an LF, an ASCII
digit or an ASCII blank, so these scans see the lines and cells that the
line parsers see. A CSV row is a line that starts with the node id the
first row pins, then one comma per cell, 1-19 digits in each integer cell
(``t_mono_ns`` 0-19), a name or nothing in each ``source`` cell and at most
one CR at its end; any other line must be blank. In ring text the spaces
and the ``m2m_irq:`` markers show each event's line, and the three spaces
before its end (its LF, or one CR before it) are the blanks of its fields.
Cells and words are read with one gather each from a view of the text as
overlapping fixed-width windows. The line parsers read only the lines
these checks refuse, and the first CSV row, and write every error message;
a line of bytes that is not UTF-8 is blanked.

A lenient parse keeps the number of lines it skipped in
``EventLog.skipped`` and the error of the first of them in
``EventLog.first_error``; ``EventLog.fields()`` names the two as the
``(name, value)`` pairs that the CLI reports. CSV serializes neither, nor
the node role.
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

import codecs
import re
import threading
from enum import Enum

import numpy as np

from .errors import (
    ConfigInvalid,
    EmptyLog,
    LineError,
    NonMonotonicSeq,
    NonMonotonicTime,
    UnparseableLine,
)
from .record import Record
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


class NodeId(Record):
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
        bad = _out_of_order(seq, t)
        if bad.any():
            i = int(bad.argmax()) + 1
            _check_order(int(seq[i - 1]), int(t[i - 1]), int(seq[i]), int(t[i]), i + 1)
        # seq and t_wall_ns are ordered now, so their first values are their minima
        if n and (seq[0] < 0 or t[0] <= 0):
            raise ConfigInvalid(f"need seq >= 0 and t_wall_ns > 0, got {seq[0]} and {t[0]}")
        if n and (self.source.min() < 0 or self.source.max() >= len(_SOURCE_NAMES)):
            raise ConfigInvalid("source codes must index tuple(EventSource)")

    def fields(self) -> tuple[tuple[str, int | str], ...]:
        """``(("skipped", n), ("first_error", message))`` of a lenient parse's skips, or ``()``."""
        skips = ("skipped", self.skipped), ("first_error", self.first_error)
        return skips if self.skipped else ()

    @property
    def meta(self) -> dict[str, str]:
        """``fields()`` keyed ``parse_<name>``, the text dict that ``bench/field.py`` reads."""
        return {f"parse_{name}": str(value) for name, value in self.fields()}

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
    data, ascii, errors = _utf8(raw, lenient)
    if fmt is LogFormat.CSV:
        node, parse, *body = _read_csv(data, node, lenient, errors)
    elif fmt is LogFormat.KERNEL_RING:
        if node is None:
            raise ConfigInvalid("kernel ring logs carry no node id; pass node= explicitly")
        parse, body = _parse_kernel_line, _read_ring(data, ascii)
    else:
        raise ConfigInvalid(f"unsupported log format: {fmt!r}")
    return _finish(node, parse, lenient, errors, *body)


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
    # a column of one value throughout is passed as that value
    cells = {"node": node_id, "seq": log.seq, "t_wall_ns": log.t_wall_ns}
    if (log.t_mono_ns >= 0).any():
        cells["t_mono_ns"] = ["" if t < 0 else t for t in log.t_mono_ns.tolist()]
    if log.source.any():
        lo = int(np.minimum.reduce(log.source))
        cells["source"] = (_SOURCE_NAMES[lo] if lo == np.maximum.reduce(log.source)
                           else np.array(_SOURCE_NAMES, object)[log.source])
    return write_table(tuple(cells), list(cells.values()))


def _csv_node_id(node_id: str) -> bool:
    """Whether a CSV row's node cell can hold ``node_id`` and read back as
    it: the row parser splits lines at LF and cells at commas, strips each
    cell, and a CR may end a line."""
    return node_id == node_id.strip() and not any(char in node_id for char in ",\r\n")


def _out_of_order(seq: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Whether each event after the first breaks the order rule against the
    one before it."""
    return (seq[1:] <= seq[:-1]) | (t[1:] < t[:-1])


def _check_order(prev_seq: int, prev_t: int, seq: int, t_wall: int, line_no: int) -> None:
    """The one ordering rule of a log: seq strictly up, t_wall_ns never down."""
    if seq <= prev_seq:
        raise NonMonotonicSeq(line_no, f"seq {seq} after {prev_seq}")
    if t_wall < prev_t:
        raise NonMonotonicTime(line_no, f"t_wall_ns {t_wall} after {prev_t}")


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
        return ("node", "seq", "t_wall_ns")
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


# The one parse path: numpy scans and gathers read the rows they vouch for,
# and the line parsers above read only the lines the scans refuse.

# The ASCII bytes str.strip() removes, less LF.
_BLANK = b"\t\x0b\x0c\r\x1c\x1d\x1e\x1f "
# By byte value: whether it is one of _BLANK, and whether it is one of
# _BLANK or LF.
_IS_BLANK, _IS_SPACE = (np.frombuffer(bytes(byte in spaces for byte in range(256)), bool)
                        for spaces in (_BLANK, _BLANK + b"\n"))
_LINE = re.compile(rb"(?m)^.*$")


# Where the first byte sequence that is not UTF-8 starts in each line, as
# the one decode of ``_utf8`` finds them; per thread, since the codec
# registry is global.
_not_utf8 = threading.local()


def _record_not_utf8(err: UnicodeDecodeError) -> tuple[str, int]:
    """Records the start of a bad sequence, and resumes at its line's LF:
    one call per bad line, however many bad bytes it holds."""
    _not_utf8.starts.append(err.start)
    end = err.object.find(b"\n", err.start)
    return "", len(err.object) if end < 0 else end


codecs.register_error("m2mlat.record_not_utf8", _record_not_utf8)


def _utf8(raw: str | bytes, lenient: bool) -> tuple[bytes, bool, list[LineError]]:
    """The log as bytes, without a leading UTF-8 byte-order mark, whether
    they are ASCII, and the error of each line that is not UTF-8, blanked to
    its LF (strict, the first raises). A str is encoded with its
    surrogates, which hold no ASCII byte.

    One decode finds the first bad sequence of each line: no sequence
    holds an LF, so from each LF it finds what a decode from the line's
    start would find.
    """
    if isinstance(raw, str):
        raw = raw.removeprefix("\ufeff")
        return raw.encode(errors="surrogatepass"), raw.isascii(), []
    raw = raw.removeprefix(codecs.BOM_UTF8)
    if raw.isascii():
        return raw, True, []
    _not_utf8.starts = starts = []
    raw.decode(errors="m2mlat.record_not_utf8")
    errors, parts, pos, k = [], [], 0, 0
    for bad in starts:
        start, end = raw.rfind(b"\n", pos, bad) + 1, raw.find(b"\n", bad)
        k += raw.count(b"\n", pos, start)
        errors.append(UnparseableLine(k + 1, "not valid UTF-8"))
        if not lenient:
            raise errors[0]
        parts.append(raw[pos:start])
        pos = len(raw) if end < 0 else end
    data = b"".join(parts) + raw[pos:] if errors else raw
    return data, bool(errors) and data.isascii(), errors


def _line_at(data: bytes, start: int) -> str:
    return _LINE.match(data, start)[0].decode(errors="surrogatepass")


def _refused_lines(data: bytes, refused: np.ndarray, starts: np.ndarray):
    """``(line_no, text)`` of each line refused, read as it is asked for."""
    return ((line + 1, _line_at(data, at)) for line, at in zip(map(int, refused), map(int, starts)))


def _finish(node: NodeId, parse, lenient: bool, errors: list[LineError], row: np.ndarray,
            columns, refused, counted: int = 0) -> EventLog:
    """The log of the rows the scans vouch for, on the lines where ``row``
    is true, and of the ``(line_no, text)`` ``refused`` yields in order for
    ``parse``; ``errors`` and ``counted`` more lines were rejected before.
    The rows merge in line order, and ``EventLog`` checks their order. From
    the first one out of order with the one before it, each row out of
    order with the last row kept is rejected. Strict, the error of the
    lowest line rejected raises.
    """
    first = min(errors, key=lambda err: err.line_no, default=None)
    skipped, more, lines = len(errors) + counted, [], None
    for line_no, line in refused:
        try:
            if line.strip():
                more.append((line_no, *parse(line, line_no)))
        except LineError as err:
            skipped, first = skipped + 1, _lower(first, err)
            if not lenient:  # it is the lowest line refused
                break
    if more:
        more, lines = np.array(more, np.int64).T, np.flatnonzero(row) + 1
        lines, *columns = np.insert(np.vstack((lines, *columns)), np.searchsorted(lines, more[0]),
                                    more, axis=1)
    try:
        log = EventLog(node, *columns, skipped, None if first is None else str(first))
    except (NonMonotonicSeq, NonMonotonicTime) as broken:  # its line_no is the row's, from 1
        seq, t, i = columns[0], columns[1], broken.line_no - 1
        # each row out of order with the one before; the rows between are not
        breaks = (np.flatnonzero(_out_of_order(seq[i - 1:], t[i - 1:])) + i).tolist()
        lines = np.flatnonzero(row) + 1 if lines is None else lines
        keep, last = np.ones(len(seq), bool), i - 1
        for start, stop in zip(breaks, breaks[1:] + [len(seq)]):
            for at in range(start, stop):  # a row kept keeps the rest up to the next break
                try:
                    _check_order(int(seq[last]), int(t[last]), int(seq[at]), int(t[at]),
                                 int(lines[at]))
                except LineError as err:
                    if not lenient:
                        raise _lower(first, err)
                    skipped, first, keep[at] = skipped + 1, _lower(first, err), False
                else:
                    last = stop - 1
                    break
        log = EventLog(node, *(column[keep] for column in columns), skipped, str(first))
    if first is not None and not lenient:
        raise first
    if not len(log):
        raise EmptyLog("no event records found")
    return log


def _lower(first: LineError | None, err: LineError) -> LineError:
    """Whichever of two line errors has the lower line number; None is none."""
    return err if first is None or err.line_no < first.line_no else first


def _read_csv(data: bytes, node: NodeId | None, lenient: bool, errors: list[LineError]):
    """The node of a CSV log, its row parser, and what ``_finish`` takes of
    its body. The header, if any, is the first line that is not blank. The
    row parser reads the lines after it until one parses, which pins the
    layout and, without ``node``, the node id; the scan reads from there.
    """
    lines = ((k, line.start(), line[0].decode(errors="surrogatepass"))
             for k, line in enumerate(_LINE.finditer(data)))
    lines = (line for line in lines if line[2].strip())
    layout, node_id = None, node and node.id
    for n, (k, start, line) in enumerate(lines):
        if not n and (layout := _header(line, k + 1)):
            continue
        try:
            pin = layout or _sniff_layout([c.strip() for c in line.split(",")])
            if pin is None:
                raise UnparseableLine(k + 1, "expected 3 to 5 columns")
            node_id = _parse_csv_row(line, k + 1, pin, node_id)[0]
            break
        except LineError as err:
            if not lenient:
                raise
            errors.append(err)
    else:
        raise EmptyLog("no event records found")
    text = np.frombuffer(data, np.uint8, offset=start)
    row, columns, refused, starts = _csv_columns(text, node_id, pin[1:])
    return (node or infer_node(node_id),
            lambda line, line_no: _parse_csv_row(line, line_no, pin, node_id)[1],
            np.concatenate((np.zeros(k, bool), row)), columns,
            _refused_lines(data, refused + k, starts + start))


def _csv_columns(text: np.ndarray, node_id: str, cells: tuple[str, ...]) -> tuple:
    """Which lines of ``text`` are rows of ``node_id`` and ``cells``, their
    four columns, and the indices and starts of the refused lines: those
    that are neither such a row nor blank.

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
    filled = heads < stops
    others, heads, stops = others[filled], heads[filled], stops[filled]
    # A line that is not blank seldom starts with a blank, so checking the
    # first bytes first spares the gather of every byte of such lines.
    blank = _IS_BLANK[text[heads]]
    if blank.any():
        heads, lengths = heads[blank], (stops - heads)[blank]
        offsets = np.cumsum(lengths) - lengths  # of each line's bytes among all of them
        is_blank = _IS_BLANK[text[np.arange(int(lengths.sum()))
                                  + np.repeat(heads - offsets, lengths)]]
        if not is_blank.all():  # a line that holds a byte that is no blank
            blank[blank] = np.logical_and.reduceat(is_blank, offsets)
        del is_blank
    refused = others[~blank]
    starts = bounds[refused] + 1
    if len(refused):  # their commas are no row's
        commas = commas[row[np.searchsorted(bounds, commas) - 1]]
    rows = np.flatnonzero(row)
    heads, ends = bounds[rows] + 1, bounds[rows + 1]
    del bounds, rows, others, stops  # the parse's peak memory is what it holds at once
    commas = commas.reshape(-1, len(cells))
    # node_id is a cell that the row parser read: no comma or LF in it and no
    # blank at either end. A str log's lone surrogates are encoded as its text.
    word = node_id.encode(errors="surrogatepass")
    ok = (commas[:, 0] == heads + len(word)) & _word_at(text, heads, word)
    ends -= text[ends - 1] == ord("\r")
    columns = {}
    for k, name in enumerate(cells):
        stop = commas[:, k + 1] if k + 1 < len(cells) else ends
        length = stop - commas[:, k] - 1
        if name == "source":
            columns[name], good = _source_cells(text, stop, length)
        else:
            columns[name], good = _uint_cells(text, stop, length, name == "t_mono_ns")
            if name == "t_mono_ns":
                columns[name][length == 0] = -1
        ok &= good
    absent = {"t_mono_ns": -1, "source": 0}  # filled once the cells' gathers are freed
    columns = tuple(columns[name] if name in columns else np.full(len(ends), absent[name])
                    for name in _CSV_COLUMNS[1:])
    if not columns[1].all():  # a t_wall_ns of 0
        ok &= columns[1] > 0
    if not ok.all():
        bad = np.flatnonzero(row)[~ok]
        row[bad] = False
        refused = np.sort(np.append(refused, bad))
        starts = np.sort(np.append(starts, heads[~ok]))  # as lines rise, so do their starts
        columns = tuple(column[ok] for column in columns)
    return row, columns, refused, starts


def _source_cells(text: np.ndarray, stops: np.ndarray, lengths: np.ndarray) -> tuple:
    """The codes of the source cells of ``lengths[i]`` bytes that end at
    ``stops[i]``, 0 (hall) when empty, and which cells are empty or a name."""
    codes = np.zeros(len(stops), np.int64)
    named = lengths == 0
    starts = stops - lengths
    for code, name in enumerate(_SOURCE_NAMES):
        cell = np.flatnonzero(lengths == len(name))
        cell = cell[_word_at(text, starts[cell], name.encode())]
        codes[cell] = code
        named[cell] = True
    return codes, named


def _uint_cells(text: np.ndarray, stops: np.ndarray, lengths: np.ndarray,
                empty: bool = False) -> tuple:
    """The int64 values of the cells of ``lengths[i]`` bytes that end at
    ``stops[i]``, 0 when empty, and which cells hold 1-19 ASCII digits (0-19
    if ``empty``) below 2**63. That mask is built by cell only when some
    cell fails, since it takes a reduction along each row of digits.

    One gather reads the ``width`` bytes before each stop, as many as the
    longest cell has (at most 19), and one Horner pass reads them up to
    where each cell ends, with the bytes before a cell read as 0. Nineteen
    digits stay below 2**64, so no sum wraps. The stops of cells that can
    be well formed ascend, so those that end within the first ``width``
    bytes come first; each is read from the start of the text and moved to
    the end of its window.
    """
    longest = int(lengths.max(initial=1))
    width = min(longest, 19)
    digits = _windows(text, width)[np.maximum(stops - width, 0)].view(np.uint8)
    digits = digits.reshape(len(stops), width)
    for row, stop in enumerate(stops[:width].tolist()):
        if stop >= width:
            break
        digits[row, width - stop:] = text[:stop]
    digits -= np.uint8(ord("0"))
    value = np.zeros(len(stops), np.uint64)
    shortest = int(lengths.min(initial=width))
    every = width - shortest  # the first place that every cell holds
    for place, column in enumerate(digits.T):
        if place < every:
            column *= lengths >= width - place  # a byte before its cell reads as 0
        value *= np.uint64(10)
        value += column
    top = np.uint64(2**63)
    if (longest <= 19 and (empty or shortest > 0) and digits.max(initial=0) <= 9
            and value.max(initial=0) < top):
        return value.view(np.int64), np.ones(len(stops), bool)
    return value.view(np.int64), ((lengths <= 19) & ((lengths > 0) | empty)
                                  & (digits.max(axis=1, initial=0) <= 9) & (value < top))


def _read_ring(data: bytes, ascii: bool) -> tuple:
    """What ``_finish`` takes of ring text.

    One scan finds the spaces (the ASCII bytes ``str.strip()`` removes, LF
    among them) and one the colons; a gather of the 8 bytes up to each
    colon keeps those that end an ``m2m_irq:`` marker. A line of ASCII is
    blank if the spaces hold all its bytes, which their positions show; a
    line of other text is decoded. Each marker's line ends at its LF, or
    at a CR before it, and the three spaces before that end go to
    ``_ring_tails``. A line with a marker whose tail it refuses is refused,
    and the line parser reads it. No tail it reads holds a second marker,
    so the other lines that are not blank have no marker: the first is
    refused, for its message, the rest counted.
    """
    text = np.frombuffer(data, np.uint8)
    spaces = np.flatnonzero(text <= ord(" "))
    byte = text.take(spaces)
    space = _IS_SPACE.take(byte)
    if not space.all():  # a control byte that is no space
        spaces, byte = spaces[space], byte[space]
    colons = np.flatnonzero(text == ord(":"))
    colons = colons[_word_at(text, colons - 7, b"m2m_irq:")]
    # Line k runs from bounds[k] + 1 up to bounds[k + 1], and is blank if as
    # many spaces as bytes lie between those two LFs.
    at_lf = np.flatnonzero(byte == ord("\n"))
    bounds = np.concatenate(([-1], spaces[at_lf], [len(text)]))
    blank = np.diff(bounds) == np.diff(np.concatenate(([-1], at_lf, [len(spaces)])))
    del byte, space  # the parse's peak memory is what it holds at once
    if not ascii:
        for line in np.unique(np.searchsorted(bounds, np.flatnonzero(text > 0x7f)) - 1).tolist():
            blank[line] = not _line_at(data, int(bounds[line]) + 1).strip()
    lines = np.searchsorted(bounds, colons) - 1
    row = np.zeros(len(blank), bool)
    row[lines] = True
    markerless = np.flatnonzero(~(blank | row))
    refused = markerless[:1]
    ends = bounds[lines + 1]  # each marker line's LF, or the end of the text
    cr = text[ends - 1] == ord("\r")  # a marker line holds at least the marker
    ends -= cr
    at = np.append(at_lf, len(spaces))[lines] - cr - [[3], [2], [1]]
    blanks = spaces.take(at, mode="clip") if len(spaces) else np.zeros_like(at)
    blanks[0, at[0] < 0] = -1  # fewer than three spaces before the end
    del spaces, at_lf, blank, cr, at
    ok, *columns = _ring_tails(text, colons, blanks, ends)
    if not ok.all():  # the lines of refused tails, and any other marker on them
        bad = np.zeros(len(row), bool)
        bad[lines[~ok]] = True
        row &= ~bad
        columns = [column[row[lines]] for column in columns]
        refused = np.sort(np.append(refused, np.flatnonzero(bad)))
    return (row, columns, _refused_lines(data, refused, bounds[refused] + 1),
            max(len(markerless) - 1, 0))


def _ring_tails(text: np.ndarray, colons: np.ndarray, blanks: np.ndarray,
                ends: np.ndarray) -> tuple:
    """Which of the tails that run from the markers ending at ``colons`` up
    to ``ends`` are as the kernel module prints them, and their four
    columns. ``blanks`` holds the three spaces before each end, or -1 for
    the first where fewer lie there.

    Such a tail is one blank, ``seq=`` and 1-19 digits, one blank, ``ts=``
    and 1-19 digits (above 0, below 2**63), one blank and ``src=hall`` or
    ``src=pulse``. A blank is a space other than LF. So the three spaces
    before the end are those blanks, and the first of them is the byte
    after the colon. Every other tail is refused.
    """
    ok = blanks[0] == colons + 1
    start, cells = colons + 2, []
    for word, stop in zip((b"seq=", b"ts="), blanks[1:]):
        value, good = _uint_cells(text, stop, stop - start - len(word))
        ok &= good & _word_at(text, start, word)
        start = stop + 1
        cells.append(value)
    named = (ends == start + 8) & _word_at(text, start, b"src=hall")
    pulse = np.flatnonzero(ends == start + 9)
    pulse = pulse[_word_at(text, start[pulse], b"src=pulse")]
    named[pulse] = True
    seq, t_wall = cells
    ok &= named & (t_wall > 0)
    # source codes index tuple(EventSource): hall is 0 and pulse 1
    source = np.zeros(len(seq), np.int64)
    source[pulse] = 1
    return ok, seq, t_wall, np.full(len(seq), -1), source


def _windows(text: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes from each byte of ``text`` on, one item each: a
    view, from which a fancy index gathers the windows it picks at once."""
    return np.ndarray((len(text) - width + 1,), np.dtype((np.void, width)), buffer=text,
                      strides=(1,))


def _word_at(text: np.ndarray, starts: np.ndarray, word: bytes) -> np.ndarray:
    """Whether ``word`` starts at each of ``starts``; a word that would run
    past either end of the text is no match. Each 8 bytes of the word take
    one gather, compared as a little-endian uint64; the bytes after the
    last such 8 are compared one by one."""
    size = len(word)
    if size > len(text):
        return np.zeros(len(starts), bool)
    found = np.ones(len(starts), bool)
    if len(starts) and (starts.min() < 0 or starts.max() > len(text) - size):
        found = (starts >= 0) & (starts <= len(text) - size)
        starts = np.where(found, starts, 0)
    whole = size - size % 8
    for at in range(0, whole, 8):
        cells = _windows(text, 8)[starts + at].view("<u8")
        found &= cells == np.uint64(int.from_bytes(word[at:at + 8], "little"))
    for at in range(whole, size):
        found &= text.take(starts + at) == word[at]
    return found
