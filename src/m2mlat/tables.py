"""The integer CSV table format: ``write_table`` writes every table the
toolkit emits, and ``read_int_columns`` reads each integer table it takes
in (sample files, scheduling files, ground truth) without numpy.

``write_table`` takes one sequence per column and formats blocks of
``_ROWS_PER_FORMAT`` (1,024) rows, one ``%`` each: a column whose int or
str cells are all equal within the block is written into the block's row
pattern, and the cells of the other columns fill its ``%s`` fields, so no
tuple or line string is made per row.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import ConfigInvalid

# The most rows that one % call formats.
_ROWS_PER_FORMAT = 1024


def write_table(columns: Sequence[str], cells: Sequence[Sequence]) -> str:
    """CSV text, LF after every line: the header ``columns``, then one
    line per row of ``cells``, which holds one list or 1-D numpy array per
    column, all of one length.

    Cells are written with ``str`` (a float's is its shortest round-trip
    repr), so callers pass each cell already in its output form: an int,
    float, bool or str.
    """
    rows = len(cells[0]) if cells else 0
    if len(cells) != len(columns) or any(len(column) != rows for column in cells):
        raise ValueError(f"write_table needs {len(columns)} columns of one length")
    out = [",".join(columns) + "\n"]
    for start in range(0, rows, _ROWS_PER_FORMAT):
        fields, varying = [], []
        for column in cells:
            block = column[start:start + _ROWS_PER_FORMAT]
            typed = False  # a numpy array's cells share one type unless it holds objects
            if hasattr(block, "dtype"):
                typed, block = block.dtype.kind != "O", block.tolist()
            text = _constant_text(block, typed)
            if text is None:
                fields.append("%s")
                varying.append(block)
            else:
                fields.append(text)
        k = min(rows - start, _ROWS_PER_FORMAT)
        flat = [None] * (k * len(varying))
        for j, block in enumerate(varying):
            flat[j::len(varying)] = block
        out.append((",".join(fields) + "\n") * k % tuple(flat))
    return "".join(out)


def _constant_text(block: list, typed: bool) -> str | None:
    """The text of every cell of ``block``, escaped for a ``%`` pattern, if
    the cells are equal ints or equal strs; else None. ``typed``: every
    cell has one type.

    Equal cells of other types may print differently (``0.0 == -0.0``, and
    ``True == 1``), so only an int or str column folds, and a list whose
    first cell is an int only if every cell is an int.
    """
    first = block[0]
    if (type(first) not in (int, str) or block[-1] != first
            or block.count(first) != len(block)):
        return None
    if not typed and type(first) is int and set(map(type, block)) != {int}:
        return None
    return str(first).replace("%", "%%")


def table_lines(raw: bytes | str) -> list[tuple[int, str]]:
    """(number from 1, line) of each non-blank line; lines end at LF, CRLF or a lone CR."""
    text = raw.decode("utf-8", errors="replace") if isinstance(raw, bytes) else raw
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return [(no, line) for no, line in enumerate(text.split("\n"), start=1) if line.strip()]


def read_int_columns(raw: bytes | str, columns: Sequence[str], where) -> list[list[int]]:
    """The integers of each named column, in the order of ``columns``.

    The first non-blank line is the header when it names every column;
    every row after it then holds as many cells as the header. Without
    such a header, a one-column table may hold one bare value per line.
    A cell is ASCII digits after an optional ``-``, within int64: ``int()``
    alone would also take ``+5``, ``1_000`` and other scripts' digits, and
    bytes that are not UTF-8 are replaced, so refused. A fault raises
    ConfigInvalid naming ``where`` (a path, or what the table is) and the line.
    """
    lines = table_lines(raw)
    header = [cell.strip() for cell in lines[0][1].split(",")] if lines else []
    if all(column in header for column in columns):
        indexes = [header.index(column) for column in columns]
        lines = lines[1:]
    elif len(columns) == 1:
        header, indexes = [], [0]
    else:
        raise ConfigInvalid(f"{where}: no header naming {','.join(columns)}")
    values: list[list[int]] = [[] for _ in columns]
    for line_no, line in lines:
        cells = line.split(",") if header else [line]
        if header and len(cells) != len(header):
            raise ConfigInvalid(f"{where} line {line_no}: {len(cells)} cells "
                                f"under a {len(header)}-column header: {line!r}")
        for column, index, out in zip(columns, indexes, values):
            cell = cells[index].strip()
            digits = cell[1:] if cell[:1] == "-" else cell
            if not (digits.isascii() and digits.isdigit()):
                raise ConfigInvalid(f"{where} line {line_no}: no integer {column}: {line!r}")
            value = int(cell)
            if not -(2**63) <= value < 2**63:
                raise ConfigInvalid(f"{where} line {line_no}: {column} does not fit "
                                    f"in int64: {value}")
            out.append(value)
    return values
