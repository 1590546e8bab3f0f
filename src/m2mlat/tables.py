"""The integer CSV table format: ``write_table`` writes every table the
toolkit emits, and ``read_int_columns`` reads each integer table it takes
in (sample files, scheduling files, ground truth) without numpy.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import ConfigInvalid


def write_table(columns: Sequence[str], rows: Iterable[tuple]) -> str:
    """CSV text, LF after every line: the header, then one line per row tuple.

    Cells are written with ``str`` (a float's is its shortest round-trip
    repr), so callers pass each cell already in its output form.
    """
    pattern = ",".join(["%s"] * len(columns))
    lines = [",".join(columns)]
    lines.extend(pattern % row for row in rows)
    return "\n".join(lines) + "\n"


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
