"""The toolkit's text formats: ``write_table`` writes every CSV table the
toolkit emits, ``write_fields`` every ``key: value`` or ``key=value``
text, and ``read_int_columns`` reads each integer table it takes in
(sample files, scheduling files, ground truth) without numpy.

``write_table`` takes one sequence per column, or one str or int for a
column that holds that value on every row, and has two paths, which
write the same text:

- A table of ``_KERNEL_ROWS`` (768) rows or more whose columns are int
  numpy arrays, save any passed as one int or one ASCII str with no NUL,
  and whose header is ASCII with no NUL, goes to the numpy digit kernel
  in ``digits``: 4,096 rows at a time, it looks every cell's digits up
  four at a time in a word table, and writes an int array whose cells
  are all equal as one literal row. Below that crossover ``%`` is the
  faster of the two. ``digits`` and so numpy are imported only when a
  table takes this path.
- Every other table is formatted in blocks of ``_ROWS_PER_FORMAT``
  (1,024) rows, one ``%`` each, with one row pattern for the whole
  table: a one-value column's text, and a ``%s`` field for each list or
  array column, whose cells fill it, so no tuple or line string is made
  per row.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import ConfigInvalid

# The most rows that one % call formats.
_ROWS_PER_FORMAT = 1024
# The fewest rows at which the digit kernel was no slower than % on any
# table the toolkit writes (ground truth, event log, pairs, offsets); at
# 300 rows it took 1.2 to 1.5 times as long (see CHANGES.md).
_KERNEL_ROWS = 768


def write_table(columns: Sequence[str], cells: Sequence[Sequence | str | int]) -> str:
    """CSV text, LF after every line: the header ``columns``, then one
    line per row of ``cells``, which holds one list or 1-D numpy array per
    column, all of one length, or in place of one a single str or int, the
    cell of every row. At least one column is a list or array: it gives
    the row count.

    Cells are written with ``str`` (a float's is its shortest round-trip
    repr), so callers pass each cell already in its output form: an int,
    float, bool or str.
    """
    varying = [column for column in cells if not isinstance(column, (str, int))]
    lengths = {len(column) for column in varying}
    if len(cells) != len(columns) or len(lengths) != 1:
        raise ValueError(f"write_table needs {len(columns)} columns of one length, "
                         "at least one of them a list or array")
    (rows,) = lengths
    head = ",".join(columns)
    if rows >= _KERNEL_ROWS and _kernel_text(head) and (literals := _kernel_literals(cells)):
        from .digits import int_table
        return int_table(head, cells, literals, rows)
    pattern = ",".join(str(column).replace("%", "%%") if isinstance(column, (str, int))
                       else "%s" for column in cells) + "\n"
    out = [head + "\n"]
    for start in range(0, rows, _ROWS_PER_FORMAT):
        k = min(rows - start, _ROWS_PER_FORMAT)
        flat = [None] * (k * len(varying))
        for j, column in enumerate(varying):
            block = column[start:start + k]
            flat[j::len(varying)] = block.tolist() if hasattr(block, "dtype") else block
        out.append(pattern * k % tuple(flat))
    return "".join(out)


def _kernel_literals(cells: Sequence) -> list[str | None] | None:
    """Per column, None for an int numpy array and the text of one int or
    one ASCII str with no NUL: the columns the digit kernel takes. None if
    some column is neither, or none is an int array."""
    literals = []
    for column in cells:
        if isinstance(column, (str, int)) and _kernel_text(text := str(column)):
            literals.append(text)
        elif hasattr(column, "dtype") and column.dtype.kind in ("i", "u"):
            literals.append(None)
        else:
            return None
    return literals if None in literals else None


def _kernel_text(text: str) -> bool:
    """Whether the digit kernel can write ``text``: ASCII with no NUL,
    which it uses as padding."""
    return text.isascii() and "\0" not in text


def write_fields(fields, sep: str = "=") -> str:
    """One ``name<sep>value`` line, LF-ended, per ``(name, value)`` pair of
    ``fields``, in order: every key-value text the toolkit writes."""
    return "".join(f"{name}{sep}{value}\n" for name, value in fields)


def table_lines(raw: bytes | str) -> list[tuple[int, str]]:
    """(number from 1, line) of each non-blank line; lines end at LF, CRLF or a
    lone CR, and a UTF-8 byte-order mark before the first is dropped."""
    text = raw.decode("utf-8", errors="replace") if isinstance(raw, bytes) else raw
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
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
    return _int_columns(table_lines(raw), columns, where)


def _int_columns(lines: list[tuple[int, str]], columns: Sequence[str], where) -> list[list[int]]:
    """``read_int_columns`` of the ``table_lines`` of a table."""
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
