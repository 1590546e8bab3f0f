"""The one writer behind every CSV table the toolkit emits."""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def write_table(columns: Sequence[str], rows: Iterable[tuple]) -> str:
    """CSV text, LF after every line: the header, then one line per row tuple.

    Cells are written with ``str`` (a float's is its shortest round-trip
    repr), so callers pass each cell already in its output form.
    """
    pattern = ",".join(["%s"] * len(columns))
    lines = [",".join(columns)]
    lines.extend(pattern % row for row in rows)
    return "\n".join(lines) + "\n"
