"""The digit kernel behind ``tables.write_table``'s large integer tables.

A table here is int numpy arrays plus columns passed as one int or one
ASCII str. ``_ROWS_PER_CHUNK`` rows at a time, every cell becomes a run
of 4-byte words in one uint32 matrix: an int's digits are split into
groups of four and each group is looked up in a word table, with NUL
bytes in front of the number's leading group. The two NUL bytes each
cell keeps in front hold its separator (LF before the first column, a
comma before the others) and its ``-``. A one-value column, and an int
array whose cells are all equal, is the same literal words on every row.
The first chunk's matrix begins with the header's words and the last
one's ends with the closing LF, so deleting the NULs from the matrix
leaves the chunk's text, each line begun by its LF, and a table of one
chunk is written with no joining copy.

``tables`` imports this module only when a table takes this path, so a
command that writes only small tables (``budget``) loads no numpy. The
word tables are built when this module is imported.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# The most rows that one matrix holds: each chunk's text is made before
# the next chunk's matrix, so beside the output only one chunk's buffers
# are held.
_ROWS_PER_CHUNK = 4096
# Four digits, one word
_GROUP = 10_000


def _word_tables() -> tuple[np.ndarray, np.ndarray]:
    """Two tables of 2 * 10**4 words: at i < 10**4 the inner group i,
    zero-padded ("0042"); at 10**4 + i the leading group i, NUL-padded in
    front ("\\0\\042"). The leading group 0 is "0" in the first table, for
    a number's last group, and all NUL in the second, for the groups above
    a number's leading one."""
    inner = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        inner[..., place] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - place))
    inner = inner.reshape(_GROUP, 4)
    leading = inner.copy()
    for place, below in enumerate((1000, 100, 10)):
        leading[:below, place] = 0
    last = np.concatenate([inner, leading]).view(np.uint32).ravel()
    upper = last.copy()
    upper[_GROUP] = 0
    return last, upper


_LAST, _UPPER = _word_tables()


def _words(text: str) -> np.ndarray:
    """``text``'s ASCII bytes as native uint32 words, NUL-padded at the end."""
    raw = text.encode("ascii")
    return np.frombuffer(raw.ljust(len(raw) + -len(raw) % 4, b"\0"), np.uint32)


_MINUS = _words("\0-")[0]
# The word of each cell separator: LF before a row's first cell, a comma
# before each other cell.
_SEPARATORS = {"\n": _words("\n")[0], ",": _words(",")[0]}


def _cell_words(block: np.ndarray, sep: str) -> np.ndarray:
    """One row of words per cell of an int array, two NUL bytes wider than
    its longest number: ``sep`` in the first byte and any ``-`` in the
    second. If every cell is equal, their one row of literal words."""
    lo, hi = int(np.minimum.reduce(block)), int(np.maximum.reduce(block))
    if lo == hi:
        return _words(sep + str(lo))
    top = max(hi, -lo)
    if lo >= 0:
        magnitude = block.astype(np.uint32 if top < 2**32 else np.uint64)
    else:
        # -2**63 is its own int64 absolute value, and 2**63 as a uint64
        magnitude = np.absolute(block, dtype=np.int64).view(np.uint64)
        if top < 2**32:
            magnitude = magnitude.astype(np.uint32)
    unsigned = magnitude.dtype.type
    signed = np.int32 if unsigned is np.uint32 else np.int64
    group, one = unsigned(_GROUP), unsigned(1)
    digits = len(str(top))
    width = (digits + 5) // 4
    words = np.zeros((width, len(block)), np.uint32)
    for k in range((digits + 3) // 4):
        rest = magnitude // group
        # magnitude - 10**4 * max(rest, 1): the group i of a number with
        # more groups above, else i - 10**4 for the leading group i, which
        # the table wraps to 10**4 + i
        index = np.maximum(rest, one)
        index *= group
        np.subtract(magnitude, index, out=index)
        (_UPPER if k else _LAST).take(index.view(signed), out=words[width - 1 - k], mode="wrap")
        magnitude = rest
    words[0] |= _SEPARATORS[sep]
    if lo < 0:
        words[0] |= (block < 0) * _MINUS
    return words.T


def int_table(head: str, cells: Sequence, literals: Sequence[str | None], rows: int) -> str:
    """The CSV text of ``head`` and ``rows`` rows of ``cells``: an int
    numpy array per column where ``literals`` holds None, else the one
    value, passed in place of a column, whose text is that literal.
    ``head`` is ASCII with no NUL."""
    literal_words = [None if text is None else _words(("," if j else "\n") + text)
                     for j, text in enumerate(literals)]
    out = []
    for start in range(0, rows, _ROWS_PER_CHUNK):
        # no name holds a chunk's matrix or its bytes, so each is freed as
        # soon as the next form of the chunk is made
        n = min(rows - start, _ROWS_PER_CHUNK)
        out.append(_matrix(cells, literal_words, start, n, "" if start else head, start + n == rows)
                   .translate(None, b"\0").decode("ascii"))
    return out[0] if len(out) == 1 else "".join(out)


def _matrix(cells: Sequence, literal_words: Sequence[np.ndarray | None], start: int, n: int,
            head: str, last: bool) -> bytearray:
    """The words of ``head``, then of rows ``start`` to ``start + n``, one
    matrix row per table row (its line, begun by its LF), then if ``last``
    the table's closing LF, with NUL bytes as padding.

    Each column's words are assigned to its slice of the matrix's columns,
    a literal's one row of words broadcast down every row."""
    parts = [_cell_words(column[start:start + n], "," if j else "\n") if words is None else words
             for j, (column, words) in enumerate(zip(cells, literal_words))]
    width = sum(part.shape[-1] for part in parts)
    lead = _words(head)
    matrix = bytearray(4 * (len(lead) + n * width + last))
    words = np.frombuffer(matrix, np.uint32)
    words[:len(lead)] = lead
    if last:
        words[-1] = _SEPARATORS["\n"]
    view = words[len(lead):len(lead) + n * width].reshape(n, width)
    at = 0
    for part in parts:
        view[:, at:at + part.shape[-1]] = part
        at += part.shape[-1]
    return matrix
