"""The benchmark's own readers for the toolkit's CSV outputs."""

from __future__ import annotations

import numpy as np


def csv_column(text: str, column: str, kind=int) -> np.ndarray:
    """One named column of a headed CSV table."""
    lines = text.rstrip("\n").split("\n")
    idx = lines[0].split(",").index(column)
    return np.array([kind(ln.split(",")[idx]) for ln in lines[1:]])


def int_table(text: str) -> dict[str, np.ndarray]:
    """Every column of a headed CSV table whose cells are all integers."""
    lines = text.rstrip("\n").split("\n")
    body = np.array([ln.split(",") for ln in lines[1:]], dtype=np.int64).reshape(len(lines) - 1, -1)
    return {name: body[:, i] for i, name in enumerate(lines[0].split(","))}
