"""Reference kernels that every benchmark time is normalised against.

On a small shared machine the same code can run 10-100% slower for tens
of seconds at a time, so raw wall times from two sets of runs disagree by
more than any useful regression bound. The kernel below is fixed code that
never imports ``m2mlat``. It does the same kinds of work as the toolkit:
splitting text lines, parsing integers, allocating small objects and
sorting a numpy array. Timed between the operations of a run, its median
tracks how fast the machine is running that run. A time ``t`` is reported
as ``t * NOMINAL_S / median_reference_s``.

Work done in a child interpreter (``m2mlat`` commands, set-up) is
dominated by interpreter start and imports, whose speed this kernel does
not track. It is normalised instead against the start-up reference: a
child interpreter that imports a fixed set of modules (``START_CODE``),
never ``m2mlat``. Its time is reported as ``t * START_NOMINAL_S /
median_start_reference_s``.

Do not change the kernels or the nominal constants: they are part of the
unit that every normalised figure is expressed in.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from pathlib import Path

import numpy as np

from child import run_child

# Typical median of one timed kernel run (all passes) on the 2-CPU machine
# the benchmark was built on (Python 3.11.7, numpy 2.4.6), so normalised
# times read close to that machine's seconds.
NOMINAL_S = 0.090
START_NOMINAL_S = 0.20
# Over 122 ``m2mlat budget`` commands, each between two runs of both, this
# tracked them as well as one that also imported scipy.linalg and
# scipy.special (0.64 s): means of 10 normalised commands spread 5.8%
# against 6.0%, and 17% raw. It leaves more of a run for the commands.
START_CODE = "import argparse, csv, json, numpy"

_ROWS = 12_000
_SORT_SIZE = 150_000
# Kernel passes per timed run. A run of about 100 ms tracks the slowdowns
# that 100-1500 ms operations see far better than one of 20 ms: over 10 s
# windows of simulate_presets on the reference machine, the spread of the
# normalised operation time was 3.4% against 8.1%.
_REPEATS = 5


class _Rec:
    __slots__ = ("node", "seq", "t")

    def __init__(self, node: str, seq: int, t: int):
        self.node = node
        self.seq = seq
        self.t = t


def _build_inputs() -> tuple[str, np.ndarray]:
    rng = np.random.default_rng(0x5EED)
    times = np.cumsum(rng.integers(1, 5_000_000_000, _ROWS)) + 1_700_000_000 * 10**9
    text = "\n".join(f"node{i % 3},{i},{t}" for i, t in enumerate(times.tolist()))
    return text, rng.random(_SORT_SIZE)


_TEXT, _FLOATS = _build_inputs()


def _kernel() -> int:
    recs = []
    for line in _TEXT.split("\n"):
        node, seq, t = line.split(",")
        recs.append(_Rec(node, int(seq), int(t)))
    total = sum(r.t - r.seq for r in recs if r.node != "node1")
    order = np.sort(_FLOATS)
    return total ^ int(order[_SORT_SIZE // 2] * 1e9)


# Checked on every timed call, so the timed work cannot silently change.
_EXPECTED = _kernel()


def time_reference() -> float:
    """One timed kernel run in seconds, after a full garbage collection."""
    gc.collect()
    t0 = time.perf_counter()
    values = {_kernel() for _ in range(_REPEATS)}
    elapsed = time.perf_counter() - t0
    if values != {_EXPECTED}:
        raise RuntimeError("reference kernel returned a different value")
    return elapsed


def time_start_reference(out_path: Path) -> float:
    """Wall time in seconds of one child interpreter running ``START_CODE``."""
    result = run_child([sys.executable, "-c", START_CODE], dict(os.environ), out_path)
    if result.returncode != 0:
        raise RuntimeError(f"start-up reference failed: {result.stderr[-2000:]}")
    return (result.end_ns - result.start_ns) / 1e9
