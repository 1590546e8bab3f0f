"""Run one child process at a time, with its wall time and its own peak RSS."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import time
from pathlib import Path


@dataclasses.dataclass(frozen=True)
class ChildResult:
    returncode: int
    stdout: str
    stderr: str
    start_ns: int
    end_ns: int
    maxrss_kb: int


def run_child(argv: list[str], env: dict[str, str], out_path: Path) -> ChildResult:
    """Run ``argv`` to completion, its output going to files next to ``out_path``.

    Output goes to files rather than pipes so a chatty child (``-X
    importtime``) cannot block; ``wait4`` reports the peak RSS of this child
    alone, where ``RUSAGE_CHILDREN`` would give the largest child so far.
    """
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        start,
        end,
        usage.ru_maxrss,
    )
