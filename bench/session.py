"""Workload ``cli_session``: a field-sized session of ``m2mlat`` commands.

One operation is one ``m2mlat`` subprocess. A round is five commands:

* for one preset, taken in turn from ``PRESETS`` round by round:
  ``simulate`` (``TRIALS`` trials), ``analyze`` on its two logs,
  ``report`` on the resulting pairs;
* ``precision`` on one hour of shared-pulse logs generated here
  (``PULSES`` pulses, one every 0.5 s);
* ``budget`` with per-sample kernel scheduling files generated here.

Interpreter start and package import are most of every command, so this
is where that cost shows. Each command must exit 0. The ``analyze`` pairs
must equal the per-trial latencies of the simulated ground truth that
fall inside the default window; ``precision``'s mean absolute offset must
equal the mean of the offsets generated here; ``budget``'s total must
equal an exact rational sum of its inputs.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from m2mlat import clocks, events
from child import ChildResult, run_child
from tables import csv_column, int_table

PRESETS = ("static_wifi", "static_5g", "dyn_coref", "dyn_auto")
TRIALS = 300
PULSES = 7_200
PULSE_PERIOD_NS = 500_000_000
SCHED_SAMPLES = 2_000
MAX_WINDOW_NS = 2_000_000_000  # m2mlat analyze's default acceptance window


def _write_pulse_log(path: Path, node: str, t_ns: np.ndarray) -> None:
    rows = "".join(f"{node},{i},{t},pulse\n" for i, t in enumerate(t_ns.tolist()))
    path.write_text("node,seq,t_wall_ns,source\n" + rows, encoding="utf-8")


class Workload:
    name = "cli_session"
    spawns = True  # each operation is a child process

    def __init__(self, seed: int, workdir: Path, tracer):
        self.rng = np.random.default_rng([seed, 3])
        self.workdir = workdir
        self.tracer = tracer
        src = Path(__file__).resolve().parent.parent / "src"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        ))
        workdir.mkdir(parents=True, exist_ok=True)

        # One hour of a shared pulse seen by two nodes; node b carries an
        # autonomous-sync-like offset process with rare excursions.
        t = 1_000_000_000 + PULSE_PERIOD_NS * np.arange(PULSES, dtype=np.int64)
        err_b = np.rint(self.rng.normal(0.0, 400_000.0, PULSES))
        spikes = self.rng.random(PULSES) < 0.01
        err_b[spikes] += self.rng.uniform(-3e6, 3e6, int(spikes.sum()))
        err_b = err_b.astype(np.int64)
        self.offsets_ns = -err_b  # t_a - t_b with node a as the reference
        self.node_a = workdir / "pulses_a.csv"
        self.node_b = workdir / "pulses_b.csv"
        _write_pulse_log(self.node_a, "node_a", t)
        _write_pulse_log(self.node_b, "node_b", t + err_b)

        self.sched = []
        for name in ("sched_a.csv", "sched_b.csv"):
            values = np.clip(self.rng.normal(5_000, 800, SCHED_SAMPLES), 1_000, None).astype(np.int64)
            path = workdir / name
            path.write_text("latency_ns\n" + "".join(f"{v}\n" for v in values.tolist()), encoding="utf-8")
            self.sched.append((path, values))

    def trace_wraps(self) -> None:
        pass

    def trace_extras(self, ops) -> dict[str, float]:
        return {}

    def ops(self, round_index: int):
        out = self.workdir / f"round{round_index}"
        preset = PRESETS[round_index % len(PRESETS)]
        seed = int(self.rng.integers(0, 2**31))
        d = out / preset
        ops = [
            _Op(self, "simulate", TRIALS, _check_simulate,
                ["simulate", "--preset", preset, "--trials", str(TRIALS), "--seed", str(seed), "--out", str(d)],
                workdir=d),
            _Op(self, "analyze", TRIALS, _check_analyze,
                ["analyze", "--operator", str(d / "operator.csv"), "--vehicle", str(d / "vehicle.csv"),
                 "--label", preset, "--out", str(d / "report")],
                workdir=d),
            _Op(self, "report", TRIALS, _check_report,
                ["report", "--samples", str(d / "report.pairs.csv"), "--label", preset,
                 "--out", str(d / "rerun")],
                workdir=d),
        ]
        ops.append(_Op(self, "precision", PULSES, _check_precision,
                       ["precision", "--node-a", str(self.node_a), "--node-b", str(self.node_b),
                        "--out", str(out / "prec")],
                       workdir=out))
        sync_ms = f"0.{self.rng.integers(300, 340)}"
        angle = str(self.rng.choice(["0.5", "1", "1.5", "2"]))
        rate = str(self.rng.choice(["50", "100", "200"]))
        ops.append(_Op(self, "budget", 0, _check_budget,
                       ["budget", "--sync-ms", sync_ms, "--sched-a", str(self.sched[0][0]),
                        "--sched-b", str(self.sched[1][0]), "--calib-angle-deg", angle,
                        "--steer-rate-dps", rate, "--out", str(out / "budget")],
                       workdir=out, budget=(sync_ms, angle, rate)))
        return ops


class _Op:
    def __init__(self, session: Workload, command: str, trials: int, checker, argv, *, workdir: Path, budget=None):
        self.session = session
        self.command = command
        self.name = f"cli_{command}"
        self.trials = trials
        self.checker = checker
        self.argv = argv
        self.dir = workdir
        self.budget = budget

    def run(self):
        tr = self.session.tracer
        flags = ["-X", "importtime"] if tr.enabled else []
        self.dir.mkdir(parents=True, exist_ok=True)
        result = run_child([sys.executable, *flags, "-m", "m2mlat.cli", *self.argv],
                            self.session.env, self.dir / f"{self.command}.out")
        tr.record(f"cli.{self.command}", result.start_ns, result.end_ns)
        return result

    def trace_probe(self, result) -> None:
        tr = self.session.tracer
        imports = _import_times(result.stderr)
        tr.timing("cli.import", imports["m2mlat"])
        tr.timing("cli.import_scipy_stats", imports["scipy.stats"])
        start = run_child([sys.executable, "-c", "pass"], self.session.env, self.dir / "pass.out")
        tr.timing("cli.python_start", start.end_ns - start.start_ns)
        if self.command == "precision":
            log_a, log_b = (
                events.parse_log(path.read_bytes()) for path in (self.session.node_a, self.session.node_b)
            )
            with tr.span("clocks.precision_analysis"):
                clocks.precision_analysis(log_a, log_b)

    def check(self, result) -> None:
        if result.returncode != 0:
            raise AssertionError(f"{self.name} exited {result.returncode}: {result.stderr[-500:]}")
        self.checker(self, result)


def _import_times(stderr: str) -> dict[str, float]:
    """Import times in ns from ``-X importtime``: the package, and ``scipy.stats``.

    scipy loads ``scipy.stats`` lazily, so the log has no line for the
    package itself on every Python; its cost is the sum of the outermost
    ``scipy.stats.*`` lines.
    """
    rows = []  # (depth, name, cumulative µs)
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            depth = len(parts[2]) - len(parts[2].lstrip())
            rows.append((depth, parts[2].strip(), int(parts[1])))
    stats_rows = [r for r in rows if r[1] == "scipy.stats" or r[1].startswith("scipy.stats.")]
    top = min((r[0] for r in stats_rows), default=0)
    return {
        "m2mlat": sum(us for _, name, us in rows if name == "m2mlat") * 1e3,
        "scipy.stats": sum(us for depth, _, us in stats_rows if depth == top) * 1e3,
    }


def _stdout_value(result: ChildResult, key: str) -> str:
    for line in result.stdout.splitlines():
        if line.startswith(f"{key}:") or line.startswith(f"{key}="):
            return line[len(key) + 1:].strip()
    raise AssertionError(f"{key!r} missing from the command's output")


def _expected_pairs(op: _Op) -> np.ndarray:
    """Per-trial recorded latencies from the ground truth, inside the window."""
    truth = int_table((op.dir / "truth.csv").read_text(encoding="utf-8"))
    order = np.argsort(truth["recorded_op_ns"], kind="stable")
    m2m = (truth["recorded_veh_ns"] - truth["recorded_op_ns"])[order]
    return m2m[(m2m >= 0) & (m2m <= MAX_WINDOW_NS)]


def _check_simulate(op: _Op, result: ChildResult) -> None:
    rows = (op.dir / "truth.csv").read_text(encoding="utf-8").count("\n") - 1
    if rows != TRIALS:
        raise AssertionError(f"simulate wrote {rows} truth rows, want {TRIALS}")


def _check_analyze(op: _Op, result: ChildResult) -> None:
    got = csv_column((op.dir / "report.pairs.csv").read_text(encoding="utf-8"), "m2m_ns")
    if not np.array_equal(got, _expected_pairs(op)):
        raise AssertionError("analyze pairs differ from the ground-truth latencies")


def _check_report(op: _Op, result: ChildResult) -> None:
    want = _expected_pairs(op)
    if int(_stdout_value(result, "samples")) != len(want):
        raise AssertionError("report sample count differs from the ground truth")
    if abs(float(_stdout_value(result, "median_ms")) - float(np.median(want)) / 1e6) > 1e-6:
        raise AssertionError("report median differs from the ground truth")


def _check_precision(op: _Op, result: ChildResult) -> None:
    offsets = op.session.offsets_ns
    want = Fraction(int(np.abs(offsets).sum()), len(offsets))
    got = csv_column((op.dir / "prec.stats_abs.csv").read_text(encoding="utf-8"), "mean_ns", float)[0]
    if abs(Fraction(got) - want) > want * Fraction(1, 10**9):
        raise AssertionError(f"precision mean |offset| {got} ns, want {float(want)} ns")
    if f"offset_abs: n={PULSES} " not in result.stdout:
        raise AssertionError("precision did not pair every pulse")


def _check_budget(op: _Op, result: ChildResult) -> None:
    sync_ms, angle, rate = op.budget
    (_, a), (_, b) = op.session.sched
    kernel = max(int(a.max()) - int(b.min()), int(b.max()) - int(a.min()))
    calib = Fraction(angle) / Fraction(rate) * 10**9
    total = Fraction(sync_ms) * 10**6 + 2_000 + kernel + calib
    if total.denominator != 1 or int(_stdout_value(result, "e_total_ns")) != total:
        raise AssertionError(f"budget total {_stdout_value(result, 'e_total_ns')}, want {total}")
