"""Benchmark of the m2mlat toolkit: one workload per run, one JSON line out.

Usage, from the root of a checkout:

    python3 bench/run.py --workload analyze_field --seed 1 --seconds 10 --trace 0

Workloads (see README.md for why each exists):

* ``analyze_field``: what ``m2mlat analyze`` does, in process, on
  generated field captures;
* ``simulate_presets``: what ``m2mlat simulate`` produces, in process;
* ``cli_session``: ``m2mlat`` commands as subprocesses.

A run first sets up (interpreter start, ``import m2mlat``, input
generation) ``SETUP_PROBES`` times, each in a child process, and reports
the median as ``setup_s``. It then repeats whole rounds of the workload's
operations until ``--seconds`` have passed. Every operation's outputs are
checked, untimed. An operation that raises or fails its check makes
``correct`` false and the exit code 1; one that raises is also counted in
``failed`` and its time is left out.

Every time is normalised against a reference kernel (``refkernel.py``)
timed just before and just after it: ``t * nominal / mean(reference
before, reference after)``. In-process operations use the compute
reference; operations in child processes and the set-up use the start-up
reference. The last line of stdout is the result as JSON; the lines
before it give the raw figures.

With ``--trace 1`` rounds alternate untraced and traced, and the result
holds the per-layer metrics plus the tracing overhead: the traced median
operation time against the untraced one of the same run. The spans are
written to ``bench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = {
    "analyze_field": "field",
    "simulate_presets": "presets",
    "cli_session": "session",
}
SETUP_PROBES = 7

# Per-layer metrics: (name, unit, kind, source). Times are normalised by
# the factor of the operation they belong to.
# kind "span": median over operations of the span's self time;
# "timing": median of the recorded times; "count": mean per operation;
# "extra": a value the workload measures once per traced run.
PER_LAYER = (
    ("events.parse_log_ms", "ms", "span", "events.parse_log"),
    ("events.lines_read", "count", "count", "events.lines_read"),
    ("events.lines_skipped", "count", "count", "events.lines_skipped"),
    ("events.with_role_ms", "ms", "span", "events.with_role"),
    ("events.write_log_ms", "ms", "span", "events.write_log"),
    ("pairing.debounce_ms", "ms", "span", "pairing.debounce"),
    ("pairing.pair_events_ms", "ms", "span", "pairing.pair_events"),
    ("pairing.matched", "count", "count", "pairing.matched"),
    ("pairing.suppressed", "count", "count", "pairing.suppressed"),
    ("pairing.unmatched_op", "count", "count", "pairing.unmatched_op"),
    ("pairing.unmatched_veh", "count", "count", "pairing.unmatched_veh"),
    ("pairing.match_ratio", "ratio", "count", "pairing.match_ratio"),
    ("stats.summarize_ms", "ms", "span", "stats.summarize"),
    ("stats.boxplot_data_ms", "ms", "span", "stats.boxplot_data"),
    ("report.build_report_ms", "ms", "span", "report.build_report"),
    ("report.render_text_ms", "ms", "span", "report.render_text"),
    ("report.csv_ms", "ms", "span", "report.csv"),
    ("sim.simulate_ms", "ms", "span", "sim.simulate"),
    ("sim.truth_to_csv_ms", "ms", "span", "sim.truth_to_csv"),
    ("dists.sample_ms", "ms", "span", "dists.sample"),
    ("sim.simulate_alloc_mb", "MB", "extra", "sim.simulate_alloc_mb"),
    ("clocks.sample_clock_error_us", "us", "timing", "clocks.sample_clock_error"),
    ("clocks.precision_analysis_ms", "ms", "span", "clocks.precision_analysis"),
    ("cli.python_start_s", "s", "timing", "cli.python_start"),
    ("cli.import_s", "s", "timing", "cli.import"),
    ("cli.import_scipy_stats_s", "s", "timing", "cli.import_scipy_stats"),
    ("cli.simulate_ms", "ms", "span", "cli.simulate"),
    ("cli.analyze_ms", "ms", "span", "cli.analyze"),
    ("cli.report_ms", "ms", "span", "cli.report"),
    ("cli.precision_ms", "ms", "span", "cli.precision"),
    ("cli.budget_ms", "ms", "span", "cli.budget"),
)
_NS_PER_UNIT = {"ms": 1e6, "us": 1e3, "s": 1e9}


def import_toolkit() -> None:
    """Import m2mlat from this checkout's ``src``, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import m2mlat
    except ImportError as err:
        sys.exit(f"error: cannot import m2mlat from {src}: {err}")
    if Path(m2mlat.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: m2mlat was imported from {m2mlat.__file__}, not {src}")


def make_workload(name: str, seed: int, workdir: Path, tracer):
    return importlib.import_module(WORKLOADS[name]).Workload(seed, workdir, tracer)


def setup_probe(args) -> None:
    """Child side of a setup measurement: set up, then stamp the clock."""
    import_toolkit()
    import tracing

    make_workload(args.workload, args.seed, Path(args.setup_probe), tracing.Tracer())
    # perf_counter is CLOCK_MONOTONIC, shared with the parent process.
    print(time.perf_counter_ns(), flush=True)


def measure_setup(args, run_dir: Path, k: int) -> float:
    from child import run_child

    probe_dir = run_dir / f"setup{k}"
    probe_dir.mkdir(parents=True)
    argv = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--setup-probe", str(probe_dir),
    ]
    result = run_child(argv, dict(os.environ), run_dir / f"setup{k}.out")
    if result.returncode != 0:
        raise RuntimeError(f"setup probe failed: {result.stderr[-2000:]}")
    ready_ns = int(result.stdout.split()[-1])
    shutil.rmtree(probe_dir)
    return (ready_ns - result.start_ns) / 1e9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args)
        return 0

    import_toolkit()
    import refkernel
    import tracing

    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return run(args, run_dir, refkernel, tracing)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


class References:
    """Timings of both reference kernels, and the factors they give.

    Each operation is normalised by the mean of the reference runs just
    before and just after it: over 10-15 s windows of simulate_presets on
    the machine the benchmark was built on, that spread 1.4-1.6% from
    window to window, against 3.4% for the ratio of the window's medians.
    """

    def __init__(self, refkernel, run_dir: Path):
        self.kernel = refkernel
        self.run_dir = run_dir
        self.compute: list[float] = []
        self.start: list[float] = []

    def time_compute(self) -> float:
        self.compute.append(self.kernel.time_reference())
        return self.compute[-1]

    def time_start(self) -> float:
        self.start.append(self.kernel.time_start_reference(self.run_dir / "startref.out"))
        return self.start[-1]

    def compute_factor(self) -> float:
        """Scale for the time between the last two compute reference runs."""
        return self.kernel.NOMINAL_S / statistics.fmean(self.compute[-2:])

    def start_factor(self) -> float:
        """Scale for the time between the last two start-up reference runs."""
        return self.kernel.START_NOMINAL_S / statistics.fmean(self.start[-2:])


def run(args, run_dir: Path, refkernel, tracing) -> int:
    refs = References(refkernel, run_dir)
    refs.time_start()
    setups_raw, setups = [], []
    for k in range(SETUP_PROBES):
        setups_raw.append(measure_setup(args, run_dir, k))
        refs.time_start()
        setups.append(setups_raw[-1] * refs.start_factor())

    tracer = tracing.Tracer()
    workload = make_workload(args.workload, args.seed, run_dir / "work", tracer)
    # Per operation: (name, raw seconds, normalised seconds, traced, trials).
    times: list[tuple[str, float, float, bool, int]] = []
    # Per operation index: its normalising factors, by reference.
    factors: dict[int, dict[str, float]] = {}
    child_rss_kb = []
    attempted = failed = 0
    errors: list[str] = []
    first_traced_ops = None
    round_index = 0
    refs.time_compute()
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and round_index % 2 == 1
        ops = workload.ops(round_index)
        if traced:
            tracer.enabled = True
            workload.trace_wraps()
            first_traced_ops = first_traced_ops or ops
        for op in ops:
            index = attempted
            tracer.begin_op(index)
            attempted += 1
            gc.collect()
            t0 = time.perf_counter()
            raised = None
            try:
                result = op.run()
            except Exception:
                result, raised = None, traceback.format_exc()
            elapsed = time.perf_counter() - t0
            if raised:
                # No workload has an operation that is expected to raise, so
                # one that does is a wrong output: its time is left out.
                failed += 1
                errors.append(f"{op.name} raised")
                print(f"operation {op.name} failed:\n{raised}", file=sys.stderr)
            else:
                if traced:
                    op.trace_probe(result)
                if workload.spawns:
                    child_rss_kb.append(result.maxrss_kb)
                try:
                    op.check(result)
                except Exception as err:
                    errors.append(f"{op.name}: {err}")
                    print(f"check failed: {op.name}: {err}", file=sys.stderr)
            # The references are timed after every operation, failed or
            # not, so each operation sits between its own two.
            refs.time_compute()
            factors[index] = {"compute": refs.compute_factor()}
            if workload.spawns:
                # Operations in child interpreters follow the start-up reference.
                refs.time_start()
                factors[index]["start"] = refs.start_factor()
            if not raised:
                scale = factors[index]["start" if workload.spawns else "compute"]
                times.append((op.name, elapsed, elapsed * scale, traced, op.trials))
            del result
        if traced:
            tracer.unwrap_all()
            tracer.enabled = False
        round_index += 1
        if time.perf_counter() - start >= args.seconds and not (args.trace and round_index % 2):
            break

    untraced = [t for t in times if not t[3]]
    if not untraced:
        print("error: no untraced operation ran to its end", file=sys.stderr)
        return 1
    op_s = typical_op_s([(name, norm) for name, _, norm, *_ in untraced])
    trials = sum(t[4] for t in untraced)
    print(
        f"# {args.workload} seed={args.seed}: {round_index} rounds, {attempted} operations, "
        f"{failed} failed, {len(errors)} checks failed"
    )
    print(
        f"# compute reference: median {statistics.median(refs.compute) * 1e3:.2f} ms of "
        f"{len(refs.compute)} (nominal {refkernel.NOMINAL_S * 1e3:.0f} ms); start-up reference: "
        f"median {statistics.median(refs.start) * 1e3:.1f} ms of {len(refs.start)} "
        f"(nominal {refkernel.START_NOMINAL_S * 1e3:.0f} ms)"
    )
    print(
        f"# raw: setup_s {statistics.median(setups_raw):.4f}; "
        f"op_ms.p50 {typical_op_s([(name, raw) for name, raw, *_ in untraced]) * 1e3:.3f}; "
        f"trials_per_s {trials / sum(t[1] for t in untraced):.1f}"
    )
    if args.trace:
        traced_s = typical_op_s([(name, norm) for name, _, norm, traced, _ in times if traced])
        metrics = per_layer(tracer, workload, first_traced_ops, factors)
        metrics["trace.overhead_pct"] = ("%", (traced_s / op_s - 1) * 100)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(trace_path)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    else:
        if child_rss_kb:
            peak_kb = max(child_rss_kb)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": ("s", statistics.median(setups)),
            "op_ms.p50": ("ms", op_s * 1e3),
            "trials_per_s": ("1/s", trials / sum(t[2] for t in untraced)),
            "peak_rss_mb": ("MB", peak_kb / 1024),
        }
    for name, (unit, value) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }))
    return 0 if not errors else 1


def typical_op_s(samples: list[tuple[str, float]]) -> float:
    """Median time of each kind of operation, weighted by how often it runs.

    A round mixes kinds that take different times (four presets, two log
    formats, five commands). A plain median over the mix falls on the
    boundary between two kinds' clusters and jumps between them from run
    to run; the median within each kind does not.
    """
    by_name = defaultdict(list)
    for name, seconds in samples:
        by_name[name].append(seconds)
    return sum(len(v) * statistics.median(v) for v in by_name.values()) / len(samples)


def per_layer(tracer, workload, traced_ops, factors) -> dict[str, tuple[str, float]]:
    extras = workload.trace_extras(traced_ops)
    self_ns = tracer.self_times_ns()
    out = {}
    for name, unit, kind, source in PER_LAYER:
        # cli.* layers run in child interpreters.
        ref = "start" if name.startswith("cli.") else "compute"
        if kind in ("span", "timing"):
            per_op = self_ns.get(source, {}).items() if kind == "span" else tracer.timings_ns.get(source, [])
            values = [ns * factors[op][ref] / _NS_PER_UNIT[unit] for op, ns in per_op]
            value = statistics.median(values) if values else 0.0
        elif kind == "count":
            value = tracer.mean_count(source)
        else:
            value = extras.get(source, 0.0)
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite")
        out[name] = (unit, value)
    return out


if __name__ == "__main__":
    sys.exit(main())
