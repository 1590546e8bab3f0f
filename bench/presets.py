"""Workload ``simulate_presets``: what ``m2mlat simulate`` produces.

One operation simulates one field-scenario preset at ``TRIALS`` trials
and serialises everything the command writes: both event logs, the ground
truth and the echoed config. A round runs the four presets in turn, each
with a new simulation seed drawn from the workload seed.

The outputs are checked with this module's own CSV reader: recorded time
equals true time plus clock error on both nodes, the delay components sum
to the total, each log holds one time-sorted event per trial, and the
median true total lies within 2% of the paper's field median for the
scenario.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from m2mlat import clocks, dists, events, sim
from tables import csv_column, int_table

TRIALS = 4000
# Field medians (ms) the presets are calibrated to.
PAPER_MEDIAN_MS = {
    "static_wifi": 874.5,
    "static_5g": 930.6,
    "dyn_coref": 767.8,
    "dyn_auto": 815.2,
}
MEDIAN_TOLERANCE = 0.02
# Timestamps per node replayed through sample_clock_error in traced rounds.
CLOCK_REPLAY = 500


class Workload:
    name = "simulate_presets"
    spawns = False

    def __init__(self, seed: int, workdir, tracer):
        self.rng = np.random.default_rng([seed, 2])
        self.tracer = tracer

    def trace_wraps(self) -> None:
        for cls in (dists.ConstantDelay, dists.LogNormalDelay, dists.GammaDelay, dists.EmpiricalDelay):
            self.tracer.wrap(cls, "sample", "dists.sample")

    def ops(self, round_index: int):
        seeds = self.rng.integers(0, 2**31, len(PAPER_MEDIAN_MS)).tolist()
        return [_Op(name, s, self.tracer) for name, s in zip(PAPER_MEDIAN_MS, seeds)]

    def trace_extras(self, ops) -> dict[str, float]:
        """Peak traced allocation of ``simulate`` on one round's configs."""
        peaks = []
        for op in ops:
            cfg = sim.with_overrides(sim.preset(op.preset), trials=TRIALS, seed=op.seed)
            tracemalloc.start()
            try:
                sim.simulate(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        return {"sim.simulate_alloc_mb": statistics.median(peaks)}


class _Op:
    trials = TRIALS

    def __init__(self, preset: str, seed: int, tracer):
        self.preset = preset
        self.seed = seed
        self.tracer = tracer
        self.name = f"simulate_{preset}"

    def run(self):
        tr = self.tracer
        cfg = sim.with_overrides(sim.preset(self.preset), trials=TRIALS, seed=self.seed)
        with tr.span("sim.simulate"):
            op_log, veh_log, truth = sim.simulate(cfg)
        with tr.span("events.write_log"):
            op_csv = events.write_log(op_log)
            veh_csv = events.write_log(veh_log)
        with tr.span("sim.truth_to_csv"):
            truth_csv = truth.to_csv()
        echo = sim.render_config(cfg)
        return cfg, op_csv, veh_csv, truth_csv, echo

    def trace_probe(self, result) -> None:
        """Time sample_clock_error on the capture's own true timestamps."""
        cfg, truth_csv = result[0], result[3]
        head = int_table("\n".join(truth_csv.split("\n", CLOCK_REPLAY + 1)[:-1]))
        true_op = head["true_op_time_ns"]
        true_veh = true_op + head["true_total_ns"]
        op_model, veh_model = cfg.effective_clock_models()
        calls = [(op_model, x, clocks.OPERATOR_SALT) for x in true_op.tolist()]
        calls += [(veh_model, x, clocks.VEHICLE_SALT) for x in true_veh.tolist()]
        start = time.perf_counter_ns()
        for model, x, salt in calls:
            clocks.sample_clock_error(model, x, cfg.seed, salt=salt)
        self.tracer.timing("clocks.sample_clock_error", (time.perf_counter_ns() - start) / len(calls))

    def check(self, result) -> None:
        cfg, op_csv, veh_csv, truth_csv, echo = result
        col = int_table(truth_csv)
        parts = sum(col[c] for c in ("l_gen_ns", "l_network_ns", "l_exec_ns", "l_follow_ns", "friction_ns"))
        true_veh = col["true_op_time_ns"] + col["true_total_ns"]
        problems = {
            "trial rows": len(col["trial"]) != TRIALS or not np.array_equal(col["trial"], np.arange(TRIALS)),
            "component sum": not np.array_equal(parts, col["true_total_ns"]),
            "operator recording": not np.array_equal(
                col["recorded_op_ns"], col["true_op_time_ns"] + col["clock_err_op_ns"]
            ),
            "vehicle recording": not np.array_equal(
                col["recorded_veh_ns"], true_veh + col["clock_err_veh_ns"]
            ),
            "config echo": f"trials = {TRIALS}\n" not in echo or f"seed = {cfg.seed}\n" not in echo,
        }
        for node, text, recorded in (
            ("operator", op_csv, col["recorded_op_ns"]),
            ("vehicle", veh_csv, col["recorded_veh_ns"]),
        ):
            times = csv_column(text, "t_wall_ns")
            seqs = csv_column(text, "seq")
            problems[f"{node} log"] = (
                len(times) != TRIALS
                or np.any(np.diff(times) < 0)
                or np.any(np.diff(seqs) <= 0)
                or not np.array_equal(times, np.sort(recorded))
            )
        median_ms = float(np.median(col["true_total_ns"])) / 1e6
        target = PAPER_MEDIAN_MS[self.preset]
        problems[f"median {median_ms:.1f} ms vs paper {target} ms"] = (
            abs(median_ms - target) > MEDIAN_TOLERANCE * target
        )
        failed = [what for what, bad in problems.items() if bad]
        if failed:
            raise AssertionError(f"{self.name} seed {self.seed}: {', '.join(failed)}")
