"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
pass lines with measured values). Exact properties are checked
bit-exactly; statistical reproductions run the full pipeline under
pinned seeds at their stated tolerances.
"""

from __future__ import annotations

import math
import time

import numpy as np

from m2mlat.budget import CalibModel, calib_error, total_error
from m2mlat.clocks import SyncMode, precision_analysis
from m2mlat.events import parse_log, write_log
from m2mlat.pairing import PairingConfig, compute_m2m, pair_events
from m2mlat.probe import (
    KIND_REQUEST,
    ProbePacket,
    complete_exchange,
    decode_packet,
    encode_packet,
    respond,
)
from m2mlat.record import replace
from m2mlat.sim import ZERO_CLOCKS, preset, simulate, simulate_shared_pulse_run
from m2mlat.stats import summarize

from helpers import (
    OPERATOR,
    VEHICLE,
    events_of,
    make_log,
    oracle_pairs,
    pairs_of,
    random_times,
)

MS = 1_000_000
S = 1_000_000_000


class _Budget:
    """Wall-clock budget for one criterion."""

    def __init__(self, name: str, limit_s: float):
        self.name = name
        self.limit_s = limit_s
        self.t0 = time.perf_counter()

    def done(self, detail: str) -> None:
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.limit_s, (
            f"{self.name} took {elapsed:.2f}s, budget {self.limit_s}s"
        )
        print(f"[acceptance] {self.name}: PASS ({detail}; {elapsed:.2f}s)")


def test_c1_m2m_exactness_and_shift_properties():
    budget = _Budget("C1 m2m exactness", 1.0)
    rng = np.random.default_rng(101)
    n = 10_000
    t1 = rng.integers(10**9, 10**15, n)
    t2 = rng.integers(10**9, 10**15, n)
    delta = rng.integers(0, 10**12, n)
    shift = rng.integers(-(10**8), 10**8, n)
    m2m = compute_m2m(t1, t2)
    # exact integer differences, negative latencies included
    assert m2m.tolist() == [b - a for a, b in zip(t1.tolist(), t2.tolist())]
    assert (m2m < 0).any() and (m2m > 0).any()
    # translating both nodes leaves the measurement unchanged
    assert np.array_equal(compute_m2m(t1 + delta, t2 + delta), m2m)
    # a vehicle-clock offset lands one-for-one in the measurement
    assert (t2 + shift > 0).all()
    assert np.array_equal(compute_m2m(t1, t2 + shift), m2m + shift)
    budget.done(f"{n} random cases, bit-exact")


def test_c2_pairing_equals_brute_force_fifo():
    budget = _Budget("C2 pairing oracle equivalence", 10.0)
    rng = np.random.default_rng(202)
    instances = 500
    for _ in range(instances):
        n_op = int(rng.integers(1, 51))
        n_veh = int(rng.integers(1, 51))
        op = make_log(OPERATOR, random_times(rng, n_op, 1, 30_000))
        veh = make_log(VEHICLE, random_times(rng, n_veh, 1, 30_000))
        min_lat = int(rng.integers(0, 100))
        cfg = PairingConfig(
            debounce_ns=int(rng.integers(0, 400)),
            min_latency_ns=min_lat,
            max_window_ns=min_lat + int(rng.integers(1, 5_000)),
        )
        got = pair_events(op, veh, cfg)
        expected = oracle_pairs(events_of(op), events_of(veh), cfg)
        assert pairs_of(got) == expected
        assert got.m2m_values.tolist() == [veh[1] - op[1] for op, veh in expected]
        assert (
            2 * len(got.samples)
            + got.unmatched_op
            + got.unmatched_veh
            + got.suppressed_op
            + got.suppressed_veh
        ) == n_op + n_veh
    budget.done(f"{instances} random instances, exact match")


def test_c3_shared_pulse_precision_reproduction():
    budget = _Budget("C3 precision-test reproduction", 30.0)
    pulses, period = 7200, 500 * MS  # one hour at 500 ms
    targets = {
        SyncMode.CO_REFERENCED: (322_000, 4_500_000),
        SyncMode.AUTONOMOUS: (330_000, 1_100_000),
    }
    details = []
    for mode, (target_mean, max_bound) in targets.items():
        means, stds, maxima = [], [], []
        for seed in range(10):
            log_a, log_b = simulate_shared_pulse_run(mode, pulses, period, seed)
            stats_abs = precision_analysis(log_a, log_b).stats_abs
            means.append(stats_abs.mean_ns)
            stds.append(stats_abs.std_ns)
            maxima.append(stats_abs.max_ns)
        for mean in means:
            assert abs(mean - target_mean) <= 0.20 * target_mean
        assert max(maxima) <= max_bound
        if mode is SyncMode.AUTONOMOUS:
            for std in stds:
                assert abs(std - 219_000) <= 0.25 * 219_000
        details.append(f"{mode.value} mean {np.mean(means) / 1e6:.3f} ms")
    budget.done("; ".join(details) + "; 10 seeds each")


def test_c4_calibration_formula():
    budget = _Budget("C4 calibration formula", 1.0)
    assert calib_error(CalibModel(1.0, 100.0)) == 10_000_000
    rng = np.random.default_rng(404)
    n = 1_000
    for _ in range(n):
        mis = float(rng.uniform(0.01, 8.0))
        rate = float(rng.uniform(1.0, 400.0))
        base = calib_error(CalibModel(mis, rate))
        doubled_angle = calib_error(CalibModel(2 * mis, rate))
        doubled_rate = calib_error(CalibModel(mis, 2 * rate))
        assert abs(doubled_angle - 2 * base) <= 1  # integer-ns rounding
        assert abs(doubled_rate - base / 2) <= 1
    budget.done(f"1 deg at 100 deg/s = 10 ms exactly; homogeneity over {n} cases")


def test_c5_error_budget_band():
    budget = _Budget("C5 error budget", 1.0)
    nominal = total_error(322_000, 2_000, 5_000, 10_000_000)
    assert nominal.e_total_ns == 10_329_000
    assert nominal.in_precision_band
    worst = total_error(4_446_000, 2_000, 116_000, 10_000_000)
    assert worst.e_total_ns == 14_564_000
    assert worst.in_precision_band
    budget.done("nominal 10.329 ms and worst case 14.564 ms inside 10..15 ms")


def test_c6_field_scenario_calibration():
    budget = _Budget("C6 field-scenario calibration", 60.0)
    targets = {
        "static_wifi": (874.5, 198.0, None),
        "static_5g": (930.6, 105.0, None),
        "dyn_coref": (767.8, 141.7, 1.4),
        "dyn_auto": (815.2, 145.9, 5.4),
    }
    details = []
    for name, (t_median, t_iqr, t_frac) in targets.items():
        cfg = preset(name)  # 1000 trials under the preset's pinned seed
        assert cfg.trials == 1000
        op_log, veh_log, _ = simulate(cfg)
        # full pipeline, including the log serialization boundary
        op_log = parse_log(write_log(op_log))
        veh_log = parse_log(write_log(veh_log))
        pairing = pair_events(op_log, veh_log)
        assert pairing.unmatched_op == pairing.unmatched_veh == 0
        stats = summarize(pairing.m2m_values, [S])
        median_ms = stats.median_ns / MS
        iqr_ms = stats.iqr_ns / MS
        assert abs(median_ms - t_median) <= 0.02 * t_median
        assert abs(iqr_ms - t_iqr) <= 0.05 * t_iqr
        if t_frac is not None:
            frac_pct = stats.frac_over[S] * 100
            assert abs(frac_pct - t_frac) <= 2.0
        details.append(f"{name} median {median_ms:.1f} iqr {iqr_ms:.1f}")
    budget.done("; ".join(details))


def test_c7_ground_truth_closure():
    budget = _Budget("C7 ground-truth closure", 5.0)
    base = replace(preset("dyn_coref"), trials=300)

    def paired_by_trial(cfg):
        # (m2m of each pair, ground-truth columns of that pair's trial)
        op_log, veh_log, truth = simulate(cfg)
        pairing = pair_events(op_log, veh_log)
        assert len(pairing.samples) == cfg.trials
        trial_of = {t: i for i, t in enumerate(truth.columns["recorded_op_ns"].tolist())}
        rows = [trial_of[t] for t in pairing.samples["op_t_wall_ns"].tolist()]
        m2m = np.array(pairing.m2m_values, dtype=np.int64)
        return m2m, {name: col[rows] for name, col in truth.columns.items()}

    m2m, trial = paired_by_trial(replace(base, clock_models=ZERO_CLOCKS))
    assert (m2m == trial["true_total_ns"]).all()
    m2m, trial = paired_by_trial(base)
    assert (
        m2m - trial["true_total_ns"] == trial["clock_err_veh_ns"] - trial["clock_err_op_ns"]
    ).all()
    budget.done("300 trials exact, with and without clock error")


def test_c8_probe_recovery_and_bias():
    budget = _Budget("C8 probe correctness", 5.0)

    def exchange(theta, d1, d2, proc, t0=10**12):
        request = encode_packet(ProbePacket(KIND_REQUEST, 9, t0))
        recv_ns = t0 + d1 + theta
        reply = respond(request, recv_ns, recv_ns + proc)
        packet = decode_packet(reply)
        t4 = t0 + d1 + proc + d2
        return complete_exchange(packet.seq, packet.t1, packet.t2, packet.t3, t4)

    for theta in (0, 10 * MS, -7_654_321):
        sample = exchange(theta, d1=1 * MS, d2=1 * MS, proc=40_000)
        assert sample.offset_ns == theta
    rng = np.random.default_rng(808)
    n = 1_000
    for _ in range(n):
        theta = int(rng.integers(-(10**8), 10**8))
        d1 = int(rng.integers(0, 10**8))
        d2 = int(rng.integers(0, 10**8))
        proc = int(rng.integers(0, 10**6))
        sample = exchange(theta, d1, d2, proc)
        assert sample.offset_ns - theta == (d1 - d2) / 2
        assert sample.rtt_ns == d1 + d2
    budget.done(f"exact symmetric recovery; half-asymmetry bias over {n} cases")


def test_c9_statistics_engine():
    budget = _Budget("C9 statistics engine", 5.0)
    fixed = summarize([1, 2, 3, 4, 5])
    assert (fixed.median_ns, fixed.q1_ns, fixed.q3_ns, fixed.mean_ns) == (3, 2, 4, 3)
    interp = summarize([1, 2, 3, 4])
    assert (interp.q1_ns, interp.median_ns, interp.q3_ns) == (1.75, 2.5, 3.25)
    assert interp.std_ns == math.sqrt(1.25)

    rng = np.random.default_rng(909)
    n = 10_000
    for _ in range(n):
        size = int(rng.integers(1, 48))
        values = [int(v) for v in rng.integers(-(10**12), 10**12, size)]
        shift = int(rng.integers(-(10**9), 10**9))
        base = summarize(values)
        permuted = summarize(list(np.random.default_rng(size).permutation(values)))
        assert permuted == base
        shifted = summarize([v + shift for v in values])
        assert shifted.min_ns == base.min_ns + shift
        assert shifted.max_ns == base.max_ns + shift
        assert math.isclose(shifted.median_ns, base.median_ns + shift, rel_tol=0, abs_tol=1e-5)
        assert math.isclose(shifted.iqr_ns, base.iqr_ns, rel_tol=0, abs_tol=1e-5)
        assert math.isclose(shifted.std_ns, base.std_ns, rel_tol=1e-12, abs_tol=1e-5)

    for seed in range(200):
        log_rng = np.random.default_rng(seed)
        node = OPERATOR if seed % 2 else VEHICLE
        log = make_log(node, random_times(log_rng, int(log_rng.integers(1, 30)), 1, 10**9))
        assert parse_log(write_log(log)) == log
    budget.done(f"fixed vectors; {n} invariance cases; 200 CSV round trips")
