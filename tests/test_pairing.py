from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from m2mlat.errors import ConfigInvalid, EmptyLog, RoleMismatch
from m2mlat.events import EventRecord, EventSource
from m2mlat.pairing import (
    PairingConfig,
    compute_m2m,
    debounce,
    pair_events,
)

from helpers import OPERATOR, VEHICLE, make_log, oracle_debounce, oracle_pairs, random_times

MS = 1_000_000
S = 1_000_000_000


class TestDebounce:
    def test_zero_window_is_identity(self):
        log = make_log(OPERATOR, [1, 2, 2, 5])
        assert debounce(log, 0) == log

    def test_burst_keeps_first(self):
        log = make_log(OPERATOR, [1, 1 * MS, 600 * MS])
        kept = debounce(log, 500 * MS)
        assert [r.t_wall_ns for r in kept.records] == [1, 600 * MS]

    def test_boundary_event_is_kept(self):
        log = make_log(OPERATOR, [1000, 1000 + 500 * MS])
        kept = debounce(log, 500 * MS)
        assert len(kept) == 2
        # nothing dropped: the input log itself comes back, not a rebuilt copy
        assert kept is log

    def test_idempotent(self):
        log = make_log(OPERATOR, [1, 2, 3, 400, 900, 901])
        once = debounce(log, 300)
        assert debounce(once, 300) == once

    def test_matches_greedy_oracle_on_random_bursts(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            times = random_times(rng, n, 1, 5000)
            window = int(rng.integers(0, 800))
            log = make_log(OPERATOR, times)
            kept = debounce(log, window)
            assert list(kept.records) == oracle_debounce(log.records, window)


class TestComputeM2m:
    def test_equal_times(self):
        e1 = EventRecord(0, 5000)
        e2 = EventRecord(0, 5000)
        assert compute_m2m(e1, e2) == 0

    def test_plain_subtraction(self):
        e1 = EventRecord(0, 100 * MS)
        e2 = EventRecord(0, 150 * MS)
        assert compute_m2m(e1, e2) == 50 * MS

    def test_negative_allowed_here(self):
        e1 = EventRecord(0, 2 * S)
        e2 = EventRecord(0, 1 * S)
        assert compute_m2m(e1, e2) == -1 * S


class TestPairEvents:
    def test_single_pair(self):
        op = make_log(OPERATOR, [1 * S])
        veh = make_log(VEHICLE, [1 * S + 800 * MS])
        report = pair_events(op, veh, PairingConfig(debounce_ns=0))
        assert [s.m2m_ns for s in report.samples] == [800 * MS]
        assert report.unmatched_op == report.unmatched_veh == 0

    def test_disjoint_windows(self):
        op = make_log(OPERATOR, [1 * S, 6 * S])
        veh = make_log(VEHICLE, [1 * S + 800 * MS, 6 * S + 900 * MS])
        report = pair_events(op, veh, PairingConfig(debounce_ns=0))
        assert [s.m2m_ns for s in report.samples] == [800 * MS, 900 * MS]

    def test_negative_latency_is_unmatched(self):
        op = make_log(OPERATOR, [2 * S])
        veh = make_log(VEHICLE, [1 * S])
        report = pair_events(op, veh, PairingConfig(debounce_ns=0))
        assert report.samples == ()
        assert report.unmatched_op == 1
        assert report.unmatched_veh == 1

    def test_tie_goes_to_lower_seq(self):
        op = make_log(OPERATOR, [1 * S])
        veh = make_log(VEHICLE, [1 * S + MS, 1 * S + MS], seqs=[3, 7])
        report = pair_events(op, veh, PairingConfig(debounce_ns=0))
        assert report.samples[0].veh_event.seq == 3

    def test_consumed_events_never_rematch(self):
        op = make_log(OPERATOR, [1 * S, 1 * S + 10 * MS], seqs=[0, 1])
        veh = make_log(VEHICLE, [1 * S + 100 * MS])
        report = pair_events(op, veh, PairingConfig(debounce_ns=0))
        assert len(report.samples) == 1
        assert report.samples[0].op_event.seq == 0
        assert report.unmatched_op == 1

    def test_empty_log_rejected(self):
        op = make_log(OPERATOR, [1 * S])
        with pytest.raises(EmptyLog):
            pair_events(op, make_log(VEHICLE, []))

    def test_role_checked(self):
        with pytest.raises(RoleMismatch):
            pair_events(make_log(VEHICLE, [1]), make_log(VEHICLE, [2]))

    def test_config_invalid(self):
        with pytest.raises(ConfigInvalid):
            PairingConfig(min_latency_ns=10, max_window_ns=10)
        with pytest.raises(ConfigInvalid):
            PairingConfig(debounce_ns=-1)

    def test_counts_cover_all_raw_events(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            op = make_log(OPERATOR, random_times(rng, int(rng.integers(1, 30)), 1, 10_000))
            veh = make_log(VEHICLE, random_times(rng, int(rng.integers(1, 30)), 1, 10_000))
            cfg = PairingConfig(
                debounce_ns=int(rng.integers(0, 200)),
                min_latency_ns=0,
                max_window_ns=int(rng.integers(1, 2000)),
            )
            rep = pair_events(op, veh, cfg)
            total = (
                2 * len(rep.samples)
                + rep.unmatched_op
                + rep.unmatched_veh
                + rep.suppressed_op
                + rep.suppressed_veh
            )
            assert total == len(op.records) + len(veh.records)


def _random_instance(rng, max_events=50):
    n_op = int(rng.integers(1, max_events + 1))
    n_veh = int(rng.integers(1, max_events + 1))
    horizon = 20_000
    op = make_log(OPERATOR, random_times(rng, n_op, 1, horizon))
    veh = make_log(VEHICLE, random_times(rng, n_veh, 1, horizon))
    min_lat = int(rng.integers(0, 50))
    cfg = PairingConfig(
        debounce_ns=int(rng.integers(0, 300)),
        min_latency_ns=min_lat,
        max_window_ns=min_lat + int(rng.integers(1, 3000)),
    )
    return op, veh, cfg


def test_matches_brute_force_oracle_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(150):
        op, veh, cfg = _random_instance(rng, max_events=30)
        got = pair_events(op, veh, cfg)
        expected = oracle_pairs(op.records, veh.records, cfg)
        assert [(s.op_event, s.veh_event) for s in got.samples] == expected


def test_matching_is_monotone():
    rng = np.random.default_rng(11)
    for _ in range(100):
        op, veh, cfg = _random_instance(rng, max_events=30)
        samples = pair_events(op, veh, cfg).samples
        for earlier, later in zip(samples, samples[1:]):
            assert earlier.op_event.t_wall_ns <= later.op_event.t_wall_ns
            assert (earlier.veh_event.t_wall_ns, earlier.veh_event.seq) < (
                later.veh_event.t_wall_ns,
                later.veh_event.seq,
            )


@given(st.integers(min_value=-(10**6), max_value=10**12), st.data())
@settings(max_examples=60)
def test_translation_invariance(delta, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    op, veh, cfg = _random_instance(rng, max_events=15)
    lo = min(op.records[0].t_wall_ns, veh.records[0].t_wall_ns)
    delta = max(delta, 1 - lo)  # keep timestamps positive
    op2 = make_log(OPERATOR, [r.t_wall_ns + delta for r in op.records])
    veh2 = make_log(VEHICLE, [r.t_wall_ns + delta for r in veh.records])
    base = pair_events(op, veh, cfg)
    moved = pair_events(op2, veh2, cfg)
    assert [s.m2m_ns for s in moved.samples] == [s.m2m_ns for s in base.samples]


def test_vehicle_offset_shifts_every_latency():
    # a constant vehicle-clock offset lands one-for-one in the measurement
    rng = np.random.default_rng(13)
    op = make_log(OPERATOR, random_times(rng, 20, 1 * S, 100 * S))
    veh_times = [r.t_wall_ns + 700 * MS for r in op.records]
    veh = make_log(VEHICLE, veh_times)
    cfg = PairingConfig(debounce_ns=0, max_window_ns=2 * S)
    base = pair_events(op, veh, cfg)
    for c in (-5 * MS, 3 * MS, 50 * MS):
        shifted = make_log(VEHICLE, [t + c for t in veh_times])
        rep = pair_events(op, shifted, cfg)
        assert [s.m2m_ns for s in rep.samples] == [s.m2m_ns + c for s in base.samples]


def test_result_independent_of_record_multiplicity_order():
    # identical content built in different chunk orders pairs identically
    rng = np.random.default_rng(3)
    op, veh, cfg = _random_instance(rng)
    rebuilt_op = make_log(
        OPERATOR,
        [r.t_wall_ns for r in op.records],
        seqs=[r.seq for r in op.records],
    )
    assert pair_events(rebuilt_op, veh, cfg) == pair_events(op, veh, cfg)


def test_pairing_csv_and_meta():
    op = make_log(OPERATOR, [1 * S])
    veh = make_log(VEHICLE, [1 * S + 800 * MS])
    rep = pair_events(op, veh, PairingConfig(debounce_ns=0))
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == "op_seq,veh_seq,op_t_wall_ns,veh_t_wall_ns,m2m_ns"
    assert csv_text.splitlines()[1].endswith(str(800 * MS))
    assert "samples=1" in rep.meta_text()
