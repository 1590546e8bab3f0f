from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from m2mlat.errors import ConfigInvalid, EmptyLog, RoleMismatch
from m2mlat.pairing import (
    PairingConfig,
    _match,
    _walk,
    compute_m2m,
    debounce,
    pair_events,
)

from helpers import (
    OPERATOR, VEHICLE, events_of, make_log, oracle_debounce, oracle_pairs, pairs_of,
    random_times,
)

MS = 1_000_000
S = 1_000_000_000


class TestDebounce:
    def test_zero_window_is_identity(self):
        log = make_log(OPERATOR, [1, 2, 2, 5])
        assert debounce(log, 0) == log

    def test_burst_keeps_first(self):
        log = make_log(OPERATOR, [1, 1 * MS, 600 * MS])
        kept = debounce(log, 500 * MS)
        assert kept.t_wall_ns.tolist() == [1, 600 * MS]

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
            expected = oracle_debounce(events_of(log), window)
            assert events_of(kept) == expected
            assert (kept is log) == (len(expected) == n)

    def test_burst_longer_than_the_window(self):
        # 30 events w/3 apart: the greedy walk keeps every third one, the
        # first of each stretch lasting the window or more
        w = 300 * MS
        times = [7 * S + k * (w // 3) for k in range(30)] + [20 * S, 20 * S + 1]
        log = make_log(OPERATOR, times)
        kept = debounce(log, w)
        assert events_of(kept) == oracle_debounce(events_of(log), w)
        assert kept.t_wall_ns.tolist() == times[0:30:3] + [20 * S]


class TestComputeM2m:
    def test_equal_times(self):
        assert compute_m2m(5000, 5000) == 0

    def test_plain_subtraction(self):
        assert compute_m2m(100 * MS, 150 * MS) == 50 * MS

    def test_negative_allowed_here(self):
        assert compute_m2m(2 * S, 1 * S) == -1 * S

    def test_columns(self):
        op_t = np.array([100 * MS, 2 * S], dtype=np.int64)
        veh_t = np.array([150 * MS, 1 * S], dtype=np.int64)
        assert compute_m2m(op_t, veh_t).tolist() == [50 * MS, -1 * S]


class TestPairEvents:
    def test_single_pair(self):
        op = make_log(OPERATOR, [1 * S])
        veh = make_log(VEHICLE, [1 * S + 800 * MS])
        report = pair_events(op, veh, PairingConfig(debounce_ns=0))
        assert report.m2m_values.tolist() == [800 * MS]
        assert report.unmatched_op == report.unmatched_veh == 0

    def test_disjoint_windows(self):
        op = make_log(OPERATOR, [1 * S, 6 * S])
        veh = make_log(VEHICLE, [1 * S + 800 * MS, 6 * S + 900 * MS])
        report = pair_events(op, veh, PairingConfig(debounce_ns=0))
        assert report.m2m_values.tolist() == [800 * MS, 900 * MS]

    def test_negative_latency_is_unmatched(self):
        op = make_log(OPERATOR, [2 * S])
        veh = make_log(VEHICLE, [1 * S])
        report = pair_events(op, veh, PairingConfig(debounce_ns=0))
        assert len(report.samples) == 0
        assert report.unmatched_op == 1
        assert report.unmatched_veh == 1

    def test_tie_goes_to_lower_seq(self):
        op = make_log(OPERATOR, [1 * S])
        veh = make_log(VEHICLE, [1 * S + MS, 1 * S + MS], seqs=[3, 7])
        report = pair_events(op, veh, PairingConfig(debounce_ns=0))
        assert report.samples["veh_seq"].tolist() == [3]

    def test_consumed_events_never_rematch(self):
        op = make_log(OPERATOR, [1 * S, 1 * S + 10 * MS], seqs=[0, 1])
        veh = make_log(VEHICLE, [1 * S + 100 * MS])
        report = pair_events(op, veh, PairingConfig(debounce_ns=0))
        assert len(report.samples) == 1
        assert report.samples["op_seq"].tolist() == [0]
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
        with pytest.raises(ConfigInvalid):
            PairingConfig(max_window_ns=2**63)

    def test_timestamps_and_windows_near_int64_max(self):
        # the column arithmetic must not wrap where Python ints would not
        top = 2**63 - 1
        op = make_log(OPERATOR, [top - 10])
        veh = make_log(VEHICLE, [top - 8, top])
        rep = pair_events(op, veh, PairingConfig(debounce_ns=top, min_latency_ns=1,
                                                 max_window_ns=top))
        assert rep.m2m_values.tolist() == [2]
        assert rep.suppressed_veh == 1
        # op_t + min_latency_ns lies beyond int64: no vehicle event can follow
        rep = pair_events(op, veh, PairingConfig(debounce_ns=0, min_latency_ns=20,
                                                 max_window_ns=top))
        assert (len(rep.samples), rep.unmatched_op, rep.unmatched_veh) == (0, 1, 2)

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
            assert total == len(op) + len(veh)


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
        expected = oracle_pairs(events_of(op), events_of(veh), cfg)
        assert pairs_of(got) == expected
        assert got.m2m_values.tolist() == [veh[1] - op[1] for op, veh in expected]


def _alternating_chain(n):
    """n operator windows that all start at vehicle event 0; the vehicle
    events are twice as far apart as the operator events, so the windows
    hit and miss in turn: operator event i takes vehicle event i / 2 when i
    is even and misses when it is odd."""
    op = make_log(OPERATOR, [S + i for i in range(n)])
    veh = make_log(VEHICLE, [S + n + 2 * j for j in range(n)])
    return op, veh, PairingConfig(debounce_ns=0, max_window_ns=n)


def test_windows_sharing_one_first_vehicle_event():
    op, veh, cfg = _alternating_chain(300)
    got = pair_events(op, veh, cfg)
    assert pairs_of(got) == oracle_pairs(events_of(op), events_of(veh), cfg)
    assert got.samples["op_seq"].tolist() == list(range(0, 300, 2))
    assert got.samples["veh_seq"].tolist() == list(range(150))


def test_collision_chain_of_50000_events():
    # one chain of collisions across the whole log, which a resolution that
    # settles one more event per pass over the log could not finish here
    n = 50_000
    op, veh, cfg = _alternating_chain(n)
    got = pair_events(op, veh, cfg)
    assert got.samples["op_seq"].tolist() == list(range(0, n, 2))
    assert got.samples["veh_seq"].tolist() == list(range(n // 2))
    assert (got.unmatched_op, got.unmatched_veh) == (n // 2, n // 2)


@settings(max_examples=200)
@given(st.data())
def test_match_equals_the_walk(data):
    # dense windows over few vehicle events, so collisions chain
    n_op, n_veh = data.draw(st.integers(1, 80)), data.draw(st.integers(1, 80))
    op_t = np.sort(data.draw(st.lists(st.integers(1, 500), min_size=n_op, max_size=n_op)))
    veh_t = np.sort(data.draw(st.lists(st.integers(1, 500), min_size=n_veh, max_size=n_veh)))
    lo = data.draw(st.integers(0, 40))
    hi = lo + data.draw(st.integers(1, 200))
    first = np.searchsorted(veh_t - lo, op_t)
    last = np.searchsorted(veh_t - hi, op_t, side="right") - 1
    starts, hits = _walk(first.tolist(), last.tolist())
    op_idx, veh_idx = _match(first, last)
    assert op_idx.tolist() == [i for i, hit in enumerate(hits) if hit]
    assert veh_idx.tolist() == [s for s, hit in zip(starts, hits) if hit]


def test_matching_is_monotone():
    rng = np.random.default_rng(11)
    for _ in range(100):
        op, veh, cfg = _random_instance(rng, max_events=30)
        pairs = pairs_of(pair_events(op, veh, cfg))
        for (op1, veh1), (op2, veh2) in zip(pairs, pairs[1:]):
            assert op1[1] <= op2[1]
            assert (veh1[1], veh1[0]) < (veh2[1], veh2[0])


@given(st.integers(min_value=-(10**6), max_value=10**12), st.data())
@settings(max_examples=60)
def test_translation_invariance(delta, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    op, veh, cfg = _random_instance(rng, max_events=15)
    lo = min(op.t_wall_ns[0], veh.t_wall_ns[0])
    delta = max(delta, 1 - int(lo))  # keep timestamps positive
    op2 = make_log(OPERATOR, op.t_wall_ns + delta)
    veh2 = make_log(VEHICLE, veh.t_wall_ns + delta)
    base = pair_events(op, veh, cfg)
    moved = pair_events(op2, veh2, cfg)
    assert moved.m2m_values.tolist() == base.m2m_values.tolist()


def test_vehicle_offset_shifts_every_latency():
    # a constant vehicle-clock offset lands one-for-one in the measurement
    rng = np.random.default_rng(13)
    op = make_log(OPERATOR, random_times(rng, 20, 1 * S, 100 * S))
    veh_times = [t + 700 * MS for t in op.t_wall_ns.tolist()]
    veh = make_log(VEHICLE, veh_times)
    cfg = PairingConfig(debounce_ns=0, max_window_ns=2 * S)
    base = pair_events(op, veh, cfg)
    for c in (-5 * MS, 3 * MS, 50 * MS):
        shifted = make_log(VEHICLE, [t + c for t in veh_times])
        rep = pair_events(op, shifted, cfg)
        assert rep.m2m_values.tolist() == [m + c for m in base.m2m_values.tolist()]


def test_result_independent_of_record_multiplicity_order():
    # identical content built in different chunk orders pairs identically
    rng = np.random.default_rng(3)
    op, veh, cfg = _random_instance(rng)
    rebuilt_op = make_log(
        OPERATOR,
        op.t_wall_ns.tolist(),
        seqs=op.seq.tolist(),
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
