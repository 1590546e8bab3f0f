from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from m2mlat.clocks import (
    ClockModel,
    SyncMode,
    _disciplined,
    clock_errors,
    kernel_asymmetry,
    precision_analysis,
    preset_models,
    probe_offset,
    sample_clock_error,
)
from m2mlat.errors import ConfigInvalid, EmptyLog, LengthMismatch, NegativeRtt
from m2mlat.events import EventSource
from m2mlat.sim import simulate_shared_pulse_run

from helpers import OPERATOR, VEHICLE, make_log

MS = 1_000_000
S = 1_000_000_000


def _loop_disciplined(model: ClockModel, t_ns: int) -> float:
    """Independent epoch-by-epoch recurrence for the deterministic part."""
    c = model.correction_interval_s * 1e9
    drift = model.drift_ppm * 1e-6
    offset = float(model.initial_offset_ns)
    k = int(t_ns // c)
    for _ in range(k):
        offset = (offset + drift * c) * (1.0 - model.correction_gain)
    return offset + drift * (t_ns - k * c)


def _scalar_clock_error(model: ClockModel, t_ns: int) -> int:
    """The per-timestamp closed form clock_errors replaced, without its
    stochastic terms: what a model without jitter or spikes must give."""
    c_ns = model.correction_interval_s * 1e9
    drift = model.drift_ppm * 1e-6
    k = int(t_ns // c_ns)
    r = 1.0 - model.correction_gain
    if k == 0:
        base = float(model.initial_offset_ns)
    elif r == 0.0:
        base = 0.0
    else:
        rk = r**k
        base = rk * model.initial_offset_ns + drift * c_ns * r * (1.0 - rk) / (1.0 - r)
    offset = base + drift * (t_ns - k * c_ns)
    if model.spike_max_ns > 0:
        offset = max(-model.spike_max_ns, min(model.spike_max_ns, offset))
    return int(round(offset))


def clock_models(stochastic: bool = True):
    """ClockModels over the whole parameter space; without jitter and
    spikes unless ``stochastic``."""
    return st.builds(
        ClockModel,
        initial_offset_ns=st.integers(-(10**9), 10**9),
        drift_ppm=st.floats(-100, 100),
        jitter_std_ns=st.floats(0, 10**7) if stochastic else st.just(0.0),
        correction_interval_s=st.floats(0.001, 100),
        correction_gain=st.one_of(st.just(1.0), st.floats(0.001, 1.0)),
        spike_prob=st.floats(0, 1) if stochastic else st.just(0.0),
        spike_max_ns=st.integers(0, 10**8),
    )


TIMES = st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=20)


class TestSampleClockError:
    def test_all_zero_model_is_zero_everywhere(self):
        model = ClockModel()
        for t in (0, 1, 12_345, 10 * S, 3_600 * S):
            assert sample_clock_error(model, t, seed=1) == 0

    def test_one_ppm_drift_over_one_second(self):
        model = ClockModel(drift_ppm=1.0, correction_interval_s=100.0)
        assert sample_clock_error(model, 1 * S, seed=0) == 1000

    def test_full_gain_correction_zeroes_initial_offset(self):
        model = ClockModel(
            initial_offset_ns=50_000, correction_interval_s=1.0, correction_gain=1.0
        )
        assert sample_clock_error(model, S // 2, seed=0) == 50_000
        for t in (1 * S, 2 * S, 90 * S):
            assert sample_clock_error(model, t, seed=0) == 0

    def test_correction_applies_at_the_epoch_instant(self):
        model = ClockModel(
            initial_offset_ns=10_000, correction_interval_s=1.0, correction_gain=1.0
        )
        assert sample_clock_error(model, 1 * S - 1, seed=0) == 10_000
        assert sample_clock_error(model, 1 * S, seed=0) == 0

    def test_closed_form_matches_epoch_recurrence(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            model = ClockModel(
                initial_offset_ns=int(rng.integers(-(10**6), 10**6)),
                drift_ppm=float(rng.uniform(-5, 5)),
                correction_interval_s=float(rng.uniform(0.5, 60)),
                correction_gain=float(rng.uniform(0.05, 1.0)),
            )
            t = rng.integers(0, 3_600 * S, 5)
            assert _disciplined(model, t).tolist() == pytest.approx(
                [_loop_disciplined(model, x) for x in t.tolist()], rel=1e-9, abs=1e-3
            )

    def test_pure_function_of_model_time_seed(self):
        model = preset_models(SyncMode.CO_REFERENCED)[1]
        t = 123_456_789
        first = sample_clock_error(model, t, seed=9, salt=2)
        for _ in range(5):
            assert sample_clock_error(model, t, seed=9, salt=2) == first
        assert sample_clock_error(model, t, seed=10, salt=2) != first

    def test_salts_separate_node_streams(self):
        model = preset_models(SyncMode.AUTONOMOUS)[1]
        t = 55 * S
        a = sample_clock_error(model, t, seed=4, salt=1)
        b = sample_clock_error(model, t, seed=4, salt=2)
        assert a != b

    def test_call_order_does_not_matter(self):
        model = preset_models(SyncMode.AUTONOMOUS)[1]
        times = [3 * S, 1 * S, 2 * S]
        unordered = {t: sample_clock_error(model, t, seed=6) for t in times}
        ordered = {t: sample_clock_error(model, t, seed=6) for t in sorted(times)}
        assert unordered == ordered

    def test_excursion_bound_is_enforced(self):
        model = ClockModel(jitter_std_ns=5e6, spike_prob=0.5, spike_max_ns=1_000_000)
        worst = max(
            abs(sample_clock_error(model, t * MS, seed=3)) for t in range(2000)
        )
        assert worst <= 1_000_000

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigInvalid):
            sample_clock_error(ClockModel(), -1, seed=0)

    @pytest.mark.parametrize("t", [-(2**63), 2**63, 2**64 + 5])
    def test_time_outside_int64_range_rejected(self, t):
        with pytest.raises(ConfigInvalid):
            clock_errors(ClockModel(), [0, t], seed=0)
        with pytest.raises(ConfigInvalid):
            sample_clock_error(ClockModel(), t, seed=0)

    def test_model_validation(self):
        with pytest.raises(ConfigInvalid):
            ClockModel(jitter_std_ns=-1)
        with pytest.raises(ConfigInvalid):
            ClockModel(correction_gain=0.0)
        with pytest.raises(ConfigInvalid):
            ClockModel(spike_prob=1.5)


class TestClockErrors:
    @given(clock_models(), TIMES, st.integers(0, 2**64), st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_equals_scalar_calls(self, model, times, seed, salt):
        expected = [sample_clock_error(model, t, seed, salt) for t in times]
        assert clock_errors(model, times, seed, salt).tolist() == expected

    @given(clock_models(), TIMES, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_independent_of_order_and_repetition(self, model, times, rand):
        errors = clock_errors(model, times, seed=5, salt=2)
        picks = [rand.randrange(len(times)) for _ in range(2 * len(times))]
        again = clock_errors(model, [times[i] for i in picks], seed=5, salt=2)
        assert again.tolist() == errors[picks].tolist()

    @given(clock_models(stochastic=False), TIMES, st.integers(0, 2**64))
    @settings(max_examples=300, deadline=None)
    def test_deterministic_models_keep_the_closed_form_bit_for_bit(self, model, times, seed):
        assert clock_errors(model, times, seed).tolist() == [
            _scalar_clock_error(model, t) for t in times
        ]

    def test_clamp_holds_under_heavy_spikes(self):
        model = ClockModel(drift_ppm=50.0, jitter_std_ns=5e6, spike_prob=1.0,
                           spike_max_ns=1_000_000, correction_interval_s=1000.0)
        errors = clock_errors(model, np.arange(0, 100_000) * MS, seed=3)
        assert np.abs(errors).max() == 1_000_000

    def test_stream_moments(self):
        t = np.arange(200_000) * 3 * MS + 1
        jitter = clock_errors(ClockModel(jitter_std_ns=1e6), t, seed=8, salt=1)
        assert abs(jitter.mean()) < 0.01e6
        assert jitter.std() == pytest.approx(1e6, rel=0.01)
        spikes = clock_errors(ClockModel(spike_prob=0.25, spike_max_ns=10**6), t, seed=8)
        hit = spikes != 0
        assert hit.mean() == pytest.approx(0.25, abs=0.005)
        assert np.abs(spikes[hit]).mean() == pytest.approx(0.5e6, rel=0.01)
        assert abs(spikes[hit].mean()) < 0.01e6


class TestPresetCalibration:
    # One-hour shared-pulse run: 7200 pulses at 500 ms.
    PULSES = 7200
    PERIOD = 500 * MS

    def _run(self, mode, seed):
        log_a, log_b = simulate_shared_pulse_run(mode, self.PULSES, self.PERIOD, seed)
        return precision_analysis(log_a, log_b).stats_abs

    def test_autonomous_hour_matches_field_figures(self):
        s = self._run(SyncMode.AUTONOMOUS, seed=0)
        se = s.std_ns / math.sqrt(s.n)
        assert abs(s.mean_ns - 330_000) <= 3 * se
        assert 0.75 * 219_000 <= s.std_ns <= 1.25 * 219_000
        assert s.max_ns <= 1_100_000

    def test_co_referenced_hour_matches_field_figures(self):
        s = self._run(SyncMode.CO_REFERENCED, seed=0)
        se = s.std_ns / math.sqrt(s.n)
        assert abs(s.mean_ns - 322_000) <= 3 * se
        assert s.max_ns <= 4_500_000

    def test_means_within_20pct_over_three_seeds(self):
        # full 10-seed sweep lives in the acceptance suite
        for seed in range(3):
            auto = self._run(SyncMode.AUTONOMOUS, seed)
            assert abs(auto.mean_ns - 330_000) <= 0.2 * 330_000
            coref = self._run(SyncMode.CO_REFERENCED, seed)
            assert abs(coref.mean_ns - 322_000) <= 0.2 * 322_000


class TestPrecisionAnalysis:
    def test_identical_logs_give_zero_offsets(self):
        log = make_log(OPERATOR, [1 * S, 2 * S, 3 * S], source=EventSource.SHARED_PULSE)
        series = precision_analysis(log, log)
        assert all(off == 0 for _, off in series.samples)
        assert series.stats_signed.mean_ns == 0.0
        assert series.stats_signed.std_ns == 0.0

    def test_constant_shift_reports_a_minus_b(self):
        times = [1 * S, 2 * S, 3 * S]
        log_a = make_log(OPERATOR, times, source=EventSource.SHARED_PULSE)
        log_b = make_log(VEHICLE, [t + 5 * MS for t in times], source=EventSource.SHARED_PULSE)
        series = precision_analysis(log_a, log_b)
        assert {off for _, off in series.samples} == {-5 * MS}
        assert series.stats_abs.mean_ns == 5 * MS

    def test_antisymmetric_under_swap(self):
        rng = np.random.default_rng(21)
        times = sorted(int(t) for t in rng.integers(1 * S, 100 * S, 50))
        jitter = [int(j) for j in rng.integers(-(2 * MS), 2 * MS, 50)]
        log_a = make_log(OPERATOR, times)
        log_b = make_log(VEHICLE, [t + j for t, j in zip(times, jitter)])
        ab = precision_analysis(log_a, log_b)
        ba = precision_analysis(log_b, log_a)
        assert [off for _, off in ba.samples] == [-off for _, off in ab.samples]

    def test_pairs_by_seq_when_one_log_has_gaps(self):
        times = [i * S for i in range(1, 401)]
        log_a = make_log(OPERATOR, times)
        # node b missed pulses 10 and 20 (0.5% unmatched, inside tolerance)
        bt = [(s, t + 7 * MS) for s, t in zip(range(400), times) if s not in (10, 20)]
        log_b = make_log(VEHICLE, [t for _, t in bt], seqs=[s for s, _ in bt])
        series = precision_analysis(log_a, log_b)
        assert len(series.samples) == 398
        assert {off for _, off in series.samples} == {-7 * MS}

    def test_falls_back_to_order_for_unrelated_numbering(self):
        times = [i * S for i in range(1, 11)]
        log_a = make_log(OPERATOR, times, seqs=range(10))
        log_b = make_log(VEHICLE, [t + MS for t in times], seqs=range(1000, 1010))
        series = precision_analysis(log_a, log_b)
        assert len(series.samples) == 10
        assert {off for _, off in series.samples} == {-MS}

    def test_length_mismatch_beyond_tolerance(self):
        log_a = make_log(OPERATOR, [i * S for i in range(1, 101)])
        log_b = make_log(VEHICLE, [i * S for i in range(1, 91)], seqs=range(1000, 1090))
        with pytest.raises(LengthMismatch):
            precision_analysis(log_a, log_b)

    def test_empty_log(self):
        log = make_log(OPERATOR, [1 * S])
        with pytest.raises(EmptyLog):
            precision_analysis(log, make_log(VEHICLE, []))

    def test_equal_times_on_one_node(self):
        # an event log may repeat a timestamp; the offsets keep log order
        log_a = make_log(OPERATOR, [1 * S, 1 * S, 2 * S])
        log_b = make_log(VEHICLE, [1 * S + MS, 1 * S + 2 * MS, 2 * S + MS])
        series = precision_analysis(log_a, log_b)
        assert series.samples.tolist() == [(1 * S, -MS), (1 * S, -2 * MS), (2 * S, -MS)]

    def test_offsets_csv(self):
        log = make_log(OPERATOR, [1 * S, 2 * S], source=EventSource.SHARED_PULSE)
        out = precision_analysis(log, log).to_csv()
        assert out.splitlines()[0] == "t_ref_ns,offset_ns"
        assert out.splitlines()[1] == f"{1 * S},0"


class TestKernelAsymmetry:
    def test_identical_nodes(self):
        samples = [2_000, 5_000, 62_000]
        assert kernel_asymmetry(samples, samples) == 60_000

    def test_autonomous_table_row(self):
        assert kernel_asymmetry([2_000, 118_000], [2_000, 106_000]) == 116_000

    def test_co_referenced_table_row(self):
        assert kernel_asymmetry([2_000, 62_000], [3_000, 52_000]) == 59_000

    def test_from_samples(self):
        a = np.array([5_000, 2_000, 9_000])
        assert kernel_asymmetry(a, [4_000, 3_000]) == 6_000
        assert kernel_asymmetry([-(2**63)], [2**63 - 1]) == 2**64 - 1

    def test_invalid_stats(self):
        with pytest.raises(EmptyLog):
            kernel_asymmetry([], [1_000])
        with pytest.raises(EmptyLog):
            kernel_asymmetry([1_000], np.array([], dtype=np.int64))


class TestProbeOffset:
    def test_symmetric_exchange_recovers_zero(self):
        assert probe_offset(0, 1_000_000, 1_000_000, 2_000_000) == (0.0, 2_000_000)

    def test_remote_clock_ahead(self):
        offset, rtt = probe_offset(0, 11_000_000, 11_000_000, 2_000_000)
        assert offset == 10_000_000
        assert rtt == 2_000_000

    def test_asymmetric_paths_bias_is_half_the_asymmetry(self):
        offset, rtt = probe_offset(0, 1_000_000, 1_000_000, 4_000_000)
        assert offset == -1_000_000
        assert rtt == 4_000_000

    def test_remote_processing_excluded_from_rtt(self):
        offset, rtt = probe_offset(0, 1_000_000, 5_000_000, 6_000_000)
        assert rtt == 2_000_000
        assert offset == 0.0

    def test_negative_rtt_raises(self):
        with pytest.raises(NegativeRtt):
            probe_offset(0, 0, 10_000_000, 1_000_000)
        with pytest.raises(NegativeRtt):
            probe_offset(100, 0, 0, 50)

    @given(
        st.integers(min_value=0, max_value=10**8),
        st.integers(min_value=0, max_value=10**8),
        st.integers(min_value=0, max_value=10**7),
        st.integers(min_value=-(10**8), max_value=10**8),
    )
    @settings(max_examples=300)
    def test_bias_equals_half_asymmetry(self, d1, d2, proc, theta):
        t0 = 10**12
        t1 = t0
        t2 = t0 + d1 + theta
        t3 = t2 + proc
        t4 = t0 + d1 + proc + d2
        offset, rtt = probe_offset(t1, t2, t3, t4)
        assert offset - theta == (d1 - d2) / 2
        assert rtt == d1 + d2
