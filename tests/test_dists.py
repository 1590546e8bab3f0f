from __future__ import annotations

import numpy as np
import pytest

from m2mlat.dists import (
    ConstantDelay,
    DistKind,
    EmpiricalDelay,
    GammaDelay,
    LogNormalDelay,
    fit_delay_dist,
)
from m2mlat.errors import ConfigInvalid, Unfittable

MS = 1_000_000

# (median_ms, iqr_ms) pairs from the four field scenarios
SCENARIO_STATS = [
    (874.5, 198.0),
    (930.6, 105.0),
    (767.8, 141.7),
    (815.2, 145.9),
]


class TestConstant:
    def test_all_samples_equal_median(self):
        d = ConstantDelay(10 * MS)
        rng = np.random.default_rng(0)
        assert set(d.sample(rng, 1000).tolist()) == {10 * MS}
        assert d.median_ns() == 10 * MS
        assert d.iqr_ns() == 0.0

    def test_sampling_does_not_consume_rng(self):
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        ConstantDelay(5).sample(rng_a, 100)
        assert rng_a.integers(0, 2**31) == rng_b.integers(0, 2**31)

    def test_fit(self):
        d = fit_delay_dist(DistKind.CONSTANT, 10 * MS, 0)
        assert isinstance(d, ConstantDelay)
        with pytest.raises(Unfittable):
            fit_delay_dist(DistKind.CONSTANT, 10 * MS, 5)

    def test_out_of_range_rejected(self):
        for bad in (-1, 2**63):
            with pytest.raises(ConfigInvalid):
                ConstantDelay(bad)


class TestLogNormalFit:
    @pytest.mark.parametrize("median_ms,iqr_ms", SCENARIO_STATS)
    def test_analytic_quantiles_hit_targets(self, median_ms, iqr_ms):
        d = fit_delay_dist(DistKind.LOGNORMAL, median_ms * MS, iqr_ms * MS)
        assert d.median_ns() == pytest.approx(median_ms * MS, rel=1e-12)
        assert d.iqr_ns() == pytest.approx(iqr_ms * MS, rel=1e-12)

    @pytest.mark.parametrize("median_ms,iqr_ms", SCENARIO_STATS)
    def test_monte_carlo_quantiles_within_tolerance(self, median_ms, iqr_ms):
        # spread targets: median within 1%, IQR within 3% at 1e5 draws
        d = fit_delay_dist(DistKind.LOGNORMAL, median_ms * MS, iqr_ms * MS)
        rng = np.random.default_rng(8)
        draws = d.sample(rng, 100_000)
        med = np.quantile(draws, 0.5)
        q1, q3 = np.quantile(draws, [0.25, 0.75])
        assert abs(med - median_ms * MS) <= 0.01 * median_ms * MS
        assert abs((q3 - q1) - iqr_ms * MS) <= 0.03 * iqr_ms * MS

    def test_tail_mass_above_one_second(self):
        # a log-normal carrying the whole dynamic co-referenced total puts
        # low-single-digit percent beyond 1 s; the field figure was 1.4%
        d = fit_delay_dist(DistKind.LOGNORMAL, int(767.8 * MS), int(141.7 * MS))
        rng = np.random.default_rng(9)
        frac = float(np.mean(d.sample(rng, 100_000) > 1_000 * MS))
        assert 0.0 < frac < 0.06
        assert abs(frac - 0.014) <= 0.02

    def test_non_negative(self):
        d = fit_delay_dist(DistKind.LOGNORMAL, 5 * MS, 20 * MS)
        rng = np.random.default_rng(10)
        assert (d.sample(rng, 50_000) >= 0).all()

    def test_scaling_scales_coupled_draws_exactly(self):
        d = fit_delay_dist(DistKind.LOGNORMAL, 100 * MS, 30 * MS)
        scaled = d.scaled(2.0)
        a = d.sample(np.random.default_rng(4), 1000).astype(float)
        b = scaled.sample(np.random.default_rng(4), 1000).astype(float)
        assert np.allclose(b, 2.0 * a, rtol=1e-9, atol=1.0)

    def test_zero_sigma_rejected(self):
        with pytest.raises(ConfigInvalid):
            LogNormalDelay(10.0, 0.0)


class TestGammaFit:
    @pytest.mark.parametrize("median_ms,iqr_ms", [(874.5, 198.0), (50.0, 120.0)])
    def test_fit_hits_targets(self, median_ms, iqr_ms):
        d = fit_delay_dist(DistKind.GAMMA, median_ms * MS, iqr_ms * MS)
        assert d.median_ns() == pytest.approx(median_ms * MS, rel=1e-9)
        assert d.iqr_ns() == pytest.approx(iqr_ms * MS, rel=1e-9)
        rng = np.random.default_rng(11)
        draws = d.sample(rng, 100_000)
        assert (draws >= 0).all()
        assert abs(np.quantile(draws, 0.5) - median_ms * MS) <= 0.01 * median_ms * MS
        q1, q3 = np.quantile(draws, [0.25, 0.75])
        assert abs((q3 - q1) - iqr_ms * MS) <= 0.03 * iqr_ms * MS

    def test_unfittable_ratio(self):
        # far below the near-normal limit of iqr/median for any shape
        with pytest.raises(Unfittable):
            fit_delay_dist(DistKind.GAMMA, 10**9, 1)

    def test_scaled(self):
        d = fit_delay_dist(DistKind.GAMMA, 100 * MS, 30 * MS)
        assert d.scaled(3.0).median_ns() == pytest.approx(300 * MS, rel=1e-9)


class TestEmpirical:
    def test_samples_come_from_the_list(self):
        d = EmpiricalDelay((10, 20, 30))
        rng = np.random.default_rng(12)
        assert set(d.sample(rng, 500).tolist()) <= {10, 20, 30}

    def test_quantiles_use_the_shared_rule(self):
        d = EmpiricalDelay((1, 2, 3, 4))
        assert d.median_ns() == 2.5
        assert d.iqr_ns() == 1.5

    def test_cannot_be_fitted(self):
        with pytest.raises(Unfittable):
            fit_delay_dist(DistKind.EMPIRICAL, 100, 10)

    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            EmpiricalDelay(())
        with pytest.raises(ConfigInvalid):
            EmpiricalDelay((5, -1))
        with pytest.raises(ConfigInvalid):
            EmpiricalDelay((5, 2**63))


def test_fit_rejects_bad_targets():
    with pytest.raises(Unfittable):
        fit_delay_dist(DistKind.LOGNORMAL, 0, 10)
    with pytest.raises(Unfittable):
        fit_delay_dist(DistKind.LOGNORMAL, 100, 0)
    with pytest.raises(Unfittable):
        fit_delay_dist(DistKind.GAMMA, 100, -1)
