from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from m2mlat.errors import EmptySample, TooFewSamples
from m2mlat.stats import boxplot_data, stats_csv, summarize


class TestSummarize:
    def test_hand_computed_five_values(self):
        s = summarize([1, 2, 3, 4, 5])
        assert (s.median_ns, s.q1_ns, s.q3_ns, s.iqr_ns, s.mean_ns) == (
            3.0,
            2.0,
            4.0,
            2.0,
            3.0,
        )
        assert (s.min_ns, s.max_ns, s.n) == (1, 5, 5)

    def test_interpolated_quantiles_four_values(self):
        # rank h = (n-1)p: q1 at 0.75 between 1 and 2, q3 at 2.25 between 3 and 4
        s = summarize([1, 2, 3, 4])
        assert (s.q1_ns, s.median_ns, s.q3_ns) == (1.75, 2.5, 3.25)

    def test_population_std(self):
        s = summarize([1, 2, 3, 4])
        assert s.std_ns == pytest.approx(math.sqrt(1.25), abs=0.0)

    def test_frac_over_is_strictly_greater(self):
        s = summarize(
            [900_000_000, 1_100_000_000, 1_200_000_000, 800_000_000],
            thresholds=[1_000_000_000],
        )
        assert s.frac_over[1_000_000_000] == 0.5

    def test_threshold_equal_sample_not_counted(self):
        s = summarize([10, 20], thresholds=[20])
        assert s.frac_over[20] == 0.0

    def test_single_sample(self):
        s = summarize([7])
        assert s.min_ns == s.max_ns == 7
        assert s.std_ns == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            summarize([])


@given(
    st.lists(st.integers(min_value=-(10**12), max_value=10**12), min_size=1, max_size=40),
    st.randoms(),
)
def test_summarize_is_permutation_invariant(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert summarize(shuffled) == summarize(values)


@given(
    st.lists(st.integers(min_value=-(4 * 10**18), max_value=4 * 10**18),
             min_size=5, max_size=300),
)
def test_quartiles_are_numpy_linear_quantiles_bit_for_bit(values):
    # numpy's quantile(method="linear") is the reference the pinned rank
    # formula reproduces; reports must not drift by one ulp from it
    expected = tuple(np.quantile(np.array(values), [0.25, 0.5, 0.75], method="linear"))
    s = summarize(values)
    bp = boxplot_data(values)
    assert (s.q1_ns, s.median_ns, s.q3_ns) == expected
    assert (bp.q1_ns, bp.median_ns, bp.q3_ns) == expected


@given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=1, max_size=300))
def test_mean_is_the_exact_mean_correctly_rounded(values):
    # past 2**53 a float64 sum rounds, and an int64 sum may wrap
    assert summarize(values).mean_ns == float(Fraction(sum(values), len(values)))


@given(
    st.lists(st.integers(min_value=-(10**12), max_value=10**12), min_size=1, max_size=40),
    st.integers(min_value=-(10**9), max_value=10**9),
)
def test_summarize_shift_moves_location_only(values, c):
    base = summarize(values)
    shifted = summarize([v + c for v in values])
    assert shifted.min_ns == base.min_ns + c
    assert shifted.max_ns == base.max_ns + c
    # correctly rounded, so exact even where base.mean_ns + c is an ulp off
    assert shifted.mean_ns == float(Fraction(sum(values) + len(values) * c, len(values)))
    assert shifted.median_ns == pytest.approx(base.median_ns + c, rel=0, abs=1e-6)
    assert shifted.q1_ns == pytest.approx(base.q1_ns + c, rel=0, abs=1e-6)
    assert shifted.q3_ns == pytest.approx(base.q3_ns + c, rel=0, abs=1e-6)
    assert shifted.std_ns == pytest.approx(base.std_ns, rel=0, abs=1e-6)
    assert shifted.iqr_ns == pytest.approx(base.iqr_ns, rel=0, abs=1e-6)


class TestBoxplot:
    def test_uniform_run_has_no_outliers(self):
        bp = boxplot_data(range(1, 101))
        assert bp.outliers_ns == ()
        assert (bp.whisker_lo_ns, bp.whisker_hi_ns) == (1, 100)

    def test_single_far_point_is_the_outlier(self):
        bp = boxplot_data(list(range(1, 21)) + [1000])
        assert bp.outliers_ns == (1000,)
        assert bp.whisker_hi_ns == 20
        assert bp.whisker_lo_ns == 1

    def test_whiskers_stay_within_tukey_fences(self):
        rng = np.random.default_rng(5)
        values = [int(v) for v in rng.normal(0, 1e6, 500)]
        bp = boxplot_data(values)
        iqr = bp.q3_ns - bp.q1_ns
        assert bp.whisker_lo_ns >= bp.q1_ns - 1.5 * iqr
        assert bp.whisker_hi_ns <= bp.q3_ns + 1.5 * iqr
        for x in bp.outliers_ns:
            assert x < bp.q1_ns - 1.5 * iqr or x > bp.q3_ns + 1.5 * iqr

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            boxplot_data([1, 2, 3, 4])


def test_stats_csv_round_trips_fields():
    s = summarize([5, 1, 4, 2, 3], thresholds=[3])
    header, row = stats_csv(s).strip().split("\n")
    fields = dict(zip(header.split(","), row.split(",")))
    assert int(fields["n"]) == s.n
    assert int(fields["min_ns"]) == s.min_ns
    assert int(fields["max_ns"]) == s.max_ns
    assert float(fields["mean_ns"]) == s.mean_ns
    assert float(fields["std_ns"]) == s.std_ns
    assert float(fields["median_ns"]) == s.median_ns
    assert float(fields["frac_over_3ns"]) == s.frac_over[3]
