from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from m2mlat.errors import ConfigInvalid, EmptySample, TooFewSamples
from m2mlat.stats import boxplot_data, sorted_samples, stats_csv, summarize

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
int64s = st.integers(INT64_MIN, INT64_MAX)


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


# Sizes at the edges of numpy's float64 sum, which the list path's standard
# deviation ports: 8 running sums, 128-item blocks, 8,192-item cast chunks.
# CI also runs these tests at the oldest numpy that pyproject.toml allows.
EDGE_SIZES = (7, 8, 127, 128, 129, 8_191, 8_192, 8_193)


@st.composite
def int64_lists(draw):
    """A list of 1 to 20,000 ints within int64: ``distinct`` values drawn
    from a range of ``2**bits`` (1 gives an all-equal set, a few give
    ties), and sometimes either extreme of int64."""
    n = draw(st.sampled_from(EDGE_SIZES) | st.integers(1, 20_000))
    spread = 2 ** draw(st.integers(0, 64)) - 1
    lo = draw(st.integers(INT64_MIN, INT64_MAX - spread))
    distinct = draw(st.sampled_from((1, 2, 3)) | st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(lo, lo + spread, distinct, dtype=np.int64, endpoint=True)
    values = pool[rng.integers(0, distinct, n)].tolist()
    for extreme in draw(st.sets(st.sampled_from((INT64_MIN, INT64_MAX)))):
        values[rng.integers(n)] = extreme
    return values


def exact_fields(result):
    """Each field of a SummaryStats or BoxplotData with its type, floats
    as ``float.hex``, so that one ulp or a numpy scalar shows."""
    def exact(value):
        if isinstance(value, dict):
            return {k: exact(v) for k, v in value.items()}
        if isinstance(value, tuple):
            return tuple(map(exact, value))
        return type(value), value.hex() if isinstance(value, float) else value
    return {name: exact(value) for name, value in vars(result).items()}


def outcome(f, *args):
    """``exact_fields`` of what ``f(*args)`` returns, or the type and message of what it raises."""
    try:
        return exact_fields(f(*args))
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(int64_lists(), st.lists(int64s, max_size=3))
def test_an_int_list_reduces_as_its_int64_array_bit_for_bit(values, thresholds):
    # report --samples and probe's summary pass lists, which stats reduces
    # without numpy; pairing and clocks pass arrays
    assert isinstance(sorted_samples(values), list)
    thresholds = [*thresholds, values[0]]  # one equal to a sample, which it does not exceed
    arr = np.array(values, dtype=np.int64)
    ordered = sorted_samples(arr)
    assert ordered.tolist() == sorted(values)
    assert sorted_samples(ordered) is ordered  # sorted already: one pass, no sort
    assert exact_fields(summarize(values, thresholds)) == exact_fields(summarize(arr, thresholds))
    assert outcome(boxplot_data, values) == outcome(boxplot_data, arr)
    # both paths bisect for frac_over and the fences; numpy's masks are the reference
    frac_over = summarize(arr, thresholds).frac_over
    assert frac_over == {t: np.count_nonzero(arr > t) / arr.size for t in thresholds}
    if arr.size >= 5:
        bp = boxplot_data(arr)
        iqr = bp.q3_ns - bp.q1_ns
        inside = (arr >= bp.q1_ns - 1.5 * iqr) & (arr <= bp.q3_ns + 1.5 * iqr)
        assert (bp.whisker_lo_ns, bp.whisker_hi_ns) == (arr[inside].min(), arr[inside].max())
        assert bp.outliers_ns == tuple(np.sort(arr[~inside]).tolist())


@pytest.mark.parametrize("seed", [19, 28, 37])
def test_a_long_int_list_sums_its_mean_in_numpys_cast_chunks(seed):
    # on these sets one pairwise sum over all 8,193 distances moves the mean,
    # and so the std, by an ulp from numpy's, which sums 8,192 at a time
    rnd = random.Random(seed)
    values = [rnd.randint(INT64_MIN, INT64_MAX) for _ in range(8_193)]
    assert summarize(values).std_ns.hex() == summarize(np.array(values)).std_ns.hex()


@given(st.lists(int64s, max_size=4))
def test_a_short_int_list_is_refused_as_its_array_is(values):
    arr = np.array(values, dtype=np.int64)
    assert outcome(summarize, values) == outcome(summarize, arr)
    expected = outcome(boxplot_data, arr)
    assert expected[0] is TooFewSamples
    assert outcome(boxplot_data, values) == expected
    assert outcome(boxplot_data, tuple(values)) == expected


@given(
    st.lists(int64s, max_size=30),
    st.floats(-1e18, 1e18) | st.booleans()
    | st.integers(2**63, 2**70) | st.integers(-(2**70), INT64_MIN - 1),
    st.data(),
)
def test_a_list_with_a_float_bool_or_wide_int_is_read_as_an_int64_array(values, odd, data):
    # such a list takes the array path: np.asarray's cast, or its error
    at = data.draw(st.integers(0, len(values)))
    values = [*values[:at], odd, *values[at:]]
    try:
        arr = np.asarray(values, dtype=np.int64)
    except (OverflowError, ValueError) as exc:
        expected = expected_box = type(exc), str(exc)
    else:
        expected, expected_box = outcome(summarize, arr, [0]), outcome(boxplot_data, arr)
    assert outcome(summarize, values, [0]) == expected
    assert outcome(boxplot_data, values) == expected_box


@pytest.mark.parametrize("big", [2**63, 2**64 - 1])
def test_unsigned_samples_beyond_int64_are_refused(big):
    # cast to int64 they would wrap negative: 2**64 - 1 would read as -1
    samples = np.array([5, big, 7] * 2, np.uint64)
    for reduce in (summarize, boxplot_data, sorted_samples):
        with pytest.raises(ConfigInvalid, match="do not fit in int64"):
            reduce(samples)
    with pytest.raises(ConfigInvalid):
        summarize(np.uint64(big))


@pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64])
def test_unsigned_samples_within_int64_reduce_as_int64(dtype):
    values = [5, min(int(np.iinfo(dtype).max), INT64_MAX), 7, 0, 3]
    assert summarize(np.array(values, dtype)) == summarize(np.array(values, np.int64))
