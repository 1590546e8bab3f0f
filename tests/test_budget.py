from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from m2mlat.budget import (
    DEFAULT_CIRCUIT_ERROR_NS,
    CalibModel,
    calib_error,
    kernel_asymmetry,
    total_error,
)
from m2mlat.cli import run_cli
from m2mlat.errors import ConfigInvalid, EmptyLog, NegativeComponent, ZeroRate

from helpers import oracle_calib_ns

MS = 1_000_000


class TestCalibError:
    def test_one_degree_at_hundred_dps_is_ten_ms(self):
        assert calib_error(CalibModel(1.0, 100.0)) == 10 * MS

    def test_zero_misalignment(self):
        assert calib_error(CalibModel(0.0, 42.0)) == 0

    def test_two_degrees_doubles(self):
        assert calib_error(CalibModel(2.0, 100.0)) == 20 * MS

    def test_zero_rate_rejected(self):
        with pytest.raises(ZeroRate):
            CalibModel(1.0, 0.0)
        with pytest.raises(ConfigInvalid):
            CalibModel(-1.0, 10.0)

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            mis = float(rng.uniform(0, 10))
            rate = float(rng.uniform(0.5, 500))
            assert calib_error(CalibModel(mis, rate)) == oracle_calib_ns(mis, rate)

    def test_homogeneity_within_integer_rounding(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            mis = float(rng.uniform(0.01, 5))
            rate = float(rng.uniform(1, 300))
            base = calib_error(CalibModel(mis, rate))
            assert abs(calib_error(CalibModel(2 * mis, rate)) - 2 * base) <= 1
            assert abs(calib_error(CalibModel(mis, 2 * rate)) - base / 2) <= 1


class TestTotalError:
    def test_zero_budget(self):
        b = total_error(0, 0, 0, 0)
        assert b.e_total_ns == 0
        assert not b.in_precision_band

    def test_nominal_components_sum_inside_band(self):
        # mean sync offset + sensor reaction + mean scheduling + calibration
        b = total_error(322_000, DEFAULT_CIRCUIT_ERROR_NS, 5_000, 10 * MS)
        assert b.e_total_ns == 10_329_000
        assert b.in_precision_band

    def test_worst_case_sync_spike_still_inside_band(self):
        b = total_error(4_446_000, DEFAULT_CIRCUIT_ERROR_NS, 116_000, 10 * MS)
        assert b.e_total_ns == 14_564_000
        assert b.in_precision_band

    def test_band_edges_inclusive(self):
        assert total_error(0, 0, 0, 10 * MS).in_precision_band
        assert total_error(5 * MS, 0, 0, 10 * MS).in_precision_band
        assert not total_error(5 * MS + 1, 0, 0, 10 * MS).in_precision_band
        assert not total_error(0, 0, 0, 10 * MS - 1).in_precision_band

    def test_sum_is_permutation_invariant(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            parts = [int(v) for v in rng.integers(0, 10**7, 4)]
            totals = {
                total_error(parts[i], parts[j], parts[k], parts[l]).e_total_ns
                for i, j, k, l in (
                    (0, 1, 2, 3),
                    (3, 2, 1, 0),
                    (1, 3, 0, 2),
                )
            }
            assert totals == {sum(parts)}

    def test_negative_component_rejected(self):
        with pytest.raises(NegativeComponent):
            total_error(-1, 0, 0, 0)

    def test_total_beyond_int64_rejected(self):
        # budget.csv cells are int64, as tables.read_int_columns reads them
        assert total_error(2**62, 2**62 - 1, 0, 0).e_total_ns == 2**63 - 1
        for parts in ((2**62, 2**62, 0, 0), (0, 0, 0, 10**22)):
            with pytest.raises(ConfigInvalid, match="does not fit in int64"):
                total_error(*parts)

    def test_text_and_csv_exports(self):
        b = total_error(322_000, 2_000, 5_000, 10 * MS)
        text = b.to_text()
        assert "e_total_ns=10329000" in text
        assert "in_precision_band=true" in text
        header, row = b.to_csv().strip().split("\n")
        assert header.startswith("e_sync_ns,")
        assert row == "322000,2000,5000,10000000,10329000,true"


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
        assert kernel_asymmetry([0], [2**63 - 1]) == 2**63 - 1

    def test_negative_sample_rejected(self):
        with pytest.raises(NegativeComponent):
            kernel_asymmetry([2_000], [-(2**63)])
        with pytest.raises(NegativeComponent):
            kernel_asymmetry(np.array([-1, 5_000]), [2_000])

    def test_invalid_stats(self):
        with pytest.raises(EmptyLog):
            kernel_asymmetry([], [1_000])
        with pytest.raises(EmptyLog):
            kernel_asymmetry([1_000], np.array([], dtype=np.int64))


LATENCY = st.integers(0, 2**63 - 1)


@given(st.lists(LATENCY, min_size=1, max_size=20), st.lists(LATENCY, min_size=1, max_size=20),
       st.booleans(), st.booleans())
def test_kernel_asymmetry_matches_numpy_oracle(a, b, a_array, b_array):
    # oracle: numpy's int64 extremes, differenced as Python ints
    x, y = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    expected = max(int(x.max()) - int(y.min()), int(y.max()) - int(x.min()))
    got = kernel_asymmetry(x if a_array else a, y if b_array else b)
    assert type(got) is int
    assert got == expected


@pytest.mark.parametrize("flags", [
    ["--kernel-ms", "0", "--calib-angle-deg", "1e10", "--steer-rate-dps", "0.001"],
    ["--sched-a", "{d}/a.csv", "--sched-b", "{d}/b.csv", "--calib-angle-deg", "1",
     "--steer-rate-dps", "100"],
], ids=["calib_beyond_int64", "negative_scheduling_latency"])
def test_cli_refuses_a_budget_it_cannot_write(tmp_path, capsys, flags):
    (tmp_path / "a.csv").write_text("latency_ns\n2000\n")
    (tmp_path / "b.csv").write_text("latency_ns\n-9223372036854775808\n")
    argv = ["budget", "--sync-ms", "0", *(f.format(d=tmp_path) for f in flags),
            "--out", str(tmp_path / "b")]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not (tmp_path / "b.budget.csv").exists()


def test_rounding_is_half_away_from_zero():
    from m2mlat.budget import _round_half_away

    assert _round_half_away(2.5) == 3
    assert _round_half_away(-2.5) == -3
    assert _round_half_away(2.4) == 2
    assert _round_half_away(-2.4) == -2
