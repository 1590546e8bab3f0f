from __future__ import annotations

import re
from decimal import Decimal

import numpy as np
import pytest

from m2mlat import __version__
from m2mlat.cli import run_cli
from m2mlat.pairing import PairingConfig, pair_events
from m2mlat.report import build_report, input_digest, make_provenance, render_text
from m2mlat.stats import boxplot_data, summarize

from helpers import OPERATOR, VEHICLE, loaded_modules, make_log

MS = 1_000_000
S = 1_000_000_000


def _sample_report():
    rng = np.random.default_rng(2)
    values = [int(v) for v in rng.normal(800e6, 100e6, 300)]
    prov = make_provenance(7, "abc123def456")
    return build_report("bench", values, prov, thresholds_ns=(1_000_000_000,))


def test_provenance_is_mandatory_and_rendered():
    rep = _sample_report()
    text = render_text(rep)
    assert f"tool_version: {__version__}" in text
    assert "seed: 7" in text
    assert "config_hash: abc123def456" in text
    assert "label: bench" in text


def test_render_text_is_pinned_whole():
    assert render_text(_sample_report()) == f"""\
# m2m latency report
label: bench
tool_version: {__version__}
seed: 7
config_hash: abc123def456

samples: 300
min_ms: 531.440471
max_ms: 1084.564507
mean_ms: 794.649385
std_ms: 101.622567
median_ms: 791.796504
q1_ms: 723.370004
q3_ms: 867.367086
iqr_ms: 143.997083
frac_over_1000ms: 0.0267

boxplot_q1_ms: 723.370004
boxplot_median_ms: 791.796504
boxplot_q3_ms: 867.367086
boxplot_whisker_lo_ms: 531.440471
boxplot_whisker_hi_ms: 1062.617382
boxplot_outliers: 1
"""


def test_render_text_with_pairing_and_two_thresholds_is_pinned_whole():
    # every count differs from the others, so the pin also fixes their order
    op = make_log(OPERATOR, sorted([5 * S * i + S for i in range(8)] + [S + 100 * MS, S + 200 * MS]))
    veh = make_log(VEHICLE, sorted([5 * S * i + S + (700 + 37 * i) * MS for i in range(7)]
                                   + [6 * S + 837 * MS, 47 * S, 48 * S, 49 * S]))
    pairing = pair_events(op, veh, PairingConfig(debounce_ns=250 * MS, max_window_ns=1500 * MS))
    rep = build_report("field", pairing.m2m_values, make_provenance(None, "feedc0ffee12"),
                       (850_500_000, 800 * MS), pairing)
    assert render_text(rep) == f"""\
# m2m latency report
label: field
tool_version: {__version__}
seed: n/a
config_hash: feedc0ffee12

samples: 7
min_ms: 700.000000
max_ms: 922.000000
mean_ms: 811.000000
std_ms: 74.000000
median_ms: 811.000000
q1_ms: 755.500000
q3_ms: 866.500000
iqr_ms: 111.000000
frac_over_800ms: 0.5714
frac_over_850.5ms: 0.2857

boxplot_q1_ms: 755.500000
boxplot_median_ms: 811.000000
boxplot_q3_ms: 866.500000
boxplot_whisker_lo_ms: 700.000000
boxplot_whisker_hi_ms: 922.000000
boxplot_outliers: 0

unmatched_op: 1
unmatched_veh: 3
suppressed_op: 2
suppressed_veh: 1
"""


def test_boxplot_consistent_with_stats():
    rep = _sample_report()
    s, bp = rep.stats, rep.boxplot
    assert bp.q1_ns == s.q1_ns
    assert bp.median_ns == s.median_ns
    assert bp.q3_ns == s.q3_ns
    iqr = s.iqr_ns
    assert s.q1_ns - 1.5 * iqr <= bp.whisker_lo_ns <= s.q1_ns
    assert s.q3_ns <= bp.whisker_hi_ns <= s.q3_ns + 1.5 * iqr


def test_render_includes_thresholds_and_boxplot():
    text = render_text(_sample_report())
    assert "frac_over_1000ms:" in text
    assert "boxplot_whisker_hi_ms:" in text


@pytest.mark.parametrize("as_array", [False, True])
def test_build_report_sorts_once_to_the_same_bits(as_array):
    # summarize and boxplot_data take build_report's one sorted copy, and
    # give what each gives alone on the unsorted samples, float for float
    rng = np.random.default_rng(5)
    values = [int(v) for v in rng.lognormal(20.4, 0.2, 1_001)]
    samples = np.array(values) if as_array else values
    alone = summarize(samples, (800_000_000, 10**9)), boxplot_data(samples)
    rep = build_report("t", samples, make_provenance(None, "x"), (800_000_000, 10**9))
    assert (rep.stats, rep.boxplot) == alone
    assert repr((rep.stats, rep.boxplot)) == repr(alone)


@pytest.mark.parametrize("thresholds_ns, keys", [
    ((1_000_000_000,), ["1000"]),
    ((1_000_000_100, 1_000_000_200), ["1000.0001", "1000.0002"]),
    ((1_234_567_800,), ["1234.5678"]),
    ((-1_500_000, 1, 2**62), ["-1.5", "0.000001", "4611686018427.387904"]),
])
def test_threshold_keys_are_exact_ms(thresholds_ns, keys):
    # the text names each threshold by its exact ms value, as stats.csv
    # names it by its ns value: no rounding, no exponent, no trailing zeros
    rep = build_report("t", [5, 7, 9, 11, 13], make_provenance(None, "x"), thresholds_ns)
    found = re.findall(r"^frac_over_(.*)ms: ", render_text(rep), re.M)
    assert found == keys
    assert [int(Decimal(k) * 1_000_000) for k in found] == sorted(thresholds_ns)


def test_report_cli_keeps_close_thresholds_apart(tmp_path, capsys):
    samples = tmp_path / "values.txt"
    samples.write_text("999000000\n999000000\n1000000150\n1000000150\n1000000250\n")
    code = run_cli(["report", "--samples", str(samples), "--threshold-ms", "1000.0001",
                    "--threshold-ms", "1000.0002", "--out", str(tmp_path / "rep")])
    assert code == 0
    out = capsys.readouterr().out
    assert "frac_over_1000.0001ms: 0.6000\nfrac_over_1000.0002ms: 0.2000\n" in out
    header = (tmp_path / "rep.stats.csv").read_text().splitlines()[0]
    assert header.endswith(",frac_over_1000000100ns,frac_over_1000000200ns")


def test_unknown_seed_becomes_na():
    assert make_provenance(None, "x").seed == "n/a"


def test_input_digest_is_order_sensitive_and_stable():
    a, b = b"one", b"two"
    assert input_digest(a, b) == input_digest(a, b)
    assert input_digest(a, b) != input_digest(b, a)
    assert len(input_digest(a)) == 12


def test_analysis_modules_load_no_simulator_and_no_scipy():
    # Parsing, pairing and reporting import neither the simulator stack nor
    # scipy, and records are no dataclasses.
    analysis = ["m2mlat.events", "m2mlat.pairing", "m2mlat.record", "m2mlat.stats", "numpy"]
    assert loaded_modules(
        "import m2mlat.events, m2mlat.pairing, m2mlat.report, m2mlat.stats") == analysis
    # report names PairingReport only in annotations, so it loads no pairing,
    # and stats imports numpy only to reduce what is not a list of ints
    assert loaded_modules("import m2mlat.report") == ["m2mlat.record", "m2mlat.stats"]
    assert loaded_modules("import m2mlat.stats") == ["m2mlat.record", "m2mlat.stats"]
    # clocks draws jitter through its own ndtri and imports stats only to
    # summarize offsets; the simulator loads scipy only to fit a gamma
    # delay, and configparser only to read a config
    clocks = ["m2mlat.clocks", "m2mlat.record", "numpy"]
    assert loaded_modules("import m2mlat.clocks") == clocks
    assert loaded_modules("import m2mlat.sim") == sorted(
        clocks + ["m2mlat.dists", "m2mlat.events", "m2mlat.sim"])
