from __future__ import annotations

import numpy as np

from m2mlat import __version__
from m2mlat.report import build_report, input_digest, make_provenance, render_text

from helpers import loaded_modules


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


def test_unknown_seed_becomes_na():
    assert make_provenance(None, "x").seed == "n/a"


def test_input_digest_is_order_sensitive_and_stable():
    a, b = b"one", b"two"
    assert input_digest(a, b) == input_digest(a, b)
    assert input_digest(a, b) != input_digest(b, a)
    assert len(input_digest(a)) == 12


def test_analysis_modules_load_no_simulator_and_no_scipy():
    # Parsing, pairing and reporting import neither the simulator stack nor scipy.
    assert loaded_modules("import m2mlat.events, m2mlat.pairing, m2mlat.report, m2mlat.stats") == []
    # clocks loads scipy only when it draws jitter
    assert loaded_modules("import m2mlat.clocks") == ["m2mlat.clocks"]
