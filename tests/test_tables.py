from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from m2mlat.errors import ConfigInvalid
from m2mlat.sim import GroundTruth, preset, simulate
from m2mlat.tables import read_int_columns, write_table

from helpers import lax_integers


@given(lax_integers(), st.booleans(), st.booleans(), st.integers(0, 3))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_int_column_rejects_lax_spellings(tmp_path, cell, negative, header, good):
    # a leading "-" is allowed, since samples may be negative; the rest of
    # the cell must still be ASCII digits
    def row(value):
        return f"9,{value}" if header else f" {value} "

    lines = (["id,m2m_ns"] if header else []) + [row(-i) for i in range(good)]
    path = tmp_path / "samples.csv"
    bad = ("-" if negative else "") + cell
    path.write_text("\n".join(lines + [row(bad), row(5)]) + "\n")
    with pytest.raises(ConfigInvalid, match=f"line {len(lines) + 1}: no integer m2m_ns"):
        read_int_columns(path.read_bytes(), ("m2m_ns",), path)[0]
    path.write_text("\n".join(lines + [row(-12), row("7\r")]) + "\n")
    assert read_int_columns(path.read_bytes(), ("m2m_ns",), path)[0] == (
        [-i for i in range(good)] + [-12, 7]
    )


@pytest.fixture(scope="module")
def truth():
    return simulate(replace(preset("dyn_coref"), trials=30))[2]


def test_crlf_truth_csv_loads_equal_to_lf(truth):
    text = truth.to_csv()
    assert GroundTruth.from_csv(text.replace("\n", "\r\n")) == truth
    assert GroundTruth.from_csv(text.replace("\n", "\r")) == truth


def test_a_row_with_an_extra_cell_is_refused(truth):
    lines = truth.to_csv().splitlines()
    lines[2] += ",0"
    with pytest.raises(ConfigInvalid, match="ground truth line 3: 13 cells"):
        GroundTruth.from_csv("\n".join(lines) + "\n")
    with pytest.raises(ConfigInvalid, match="s.csv line 3: 3 cells under a 2-column header"):
        read_int_columns(b"id,m2m_ns\n9,5\n9,6,7\n", ("m2m_ns",), "s.csv")


def test_int64_bounds_round_trip():
    lo, hi = -(2**63), 2**63 - 1
    text = write_table(("lo", "hi"), [(lo, hi), (0, -1)])
    assert read_int_columns(text, ("hi", "lo"), "t") == [[hi, -1], [lo, 0]]
    for beyond in (lo - 1, hi + 1):
        with pytest.raises(ConfigInvalid, match="t line 2: v does not fit in int64"):
            read_int_columns(f"v\n{beyond}\n", ("v",), "t")


def test_a_headerless_table_of_several_columns_is_refused():
    with pytest.raises(ConfigInvalid, match="t: no header naming a,b"):
        read_int_columns("1,2\n", ("a", "b"), "t")
