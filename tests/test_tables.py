from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from m2mlat.errors import ConfigInvalid
from m2mlat.events import write_log
from m2mlat.sim import GroundTruth, preset, simulate
from m2mlat.tables import _ROWS_PER_FORMAT, read_int_columns, write_table

from helpers import lax_integers, oracle_write_table


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
    text = write_table(("lo", "hi"), [[lo, 0], [hi, -1]])
    assert read_int_columns(text, ("hi", "lo"), "t") == [[hi, -1], [lo, 0]]
    for beyond in (lo - 1, hi + 1):
        with pytest.raises(ConfigInvalid, match="t line 2: v does not fit in int64"):
            read_int_columns(f"v\n{beyond}\n", ("v",), "t")


def test_a_headerless_table_of_several_columns_is_refused():
    with pytest.raises(ConfigInvalid, match="t: no header naming a,b"):
        read_int_columns("1,2\n", ("a", "b"), "t")


# -- write_table against the row-at-a-time oracle ---------------------------

LO, HI = -(2**63), 2**63 - 1
# (values the column draws from, equal cells a block may mix, which print
# differently for floats and for bool with int, and the numpy dtype the
# column is passed as, or None for a list)
COLUMN_KINDS = {
    "int64": ([LO, HI, 0, -1, 7], [7], np.int64),
    "int_list": ([LO, HI, 0, 1, 10**30], [1], None),
    "bool_int_list": ([0, 1, True, False], [1, True], None),
    "str_list": (["%", "%%", "%s", "op%s", "a b", ""], ["%s"], None),
    "float64": ([0.0, -0.0, 1.5, 1e300, -2.5e-7], [0.0, -0.0], np.float64),
    "float_list": ([0.0, -0.0, 0.1, 3.0], [0.0, -0.0], None),
}


@st.composite
def tables(draw):
    """(column names, one list or array per column), each block of
    ``_ROWS_PER_FORMAT`` rows of a column constant, mixed from equal cells,
    or mixed from all its values."""
    assert _ROWS_PER_FORMAT == 1024
    rows = draw(st.sampled_from((0, 1, 2, 1023, 1024, 1025, 2049)))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        values, twins, dtype = COLUMN_KINDS[kind]
        cells = []
        for start in range(0, rows, 1024):
            k = min(rows - start, 1024)
            pool = draw(st.sampled_from(([values[rng.integers(len(values))]], twins, values)))
            cells.extend(pool[i] for i in rng.integers(len(pool), size=k).tolist())
        columns.append(cells if dtype is None else np.array(cells, dtype))
    return [f"c{i}" for i in range(len(columns))], columns


def assert_writes_as_oracle(names, columns):
    text = write_table(names, columns)
    expected = oracle_write_table(
        names, zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    # a plain == assert would make pytest diff two texts of up to 2,050 lines
    same = text == expected
    assert same, next(((no, a, b) for no, (a, b) in enumerate(
        zip(text.split("\n"), expected.split("\n")), start=1) if a != b), (len(text), len(expected)))


@given(tables())
@example((["n", "s", "f"], [np.array([5] * 1024 + list(range(1025))), ["%s"] * 1024 + ["x%"] * 1025,
                            [0.0, -0.0] * 1024 + [1.5]]))
@settings(max_examples=150, deadline=None)
def test_write_table_matches_the_row_oracle(table):
    assert_writes_as_oracle(*table)


@given(st.lists(st.one_of(st.integers(), st.floats(), st.booleans(), st.text(),
                          st.integers(LO, HI).map(lambda v: np.array([v]))),
                min_size=1, max_size=6))
def test_single_row_mixed_tables_match_the_row_oracle(cells):
    names = [f"c{i}" for i in range(len(cells))]
    assert_writes_as_oracle(names, [c if isinstance(c, np.ndarray) else [c] for c in cells])


def test_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match="2 columns of one length"):
        write_table(("a", "b"), [[1, 2], [3]])
    with pytest.raises(ValueError, match="2 columns of one length"):
        write_table(("a", "b"), [[1, 2]])


def test_writers_peak_below_3_5_times_their_output():
    op, veh, truth = simulate(replace(preset("dyn_coref"), trials=20_000))
    for write in (truth.to_csv, lambda: write_log(op), lambda: write_log(veh)):
        tracemalloc.start()
        try:
            text = write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * len(text), (text[:40], peak / len(text))
