from __future__ import annotations

import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from m2mlat.clocks import precision_analysis
from m2mlat.digits import _ROWS_PER_CHUNK
from m2mlat.errors import ConfigInvalid
from m2mlat.events import _SOURCE_NAMES, EventLog, write_log
from m2mlat.pairing import pair_events
from m2mlat.record import replace
from m2mlat.sim import GroundTruth, preset, simulate
from m2mlat.tables import _KERNEL_ROWS, _ROWS_PER_FORMAT, read_int_columns, write_table

from helpers import OPERATOR, lax_integers, oracle_write_table


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


@pytest.mark.parametrize("encode", [str, str.encode], ids=["str", "bytes"])
def test_a_byte_order_mark_is_dropped(truth, encode):
    for text in ("m2m_ns\n5\n-7\n", "5\n-7\n"):
        assert read_int_columns(encode("\ufeff" + text), ("m2m_ns",), "s") == [[5, -7]]
    with pytest.raises(ConfigInvalid, match="s line 2: no integer m2m_ns"):
        read_int_columns(encode("\ufeffm2m_ns\n\ufeff5\n"), ("m2m_ns",), "s")
    assert GroundTruth.from_csv("\ufeff" + truth.to_csv()) == truth


def test_a_headerless_table_of_several_columns_is_refused():
    with pytest.raises(ConfigInvalid, match="t: no header naming a,b"):
        read_int_columns("1,2\n", ("a", "b"), "t")


# -- write_table against the row-at-a-time oracle ---------------------------

LO, HI = -(2**63), 2**63 - 1


def int64_field(cells):
    """``cells`` as an int64 field of a structured array: a strided view, as
    ``PairingReport.to_csv`` passes its columns (here unaligned, too)."""
    table = np.zeros(len(cells), [("a", np.int64), ("v", np.int64), ("b", np.int32)])
    table["v"] = cells
    return table["v"]


# (values the column draws from, equal cells a block may mix, which print
# differently for floats and for bool with int, and how the column is
# passed: None for a list, else a function of the list)
COLUMN_KINDS = {
    "int64": ([LO, HI, 0, -1, 7], [7], partial(np.array, dtype=np.int64)),
    "int32": ([-(2**31), 2**31 - 1, 0, -1, 7], [7], partial(np.array, dtype=np.int32)),
    "uint64": ([0, 1, 2**63, 2**64 - 1, 10**19], [1], partial(np.array, dtype=np.uint64)),
    # a negative of more digits than any positive, and 2**32, which no
    # uint32 holds
    "int64_field": ([-(2**32), -9999, 0, 99], [0], int64_field),
    "int_list": ([LO, HI, 0, 1, 10**30], [1], None),
    "int_object": ([LO, HI, 0, 1, 10**30], [1, True], partial(np.array, dtype=object)),
    "bool_int_list": ([0, 1, True, False], [1, True], None),
    "bool": ([True, False], [True], partial(np.array, dtype=bool)),
    "str_list": (["%", "%%", "%s", "op%s", "a b", ""], ["%s"], None),
    "str_object": (["%s", "x", ""], ["x"], partial(np.array, dtype=object)),
    # NUL and non-ASCII text, which the digit kernel must leave to %
    "odd_str_list": (["a\0b", "\0", "é", "µs%s"], ["\0"], None),
    "float64": ([0.0, -0.0, 1.5, 1e300, -2.5e-7], [0.0, -0.0], partial(np.array, dtype=np.float64)),
    "float_list": ([0.0, -0.0, 0.1, 3.0], [0.0, -0.0], None),
}
# The kinds passed as int arrays; beside them, a column passed as one int,
# bool or ASCII str takes the digit kernel, and one passed as NUL or
# non-ASCII text keeps the table on %.
INT_ARRAYS = ("int64", "int32", "uint64", "int64_field")
KERNEL_KINDS = (*INT_ARRAYS, "int_list", "int_object", "str_list", "str_object", "bool",
                "odd_str_list")


@st.composite
def tables(draw):
    """(column names, one list or array per column), each block of
    ``_ROWS_PER_FORMAT`` rows of a column constant, mixed from equal cells,
    or mixed from all its values. Half the tables hold an int array, and
    every other column of theirs is passed as its one value, as the digit
    kernel takes them; row counts lie on both sides of its crossover and
    of its chunk size."""
    assert _ROWS_PER_FORMAT == 1024
    assert _KERNEL_ROWS < 1023 < 1025 < _ROWS_PER_CHUNK
    rows = draw(st.sampled_from((0, 1, 2, 1023, 1024, 1025, 2049, _KERNEL_ROWS - 1, _KERNEL_ROWS,
                                 _ROWS_PER_CHUNK - 1, _ROWS_PER_CHUNK + 1, 2 * _ROWS_PER_CHUNK + 3)))
    constant = draw(st.booleans())
    kinds = draw(st.lists(st.sampled_from(KERNEL_KINDS if constant else sorted(COLUMN_KINDS)),
                          min_size=1, max_size=5))
    if constant:
        kinds.insert(draw(st.integers(0, len(kinds))), draw(st.sampled_from(INT_ARRAYS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        values, twins, make = COLUMN_KINDS[kind]
        if constant and kind not in INT_ARRAYS:
            columns.append(values[rng.integers(len(values))])
            continue
        cells = []
        for start in range(0, rows, 1024):
            k = min(rows - start, 1024)
            pool = draw(st.sampled_from(([values[rng.integers(len(values))]], twins, values)))
            cells.extend(pool[i] for i in rng.integers(len(pool), size=k).tolist())
        columns.append(cells if make is None else make(cells))
    return [f"c{i}" for i in range(len(columns))], columns


def assert_writes_as_oracle(names, columns):
    text = write_table(names, columns)
    rows = next(len(c) for c in columns if not isinstance(c, (str, int)))
    expected = oracle_write_table(names, zip(*(
        [c] * rows if isinstance(c, (str, int)) else c.tolist() if isinstance(c, np.ndarray) else c
        for c in columns)))
    # a plain == assert would make pytest diff two texts of up to 2,050 lines
    same = text == expected
    assert same, next(((no, a, b) for no, (a, b) in enumerate(
        zip(text.split("\n"), expected.split("\n")), start=1) if a != b), (len(text), len(expected)))


@given(tables())
@example((["n", "s", "f"], [np.array([5] * 1024 + list(range(1025))), ["%s"] * 1024 + ["x%"] * 1025,
                            [0.0, -0.0] * 1024 + [1.5]]))
@example((["n", "u", "i", "v", "w", "s", "k"], [
    np.array([LO, HI, 0, -1] * (_ROWS_PER_CHUNK // 4) + [-7], np.int64),
    np.array([2**64 - 1, 2**63, 0, 10**4] * (_ROWS_PER_CHUNK // 4) + [9999], np.uint64),
    np.array([-(2**31), 2**31 - 1, 10**8, -(10**8)] * (_ROWS_PER_CHUNK // 4) + [-10**4], np.int32),
    int64_field([-9999, 10**12] * (_ROWS_PER_CHUNK // 2) + [0]),
    np.array([2**32, 0, 2**32 - 1, 1] * (_ROWS_PER_CHUNK // 4) + [5], np.int64),
    "op%s",
    -5,
]))
@example((["n", "s"], [np.arange(_KERNEL_ROWS), ["é"] * _KERNEL_ROWS]))
@example((["n", "s"], [np.arange(_KERNEL_ROWS), ["a\0"] * _KERNEL_ROWS]))
@example((["n", "b"], [np.arange(_KERNEL_ROWS), np.array([1, True] * (_KERNEL_ROWS // 2), object)]))
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


@pytest.mark.parametrize("rows", [_KERNEL_ROWS - 1, _KERNEL_ROWS], ids=["percent", "kernel"])
@pytest.mark.parametrize("value", [-42, True, "op", "5%s%%"],
                         ids=["int", "bool", "str", "percent-str"])
def test_a_one_value_column_writes_as_a_column_of_that_value(rows, value):
    n = np.arange(rows, dtype=np.int64) - 7
    assert write_table(("n", "v", "m"), [n, value, n]) == oracle_write_table(
        ("n", "v", "m"), zip(n.tolist(), [value] * rows, n.tolist()))
    assert write_table(("v", "n"), [value, n]) == oracle_write_table(
        ("v", "n"), zip([value] * rows, n.tolist()))


@pytest.mark.parametrize("value", ["é", "a\0b"], ids=["non-ascii", "nul"])
def test_text_the_kernel_cannot_hold_falls_back_to_percent(monkeypatch, value):
    # in a one-value column, or in the header, which the kernel's first
    # chunk also writes
    import m2mlat.digits

    def refuse(*args):
        raise AssertionError("the digit kernel took text it cannot hold")

    monkeypatch.setattr(m2mlat.digits, "int_table", refuse)
    n = np.arange(_KERNEL_ROWS, dtype=np.int64)
    assert write_table(("n", "v"), [n, value]) == oracle_write_table(
        ("n", "v"), zip(n.tolist(), [value] * _KERNEL_ROWS))
    assert write_table(("n", value), [n, n]) == oracle_write_table(("n", value), zip(n, n))


def test_a_table_of_one_value_columns_only_is_refused():
    with pytest.raises(ValueError, match="at least one of them a list or array"):
        write_table(("a", "b"), ["x", 5])


def test_a_mixed_source_log_writes_one_name_per_row():
    sources = [0, 2, 1] * (_KERNEL_ROWS // 3) + [2]
    log = EventLog(OPERATOR, np.arange(len(sources)), 10**9 + np.arange(len(sources)),
                   source=sources)
    names = [line.rsplit(",", 1)[1] for line in write_log(log).splitlines()[1:]]
    assert names == [_SOURCE_NAMES[code] for code in sources]
    one = EventLog(OPERATOR, np.arange(3), 10**9 + np.arange(3), source=[2] * 3)
    assert write_log(one).splitlines()[1:] == [f"operator,{i},{10**9 + i},{_SOURCE_NAMES[2]}"
                                               for i in range(3)]


def test_writers_peak_below_3_5_times_their_output():
    op, veh, truth = simulate(replace(preset("dyn_coref"), trials=20_000))
    pairs, offsets = pair_events(op, veh), precision_analysis(op, veh)
    assert len(pairs.samples) == len(offsets.samples) == 20_000
    # a log with t_mono_ns and mixed sources is written through %, 1,024
    # rows at a time
    n = np.arange(20_000)
    mixed = EventLog(OPERATOR, n, 10**18 + 7 * n, t_mono_ns=np.where(n % 5, 10**12 + n, -1),
                     source=n % len(_SOURCE_NAMES))
    for write in (truth.to_csv, lambda: write_log(op), lambda: write_log(veh),
                  lambda: write_log(mixed), pairs.to_csv, offsets.to_csv):
        tracemalloc.start()
        try:
            text = write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * len(text), (text[:40], peak / len(text))
