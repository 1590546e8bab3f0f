from __future__ import annotations

import pytest
import numpy as np
from hypothesis import example, given, strategies as st

from m2mlat.errors import (
    ConfigInvalid,
    EmptyLog,
    NonMonotonicSeq,
    NonMonotonicTime,
    UnparseableLine,
)
from m2mlat.events import (
    EventLog,
    EventSource,
    LogFormat,
    NodeId,
    Role,
    parse_log,
    with_role,
    write_log,
)
from m2mlat.pairing import debounce

from helpers import (
    OPERATOR,
    VEHICLE,
    count_line_parser_calls,
    events_of,
    lax_integers,
    make_log,
    oracle_order_violation,
)

SOURCES = tuple(EventSource)


class TestParseCsv:
    def test_headerless_three_columns(self):
        log = parse_log("operator,0,1000\noperator,1,2000")
        assert log.node == OPERATOR
        assert events_of(log) == [(0, 1000), (1, 2000)]
        assert log.t_mono_ns.tolist() == [-1, -1]
        assert [SOURCES[c] for c in log.source] == [EventSource.HALL_EDGE] * 2
        assert (log.skipped, log.first_error) == (0, None)

    def test_header_full_layout(self):
        text = (
            "node,seq,t_wall_ns,t_mono_ns,source\n"
            "vehicle,4,100,90,pulse\n"
            "vehicle,9,200,,synthetic\n"
        )
        log = parse_log(text)
        assert log.node == VEHICLE
        assert log.t_mono_ns.tolist() == [90, -1]
        assert [SOURCES[c] for c in log.source] == [
            EventSource.SHARED_PULSE, EventSource.SYNTHETIC]

    def test_headerless_fourth_column_sniffing(self):
        by_source = parse_log("operator,0,1000,pulse")
        assert SOURCES[by_source.source[0]] is EventSource.SHARED_PULSE
        by_mono = parse_log("operator,0,1000,999")
        assert by_mono.t_mono_ns.tolist() == [999]

    def test_headerless_layout_is_pinned_by_first_row(self):
        # first row fixes the column meaning; a row of another shape fails
        with pytest.raises(UnparseableLine) as exc:
            parse_log("operator,0,1000,pulse\noperator,1,2000,900,hall")
        assert exc.value.line_no == 2

    def test_bytes_input(self):
        log = parse_log(b"operator,0,1000")
        assert log.t_wall_ns.tolist() == [1000]

    def test_non_monotonic_seq_reports_line(self):
        text = "operator,0,1000\noperator,2,2000\noperator,1,3000"
        with pytest.raises(NonMonotonicSeq) as exc:
            parse_log(text)
        assert exc.value.line_no == 3

    def test_non_monotonic_time_reports_line(self):
        text = "operator,0,2000\noperator,1,1000"
        with pytest.raises(NonMonotonicTime) as exc:
            parse_log(text)
        assert exc.value.line_no == 2

    def test_equal_timestamps_are_legal(self):
        log = parse_log("operator,0,1000\noperator,1,1000")
        assert len(log) == 2

    def test_unparseable_line(self):
        with pytest.raises(UnparseableLine) as exc:
            parse_log("operator,zero,1000")
        assert exc.value.line_no == 1

    def test_mixed_node_rejected(self):
        with pytest.raises(UnparseableLine):
            parse_log("operator,0,1000\nvehicle,1,2000")

    def test_node_override_must_match(self):
        with pytest.raises(UnparseableLine):
            parse_log("operator,0,1000", node=VEHICLE)

    def test_empty_input(self):
        with pytest.raises(EmptyLog):
            parse_log("")
        with pytest.raises(EmptyLog):
            parse_log("node,seq,t_wall_ns\n")

    def test_lenient_counts_and_reports(self):
        text = "operator,0,1000\nbogus line\noperator,1,500\noperator,2,2000"
        log = parse_log(text, lenient=True)
        assert log.seq.tolist() == [0, 2]
        assert log.skipped == 2
        assert "line 2" in log.first_error

    def test_strict_is_default(self):
        with pytest.raises(UnparseableLine):
            parse_log("operator,0,1000\nbogus")

    def test_bad_first_row_does_not_pin_the_layout(self):
        # headerless: the first row that parses fixes the layout, not the first line
        text = "junk,a,b,c\nop,0,1000\nop,1,2000"
        log = parse_log(text, lenient=True)
        assert log.seq.tolist() == [0, 1]
        assert log.node.id == "op"
        assert log.skipped == 1
        assert log.first_error.startswith("line 1: ")
        with pytest.raises(UnparseableLine) as exc:
            parse_log(text)
        assert exc.value.line_no == 1

    def test_line_that_is_not_utf8(self):
        raw = b"operator,0,1000\noperator,1,\xff\noperator,2,3000\n"
        with pytest.raises(UnparseableLine) as exc:
            parse_log(raw)
        assert exc.value.line_no == 2
        log = parse_log(raw, lenient=True)
        assert log.seq.tolist() == [0, 2]
        assert log.skipped == 1
        assert log.first_error == "line 2: not valid UTF-8"


    @pytest.mark.parametrize("row", [
        "operator,9223372036854775808,1500,7",
        "operator,1,9223372036854775808,7",
        "operator,1,1500,9223372036854775808",
    ])
    def test_cell_beyond_int64(self, row):
        text = f"node,seq,t_wall_ns,t_mono_ns\noperator,0,1000,\n{row}\noperator,2,3000,\n"
        with pytest.raises(UnparseableLine, match="does not fit in int64") as exc:
            parse_log(text)
        assert exc.value.line_no == 3
        log = parse_log(text, lenient=True)
        assert log.seq.tolist() == [0, 2]
        assert log.skipped == 1
        assert log.first_error.startswith("line 3: ")

    def test_int64_max_is_accepted(self):
        top = 2**63 - 1
        log = parse_log(f"operator,{top},{top},{top}")
        assert (log.seq.tolist(), log.t_wall_ns.tolist(), log.t_mono_ns.tolist()) == (
            [top], [top], [top])

    @pytest.mark.parametrize("text, columns", [
        # a cell that ends before the longest cell of its column is long
        ("a,0,7\na,12345,123456789012\n", ([0, 12345], [7, 123456789012], [-1, -1], [0, 0])),
        ("node,seq,t_wall_ns,t_mono_ns,source\r\nop,1,2,,pulse\r\n\r\nop,3,4,56,\r\n",
         ([1, 3], [2, 4], [-1, 56], [1, 0])),
        ("op,1,2,,synthetic\r\nop,3,4,5,hall", ([1, 3], [2, 4], [-1, 5], [2, 0])),
    ], ids=["short_first_row", "crlf", "crlf_then_no_lf_at_the_end"])
    def test_columns_read_without_the_line_loop(self, monkeypatch, text, columns):
        calls = count_line_parser_calls(monkeypatch)
        log = parse_log(text)
        assert tuple(c.tolist() for c in log.columns) == columns
        assert sum(calls.values()) == 1  # the first row, which pins the layout


class TestParseKernelRing:
    def test_basic_line(self):
        log = parse_log(
            "m2m_irq: seq=7 ts=123456789 src=hall",
            LogFormat.KERNEL_RING,
            node=OPERATOR,
        )
        assert events_of(log) == [(7, 123456789)]
        assert SOURCES[log.source[0]] is EventSource.HALL_EDGE

    def test_kernel_prefix_ignored(self):
        text = (
            "[  101.223344] m2m_irq: seq=0 ts=1000 src=pulse\n"
            "[  101.723001] m2m_irq: seq=1 ts=2000 src=pulse\n"
        )
        log = parse_log(text, LogFormat.KERNEL_RING, node=VEHICLE)
        assert log.t_wall_ns.tolist() == [1000, 2000]
        assert SOURCES[log.source[0]] is EventSource.SHARED_PULSE

    def test_requires_node(self):
        with pytest.raises(ConfigInvalid):
            parse_log("m2m_irq: seq=0 ts=1 src=hall", LogFormat.KERNEL_RING)

    def test_unknown_source_rejected(self):
        with pytest.raises(UnparseableLine):
            parse_log(
                "m2m_irq: seq=0 ts=1000 src=laser",
                LogFormat.KERNEL_RING,
                node=OPERATOR,
            )

    def test_lenient_skips_unrelated_lines(self):
        text = (
            "[  0.1] booting\n"
            "m2m_irq: seq=0 ts=1000 src=hall\n"
            "[  0.2] usb 1-1: device descriptor\n"
            "m2m_irq: seq=1 ts=2000 src=hall\n"
        )
        log = parse_log(text, LogFormat.KERNEL_RING, node=OPERATOR, lenient=True)
        assert len(log) == 2
        assert log.skipped == 2


    @pytest.mark.parametrize("line", [
        "m2m_irq: seq=9223372036854775808 ts=2000 src=hall",
        "m2m_irq: seq=1 ts=9223372036854775808 src=hall",
    ])
    def test_field_beyond_int64(self, line):
        text = f"m2m_irq: seq=0 ts=1000 src=hall\n{line}\nm2m_irq: seq=2 ts=3000 src=hall\n"
        with pytest.raises(UnparseableLine, match="does not fit in int64") as exc:
            parse_log(text, LogFormat.KERNEL_RING, node=OPERATOR)
        assert exc.value.line_no == 2
        log = parse_log(text, LogFormat.KERNEL_RING, node=OPERATOR, lenient=True)
        assert log.seq.tolist() == [0, 2]
        assert log.skipped == 1

    # parsed: the lines the line parser reads in each parse
    @pytest.mark.parametrize("text, columns, skipped, parsed", [
        ("m2m_irq: seq=0 ts=1000 src=hall\r\nnoise\r\nm2m_irq: seq=1 ts=2000 src=pulse\r\n",
         ([0, 1], [1000, 2000], [0, 1]), 1, 1),
        ("[ 1.0]\tm2m_irq:\tseq=0\tts=1000\tsrc=hall\t\n"
         "m2m_irq:seq=1 \t ts=2000\x0bsrc=pulse", ([0, 1], [1000, 2000], [0, 1]), 0, 2),
        ("m2m_irq: seq=0 ts=1000 src=hall\n\r\n\r\nm2m_irq: seq=1 ts=2000 src=hall\r",
         ([0, 1], [1000, 2000], [0, 0]), 0, 0),
        ("[ 0.1] usb 1-1: Product: Caméra\nm2m_irq: seq=0 ts=1000 src=hall\n\u00a0\n"
         "[ 0.2] Caméra m2m_irq: seq=1 ts=2000 src=pulse\n", ([0, 1], [1000, 2000], [0, 1]), 1, 1),
    ], ids=["crlf", "tab_separators", "cr_only_lines", "utf8_dmesg_and_nbsp_line"])
    def test_events_read_without_the_line_loop(self, monkeypatch, text, columns, skipped, parsed):
        """The line parser reads the first skipped line, for its message,
        and each event line whose blanks are not single ones (the
        ``tab_separators`` lines end in a tab, or have no blank after the
        marker)."""
        calls = count_line_parser_calls(monkeypatch)
        for raw in (text, text.encode()):
            log = parse_log(raw, LogFormat.KERNEL_RING, node=OPERATOR, lenient=True)
            assert (log.seq.tolist(), log.t_wall_ns.tolist(), log.source.tolist()) == columns
            assert log.skipped == skipped
        assert sum(calls.values()) == 2 * parsed


def _assert_lax_lines_rejected(lines: list[str], bad: int, **kwargs) -> None:
    """The last 2 * bad + 1 lines hold seq 0, a lax integer, seq 2, a lax
    integer, ... seq 2 * bad."""
    first = len(lines) - 2 * bad + 1
    with pytest.raises(UnparseableLine) as exc:
        parse_log("\n".join(lines), **kwargs)
    assert exc.value.line_no == first
    log = parse_log("\n".join(lines), lenient=True, **kwargs)
    assert log.seq.tolist() == list(range(0, 2 * bad + 1, 2))
    assert log.skipped == bad
    assert log.first_error.startswith(f"line {first}: ")


@given(st.lists(st.tuples(st.sampled_from(("seq", "t_wall_ns", "t_mono_ns")), lax_integers()),
                min_size=1, max_size=4))
def test_csv_rejects_lax_integer_cells(bad):
    lines = ["node,seq,t_wall_ns,t_mono_ns", "operator,0,1,1"]
    for i, (column, cell) in enumerate(bad):
        row = {"seq": str(2 * i + 1), "t_wall_ns": "5", "t_mono_ns": "5", column: cell}
        lines.append(f"operator,{row['seq']},{row['t_wall_ns']},{row['t_mono_ns']}")
        lines.append(f"operator,{2 * i + 2},{10**13 + i},{10**13 + i}")
    _assert_lax_lines_rejected(lines, len(bad))


@given(st.lists(st.tuples(st.sampled_from(("seq", "ts")), lax_integers()), min_size=1, max_size=4))
def test_kernel_ring_rejects_lax_integer_fields(bad):
    lines = ["m2m_irq: seq=0 ts=1 src=hall"]
    for i, (field, cell) in enumerate(bad):
        row = {"seq": str(2 * i + 1), "ts": "5", field: cell}
        lines.append(f"m2m_irq: seq={row['seq']} ts={row['ts']} src=hall")
        lines.append(f"m2m_irq: seq={2 * i + 2} ts={10**13 + i} src=pulse")
    _assert_lax_lines_rejected(lines, len(bad), fmt=LogFormat.KERNEL_RING, node=OPERATOR)


@pytest.mark.parametrize("cell, message", [
    ("-7", "seq must be non-negative: -7"),
    ("-007", "seq must be non-negative: -7"),
    ("-0", "seq is not an integer: '-0'"),
    ("- 7", "seq is not an integer: '- 7'"),
])
def test_signed_cells(cell, message):
    with pytest.raises(UnparseableLine, match=message):
        parse_log(f"operator,{cell},1000")


class TestWriteLog:
    def test_empty_log_writes_header_only(self):
        log = EventLog(OPERATOR, (), ())
        assert write_log(log) == "node,seq,t_wall_ns\n"

    def test_two_records_in_seq_order(self):
        log = make_log(OPERATOR, [1000, 2000])
        assert write_log(log) == (
            "node,seq,t_wall_ns\noperator,0,1000\noperator,1,2000\n"
        )

    def test_optional_columns_appear_when_needed(self):
        log = make_log(VEHICLE, [5, 10], source=EventSource.SHARED_PULSE)
        out = write_log(log)
        assert out.startswith("node,seq,t_wall_ns,source\n")
        assert "vehicle,0,5,pulse" in out

    @pytest.mark.parametrize("node_id", ["a,b", "a\rb", "a\nb", " op", "op ", "op\t", "\x1fop"])
    def test_a_node_id_that_would_not_read_back_is_refused(self, node_id):
        log = make_log(NodeId(node_id, Role.OPERATOR), [5])
        with pytest.raises(ConfigInvalid, match="cannot be written to CSV"):
            write_log(log)

    def test_a_node_id_holding_percent_is_written_literally(self):
        node = NodeId("op%s", Role.OPERATOR)
        log = make_log(node, [5, 10], source=EventSource.SHARED_PULSE)
        out = write_log(log)
        assert out == "node,seq,t_wall_ns,source\nop%s,0,5,pulse\nop%s,1,10,pulse\n"
        assert parse_log(out, node=node) == log


def _event_strategy():
    return st.tuples(
        st.integers(min_value=0, max_value=10_000),  # seq gap
        st.integers(min_value=0, max_value=10**9),  # time gap
        st.one_of(st.none(), st.integers(min_value=0, max_value=10**12)),
        st.sampled_from(list(EventSource)),
    )


@st.composite
def csv_logs(draw):
    node = draw(st.sampled_from([OPERATOR, VEHICLE, NodeId("bench_rig", Role.OPERATOR),
                                 NodeId("op%s", Role.OPERATOR)]))
    rows = draw(st.lists(_event_strategy(), min_size=1, max_size=25))
    columns = ([], [], [], [])
    seq = -1
    t = 0
    for seq_gap, t_gap, t_mono, source in rows:
        seq += 1 + seq_gap
        t += t_gap
        row = (seq, t + 1, -1 if t_mono is None else t_mono, SOURCES.index(source))
        for column, value in zip(columns, row):
            column.append(value)
    return EventLog(node, *columns)


@given(csv_logs())
def test_csv_round_trip_is_identity(log):
    assert parse_log(write_log(log), node=log.node) == log


@given(csv_logs())
def test_csv_round_trip_without_node_hint_for_canonical_ids(log):
    if log.node.id in ("operator", "vehicle"):
        assert parse_log(write_log(log)) == log


def test_with_role_swaps_role_everywhere():
    log = make_log(OPERATOR, [1, 2])
    swapped = with_role(log, Role.VEHICLE)
    assert swapped.node == NodeId("operator", Role.VEHICLE)
    # the role lives on the log alone, so the columns are shared, not copied
    assert all(a is b for a, b in zip(swapped.columns, log.columns))
    assert swapped.t_wall_ns.tolist() == [1, 2]


def test_with_role_and_debounce_keep_the_parse_accounting():
    log = parse_log("operator,0,1000\nbogus\noperator,1,1500\noperator,2,9000", lenient=True)
    assert (log.skipped, log.first_error) == (1, "line 2: expected 3 columns, got 1")
    swapped, debounced = with_role(log, Role.VEHICLE), debounce(log, 1000)
    assert (swapped.node.role, debounced.seq.tolist()) == (Role.VEHICLE, [0, 2])
    for kept in (swapped, debounced):
        assert (kept.skipped, kept.first_error) == (1, "line 2: expected 3 columns, got 1")


@pytest.mark.parametrize("skipped, first_error", [(-1, None), (1, None), (0, "line 1: x")])
def test_event_log_refuses_inconsistent_parse_accounting(skipped, first_error):
    with pytest.raises(ConfigInvalid):
        EventLog(OPERATOR, [0], [100], skipped=skipped, first_error=first_error)


def test_meta_is_the_skip_count_as_the_benchmark_reads_it():
    # bench/field.py sums int(log.meta.get("parse_skipped", 0)) over its logs
    skipping = parse_log("operator,0,1000\nbogus\noperator,1,2000", lenient=True)
    clean = parse_log("operator,0,1000\noperator,1,2000", lenient=True)
    assert skipping.meta == {"parse_skipped": "1", "parse_first_error": skipping.first_error}
    assert clean.meta == {}
    assert [int(log.meta.get("parse_skipped", 0)) for log in (skipping, clean)] == [1, 0]
    with pytest.raises(AttributeError):
        clean.meta = {"parse_skipped": "1"}


def test_event_log_validation():
    with pytest.raises(ConfigInvalid):
        EventLog(OPERATOR, [-1], [100])
    with pytest.raises(ConfigInvalid):
        EventLog(OPERATOR, [0], [0])
    with pytest.raises(ConfigInvalid):
        EventLog(OPERATOR, [0], [100], source=[len(SOURCES)])
    with pytest.raises(ConfigInvalid):
        EventLog(OPERATOR, [0, 1], [100])
    with pytest.raises(ConfigInvalid):
        NodeId("", Role.OPERATOR)


# The vectorised order check raises what a pairwise loop over the events
# finds first: the same class at the same position, and nothing otherwise.
# Small cells make ties and one-step drops common; the offset takes them to
# the top of int64.
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=12),
       st.sampled_from([0, 2**63 - 7]))
@example([(1, 100), (1, 200)], 0)
@example([(1, 100), (2, 50)], 0)
def test_event_log_validates_order(rows, offset):
    seqs = [s + offset for s, _ in rows]
    times = [t + offset for _, t in rows]
    expected = oracle_order_violation(seqs, times)
    try:
        EventLog(OPERATOR, np.array(seqs, dtype=np.int64), np.array(times, dtype=np.int64))
    except (NonMonotonicSeq, NonMonotonicTime) as err:
        assert (type(err).__name__, err.line_no) == expected
    else:
        assert expected is None
