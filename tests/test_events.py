from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from m2mlat.errors import (
    ConfigInvalid,
    EmptyLog,
    NonMonotonicSeq,
    NonMonotonicTime,
    UnparseableLine,
)
from m2mlat.events import (
    EventLog,
    EventRecord,
    EventSource,
    LogFormat,
    NodeId,
    Role,
    parse_log,
    with_role,
    write_log,
)

from helpers import OPERATOR, VEHICLE, make_log


class TestParseCsv:
    def test_headerless_three_columns(self):
        log = parse_log("operator,0,1000\noperator,1,2000")
        assert log.node == OPERATOR
        assert [(r.seq, r.t_wall_ns) for r in log.records] == [(0, 1000), (1, 2000)]
        assert all(r.source is EventSource.HALL_EDGE for r in log.records)
        assert log.meta == {}

    def test_header_full_layout(self):
        text = (
            "node,seq,t_wall_ns,t_mono_ns,source\n"
            "vehicle,4,100,90,pulse\n"
            "vehicle,9,200,,synthetic\n"
        )
        log = parse_log(text)
        assert log.node == VEHICLE
        assert log.records[0].t_mono_ns == 90
        assert log.records[0].source is EventSource.SHARED_PULSE
        assert log.records[1].t_mono_ns is None
        assert log.records[1].source is EventSource.SYNTHETIC

    def test_headerless_fourth_column_sniffing(self):
        by_source = parse_log("operator,0,1000,pulse")
        assert by_source.records[0].source is EventSource.SHARED_PULSE
        by_mono = parse_log("operator,0,1000,999")
        assert by_mono.records[0].t_mono_ns == 999

    def test_headerless_layout_is_pinned_by_first_row(self):
        # first row fixes the column meaning; a row of another shape fails
        with pytest.raises(UnparseableLine) as exc:
            parse_log("operator,0,1000,pulse\noperator,1,2000,900,hall")
        assert exc.value.line_no == 2

    def test_bytes_input(self):
        log = parse_log(b"operator,0,1000")
        assert log.records[0].t_wall_ns == 1000

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
        assert [r.seq for r in log.records] == [0, 2]
        assert log.meta["parse_skipped"] == "2"
        assert "line 2" in log.meta["parse_first_error"]

    def test_strict_is_default(self):
        with pytest.raises(UnparseableLine):
            parse_log("operator,0,1000\nbogus")

    def test_line_that_is_not_utf8(self):
        raw = b"operator,0,1000\noperator,1,\xff\noperator,2,3000\n"
        with pytest.raises(UnparseableLine) as exc:
            parse_log(raw)
        assert exc.value.line_no == 2
        log = parse_log(raw, lenient=True)
        assert [r.seq for r in log.records] == [0, 2]
        assert log.meta["parse_skipped"] == "1"
        assert log.meta["parse_first_error"] == "line 2: not valid UTF-8"


class TestParseKernelRing:
    def test_basic_line(self):
        log = parse_log(
            "m2m_irq: seq=7 ts=123456789 src=hall",
            LogFormat.KERNEL_RING,
            node=OPERATOR,
        )
        rec = log.records[0]
        assert (rec.seq, rec.t_wall_ns, rec.source) == (
            7,
            123456789,
            EventSource.HALL_EDGE,
        )

    def test_kernel_prefix_ignored(self):
        text = (
            "[  101.223344] m2m_irq: seq=0 ts=1000 src=pulse\n"
            "[  101.723001] m2m_irq: seq=1 ts=2000 src=pulse\n"
        )
        log = parse_log(text, LogFormat.KERNEL_RING, node=VEHICLE)
        assert [r.t_wall_ns for r in log.records] == [1000, 2000]
        assert log.records[0].source is EventSource.SHARED_PULSE

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
        assert log.meta["parse_skipped"] == "2"


class TestWriteLog:
    def test_empty_log_writes_header_only(self):
        log = EventLog(OPERATOR, ())
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


def _record_strategy(node):
    return st.tuples(
        st.integers(min_value=0, max_value=10_000),  # seq gap
        st.integers(min_value=0, max_value=10**9),  # time gap
        st.one_of(st.none(), st.integers(min_value=0, max_value=10**12)),
        st.sampled_from(list(EventSource)),
    )


@st.composite
def csv_logs(draw):
    node = draw(st.sampled_from([OPERATOR, VEHICLE, NodeId("bench_rig", Role.OPERATOR)]))
    rows = draw(st.lists(_record_strategy(node), min_size=1, max_size=25))
    records = []
    seq = -1
    t = 0
    for seq_gap, t_gap, t_mono, source in rows:
        seq += 1 + seq_gap
        t += t_gap
        records.append(EventRecord(seq, t + 1, t_mono, source))
    return EventLog(node, tuple(records))


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
    # the role lives on the log alone, so the records are shared, not rebuilt
    assert swapped.records is log.records
    assert [r.t_wall_ns for r in swapped.records] == [1, 2]


def test_event_record_validation():
    with pytest.raises(ConfigInvalid):
        EventRecord(-1, 100)
    with pytest.raises(ConfigInvalid):
        EventRecord(0, 0)
    with pytest.raises(ConfigInvalid):
        NodeId("", Role.OPERATOR)


def test_event_log_validates_order():
    r1 = EventRecord(1, 100)
    r2 = EventRecord(1, 200)
    with pytest.raises(NonMonotonicSeq):
        EventLog(OPERATOR, (r1, r2))
    r3 = EventRecord(2, 50)
    with pytest.raises(NonMonotonicTime):
        EventLog(OPERATOR, (r1, r3))
