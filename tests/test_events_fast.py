"""The whole-text fast path of ``parse_log`` against the line loop.

``events._parse_lines`` is the reference: for every input, ``parse_log``
must return an equal ``EventLog`` or raise the same exception class with
the same message, strict and lenient.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from m2mlat import events
from m2mlat.events import LogFormat, NodeId, Role, parse_log
from helpers import OPERATOR

CSV, RING = LogFormat.CSV, LogFormat.KERNEL_RING
TOP = 2**63 - 1
DMESG = (
    "[    3.101000] usb 1-1.2: new full-speed USB device number 5 using xhci_hcd",
    "[    3.200000] hwmon hwmon1: Undervoltage detected!",
    "random: crng init done",
)


def _outcome(parse):
    try:
        return parse()
    except Exception as err:
        return type(err), str(err), getattr(err, "line_no", None)


def assert_same(raw, fmt=CSV, node=None):
    """parse_log and the line loop agree, strict and lenient."""
    for lenient in (False, True):
        fast = _outcome(lambda: parse_log(raw, fmt, node=node, lenient=lenient))
        loop = _outcome(lambda: events._parse_lines(raw, fmt, node, lenient))
        assert fast == loop, (raw, lenient)


# -- generated canonical logs ------------------------------------------------

# (whether the file has a header, the columns after t_wall_ns)
LAYOUTS = [
    (header, extra)
    for extra in ((), ("t_mono_ns",), ("source",), ("t_mono_ns", "source"), ("source", "t_mono_ns"))
    for header in (True, False)
    if header or extra != ("source", "t_mono_ns")
]


@st.composite
def events_rows(draw, max_size=12):
    """(seq, t_wall_ns, t_mono_ns or None, source name or None) rows in order."""
    rows, seq, t = [], draw(st.integers(0, 5)), draw(st.integers(1, 5))
    for _ in range(draw(st.integers(1, max_size))):
        mono = draw(st.one_of(st.none(), st.integers(0, 10**6)))
        source = draw(st.one_of(st.none(), st.sampled_from(("hall", "pulse", "synthetic"))))
        rows.append((seq, t, mono, source))
        seq += draw(st.integers(1, 3))
        t += draw(st.integers(0, 3))
    return rows


def _cell(row, column):
    seq, t, mono, source = row
    value = {"seq": seq, "t_wall_ns": t, "t_mono_ns": mono, "source": source}[column]
    return "" if value is None else str(value)


# Lines the line loop skips as blank: empty, ASCII blanks only, CR only.
BLANK_LINES = ("", "\t", "\x1c", " \t\x1c", "\r")


@st.composite
def csv_texts(draw):
    header, extra = draw(st.sampled_from(LAYOUTS))
    node = draw(st.sampled_from(("operator", "vehicle", "op-station", "bench rig", "béta")))
    columns = ("seq", "t_wall_ns", *extra)
    rows = draw(events_rows())
    if not header and extra == ("source",):  # a source name in row 1 pins this layout
        seq, t, mono, source = rows[0]
        rows[0] = (seq, t, mono, source or "hall")
    lines = []
    for r in rows:
        lines.append(",".join([node, *(_cell(r, c) for c in columns)]))
        if draw(st.integers(0, 3)) == 0:  # a blank line between rows
            lines.append(draw(st.sampled_from(BLANK_LINES)))
    if header:
        lines.insert(0, ",".join(("node", *columns)))
    return "\n".join(lines) + draw(st.sampled_from(("", "\n", "\n\n")))


@st.composite
def ring_texts(draw):
    lines = []
    for seq, t, _, source in draw(events_rows(max_size=10)):
        prefix = draw(st.sampled_from(("", "[   12.500000] ", "kernel: ")))
        lines.append(f"{prefix}m2m_irq: seq={seq} ts={t} src={'pulse' if source == 'pulse' else 'hall'}")
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(DMESG + ("",))))
    return "\n".join(lines) + "\n"


TOKENS = [bytes([b]) for b in b" \t\r,-+_=0123456789\n\xff"] + [
    token.encode() for token in (
        "١", "m2m_irq:", " m2m_irq: ", "\r\n", "é",
        "\u00a0",  # whitespace to str.strip(), but not ASCII
        str(2**63), "1" * 20,
    )
]


@st.composite
def mutated(draw, texts):
    raw = draw(texts).encode()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(raw)))
        token = draw(st.sampled_from(TOKENS))
        cut = draw(st.sampled_from((0, 0, 1)))  # insert, or replace one byte
        raw = raw[:at] + token + raw[at + cut:]
    as_str = draw(st.booleans())
    try:
        return raw.decode() if as_str else raw
    except UnicodeDecodeError:
        return raw


@settings(max_examples=300)
@given(mutated(csv_texts()), st.sampled_from((None, NodeId("operator", Role.VEHICLE))))
def test_csv_fast_path_matches_line_loop(raw, node):
    assert_same(raw, CSV, node)


@settings(max_examples=300)
@given(mutated(ring_texts()))
def test_kernel_ring_fast_path_matches_line_loop(raw):
    assert_same(raw, RING, OPERATOR)


# -- explicit edge cases ------------------------------------------------------

RING_HEAD = "m2m_irq: seq=0 ts=1000 src=hall\n"
CSV_SOURCE_HEAD = "node,seq,t_wall_ns,source\noperator,0,1000,hall\n"

EDGE_CASES = {
    "csv_seq_2**63": f"operator,0,1000\noperator,{TOP + 1},2000\noperator,9,3000\n",
    "csv_t_wall_2**63": f"operator,0,1000\noperator,1,{TOP + 1}\n",
    "csv_t_mono_2**63": f"node,seq,t_wall_ns,t_mono_ns\noperator,0,1000,{TOP + 1}\noperator,1,2000,\n",
    "csv_19_nines": "operator,0,1000\noperator,1,9999999999999999999\n",
    "csv_int64_max": f"operator,{TOP - 1},1000,{TOP}\noperator,{TOP},{TOP},{TOP}\n",
    "csv_20_digit_t_mono_ns": f"node,seq,t_wall_ns,t_mono_ns\noperator,0,1000,{10**20 - 1}\n",
    "csv_20_digit_t_mono_ns_leading_zeros": f"node,seq,t_wall_ns,t_mono_ns\noperator,0,1000,{5:020d}\n",
    "csv_empty_seq": "operator,,1000\noperator,1,2000\n",
    "csv_empty_t_wall": "operator,0,\noperator,1,2000\n",
    "csv_source_hal": CSV_SOURCE_HEAD + "operator,1,2000,hal\n",
    "csv_source_hallo": CSV_SOURCE_HEAD + "operator,1,2000,hallo\n",
    "csv_source_pulsx": CSV_SOURCE_HEAD + "operator,1,2000,pulsx\n",
    "csv_source_synthetix": CSV_SOURCE_HEAD + "operator,1,2000,synthetix\n",
    "csv_source_then_two_crs": CSV_SOURCE_HEAD + "operator,1,2000,hall\r\r\n",
    "csv_source_then_a_blank": CSV_SOURCE_HEAD + "operator,1,2000,hall \n",
    "csv_empty_source_then_two_crs": CSV_SOURCE_HEAD + "operator,1,2000,\r\r\n",
    "csv_two_crs": "operator,0,1000\r\r\noperator,1,2000\n",
    "csv_comma_on_a_blank_line": "operator,0,1000\n ,\noperator,1,2000\n",
    "csv_node_id_cut_short": "node,seq,t_wall_ns\noperator,0,1000\noperato,1,2000\n",
    "csv_line_without_commas": "operator,0,1000\njunk\noperator,1,2000\n",
    "csv_other_node_id_of_the_same_length": "node,seq,t_wall_ns\noperator,0,1000\nOPERATOR,1,2000\n",
    "csv_node_id_run_on": "node,seq,t_wall_ns\noperator,0,1000\noperators,1,2000\n",
    "csv_node_id_in_another_cell": "node,seq,t_wall_ns\noperator,0,1000\n1,operator,2000\n",
    "ring_seq_2**63": RING_HEAD + f"m2m_irq: seq={TOP + 1} ts=2000 src=hall\n",
    "ring_ts_2**63": RING_HEAD + f"m2m_irq: seq=1 ts={TOP + 1} src=hall\n",
    "ring_int64_max": f"m2m_irq: seq={TOP - 1} ts=1 src=hall\nm2m_irq: seq={TOP} ts={TOP} src=pulse\n",
    "csv_crlf": "node,seq,t_wall_ns\r\noperator,0,1000\r\noperator,1,2000\r\n",
    "ring_crlf": "m2m_irq: seq=0 ts=1000 src=hall\r\nnoise\r\nm2m_irq: seq=1 ts=2000 src=hall\r\n",
    "csv_space_around_node_first_row": " operator ,0,1000\noperator,1,2000\n",
    "csv_space_around_every_node_cell": " operator ,0,1000\n\toperator ,1,2000\n",
    "csv_space_around_node_later_row": "operator,0,1000\n operator,1,2000\n",
    "csv_space_around_number": "operator,0,1000\noperator, 1 ,2000\n",
    "csv_space_in_header": "node, seq ,t_wall_ns\noperator,0,1000\n",
    "csv_empty_node_id": ",0,1000\n,1,2000\n",
    "csv_empty_node_id_after_header": "node,seq,t_wall_ns\n,0,1000\n",
    "ring_two_markers": RING_HEAD + "m2m_irq: m2m_irq: seq=1 ts=2000 src=hall\n",
    "ring_two_events_on_one_line": "m2m_irq: seq=0 ts=1000 src=hall m2m_irq: seq=1 ts=2000 src=hall\n",
    "ring_trailing_marker": RING_HEAD + "m2m_irq: seq=1 ts=2000 src=hall m2m_irq:\n",
    "ring_no_space_after_marker": "m2m_irq:seq=0 ts=1000 src=hall\nm2m_irq:seq=1 ts=2000 src=pulse\n",
    "ring_tab_separator": RING_HEAD + "m2m_irq: seq=1\tts=2000 src=hall\n",
    "csv_whitespace_only_line": "operator,0,1000\n \t\x1c\noperator,1,2000\n",
    "ring_whitespace_only_line": RING_HEAD + " \t\x0b\n\x1c\x1f\n[ 1.0] noise\nm2m_irq: seq=1 ts=2000 src=hall\n",
    "ring_leading_blank_lines": "\n\x1c \n" + RING_HEAD + "[ 1.0] noise\n",
    "ring_leading_noise": "[ 0.0] noise\n" + RING_HEAD,
    "csv_leading_blank_lines": "\n  \nnode,seq,t_wall_ns\n\noperator,0,1000\n",
    "csv_seq_goes_down": "operator,0,1000\noperator,5,2000\noperator,3,3000\noperator,6,4000\n",
    "csv_seq_repeats": "operator,0,1000\noperator,0,2000\noperator,1,3000\n",
    "csv_time_goes_down": "operator,0,1000\noperator,1,500\noperator,2,3000\n",
    "csv_first_time_zero": "operator,0,0\noperator,1,1000\n",
    "ring_out_of_order": RING_HEAD + "m2m_irq: seq=5 ts=900 src=hall\nm2m_irq: seq=6 ts=2000 src=hall\n",
    "ring_first_ts_zero": "m2m_irq: seq=0 ts=0 src=hall\nm2m_irq: seq=1 ts=2000 src=hall\n",
    "csv_not_utf8": b"operator,0,1000\noperator,1,\xff2000\noperator,2,3000\n",
    "ring_not_utf8": b"m2m_irq: seq=0 ts=1000 src=hall\n\xff\nm2m_irq: seq=1 ts=2000 src=hall\n",
    "csv_non_ascii_node": "béta,0,1000\nbéta,1,2000\n",
    "csv_lone_surrogate": "operator,0,1000\n\udc80\noperator,1,2000\n",
    "csv_arabic_digit": "operator,0,1000\noperator,١,2000\n",
    "csv_bad_first_row": "junk,a,b,c\nop,0,1000\nop,1,2000",
    "csv_bad_header": "node,seq\noperator,0,1000\n",
    "csv_header_only": "node,seq,t_wall_ns\n",
    "csv_header_without_lf": "node,seq,t_wall_ns",
    "csv_no_rows": "\n \n",
    "ring_noise_only": "[ 0.1] booting\n",
    "ring_noise_last": RING_HEAD + "m2m_irq: seq=1 ts=2000 src=hall\n[ 9.9] halt",
    "ring_marker_ends_the_text": RING_HEAD + "m2m_irq:",
    "ring_eq_before_marker": "[ a=1] m2m_irq: seq=0 ts=1000 src=hall\nx= m2m_irq: seq=1 ts=2000 src=hall\n",
    "ring_eq_after_source": RING_HEAD + "m2m_irq: seq=1 ts=2000 src=hall=\n",
    "ring_19_digit_cells": f"m2m_irq: seq={10**18} ts={10**18 + 1} src=hall\n",
    "ring_19_nines": RING_HEAD + f"m2m_irq: seq=1 ts={10**19 - 1} src=hall\n",
    "ring_20_digit_cells": RING_HEAD + f"m2m_irq: seq={1:020d} ts={2000:020d} src=hall\n",
    "ring_20_digit_ts_beyond_int64": RING_HEAD + f"m2m_irq: seq=1 ts={10**19} src=hall\n",
    "ring_ts_2**64_and_more": RING_HEAD + f"m2m_irq: seq=1 ts={2**64 + 2000} src=hall\n",
    "ring_junk_among_trailing_blanks": RING_HEAD + "m2m_irq: seq=1 ts=2000 src=hall x ",
    "ring_source_cut_by_the_end": RING_HEAD + "m2m_irq: seq=1 ts=2000 src=hal",
    "ring_pulse_on_a_last_line_without_lf": RING_HEAD + "m2m_irq: seq=1 ts=2000 src=pulse",
    "ring_nbsp_line": RING_HEAD + "\u00a0\n[ 1.0] noise\n\u00a0 \u3000\nm2m_irq: seq=1 ts=2000 src=hall\n",
    "ring_camera_dmesg_line": RING_HEAD + "[    3.2] usb 1-1: Product: Caméra\n"
                              "m2m_irq: seq=1 ts=2000 src=hall\n",
    "ring_nbsp_between_fields": "m2m_irq: seq=0\u00a0ts=1000 src=hall\n",
    "ring_ascii_blanks_between_fields": "m2m_irq:\x1fseq=0\x0bts=1000\x0c\x1csrc=hall\x1e\n",
    "ring_no_blank_at_all": "m2m_irq:seq=0ts=1000src=hall",
    "ring_control_byte_line": RING_HEAD + "\x00\n\x1b\nm2m_irq: seq=1 ts=2000 src=hall\n",
}


@pytest.mark.parametrize("name, raw", EDGE_CASES.items(), ids=EDGE_CASES.keys())
def test_edge_cases_match_line_loop(name, raw):
    if name.startswith("ring"):
        assert_same(raw, RING, OPERATOR)
        if isinstance(raw, str):
            assert_same(raw.encode(), RING, OPERATOR)
    else:
        assert_same(raw, CSV)
        assert_same(raw, CSV, OPERATOR)


def test_node_id_the_loop_cannot_match():
    # the loop strips each cell and splits lines at LF and cells at commas
    for node_id in (" operator", "operator\t", "op,erator", "op\nerator"):
        assert_same(f"node,seq,t_wall_ns\n{node_id},0,1000\n", CSV, NodeId(node_id, Role.OPERATOR))


# -- the fast path is taken ---------------------------------------------------

def _forbid_the_line_loop(monkeypatch):
    def no_loop(*args):
        raise AssertionError("line loop ran")

    monkeypatch.setattr(events, "_collect", no_loop)


@pytest.mark.parametrize("raw, fmt, lenient", [
    ("node,seq,t_wall_ns\noperator,0,1000\noperator,1,2000\n", CSV, False),
    ("vehicle,0,1000,,pulse\nvehicle,2,2000,55,\nvehicle,3,2000,,synthetic\n", CSV, False),
    ("node,seq,t_wall_ns,source\nbéta,0,1000,pulse\n\r\nbéta,1,2000,\n", CSV, False),
    ("opérateur,0,1000\r\nopérateur,1,2000\r\n", CSV, False),
    ("[ 0.1] booting\n[ 0.2] m2m_irq: seq=0 ts=1000 src=hall\n"
     "[ 0.3] usb 1-1: device descriptor\n\nm2m_irq: seq=1 ts=2000 src=pulse\n", RING, True),
    # taken only if the scan for spaces finds the CR that ends the text
    (RING_HEAD + "m2m_irq: seq=1 ts=2000 src=pulse\r", RING, False),
], ids=["csv_header", "csv_5_columns", "csv_non_ascii_node_header",
        "csv_non_ascii_node_headerless", "ring_dmesg", "ring_cr_ended_last_line"])
def test_canonical_logs_skip_the_line_loop(monkeypatch, raw, fmt, lenient):
    node = OPERATOR if fmt is RING else None
    expected = events._parse_lines(raw, fmt, node, lenient)
    _forbid_the_line_loop(monkeypatch)
    assert parse_log(raw.encode(), fmt, node=node, lenient=lenient) == expected
    assert parse_log(raw, fmt, node=node, lenient=lenient) == expected


def test_field_sized_ring_capture_matches_line_loop(monkeypatch):
    """The shape of a 4,000-trial field capture: 12,000 events with
    bracketed uptimes, and a dmesg line after 15% of them."""
    rng = np.random.default_rng(401)
    edges = 4000 * 3
    t = 1_700_000_000 * 10**9 + np.cumsum(rng.integers(1, 5 * 10**9, edges))
    seq = 10**6 + np.cumsum(rng.integers(1, 3, edges))
    uptime = (t - t[0]) / 1e9 + 12.5
    lines = []
    for s, ts, up, noise in zip(seq.tolist(), t.tolist(), uptime.tolist(),
                                (rng.random(edges) < 0.15).tolist()):
        lines.append(f"[{up:12.6f}] m2m_irq: seq={s} ts={ts} src=hall")
        if noise:
            lines.append(f"[{up + 0.000731:12.6f}] {DMESG[s % len(DMESG)]}")
    raw = ("\n".join(lines) + "\n").encode()
    assert_same(raw, RING, OPERATOR)
    expected = events._parse_lines(raw, RING, OPERATOR, True)
    assert len(expected) == edges
    _forbid_the_line_loop(monkeypatch)
    assert parse_log(raw, RING, node=OPERATOR, lenient=True) == expected


@pytest.mark.parametrize("header, node_id", [
    (True, "op-station"), (False, "op-station"), (True, "béta"), (False, "béta"),
], ids=["headered", "headerless", "headered_non_ascii_node", "headerless_non_ascii_node"])
def test_field_sized_csv_capture_matches_line_loop(monkeypatch, header, node_id):
    """The shape of a 4,000-trial field capture in CSV: 12,000 rows, with a
    blank line (empty, ASCII blanks or CR only) after 15% of them."""
    rng = np.random.default_rng(401)
    edges = 4000 * 3
    t = 1_700_000_000 * 10**9 + np.cumsum(rng.integers(1, 5 * 10**9, edges))
    seq = 10**6 + np.cumsum(rng.integers(1, 3, edges))
    lines = ["node,seq,t_wall_ns"] if header else []
    for s, ts, blank in zip(seq.tolist(), t.tolist(), (rng.random(edges) < 0.15).tolist()):
        lines.append(f"{node_id},{s},{ts}")
        if blank:
            lines.append(BLANK_LINES[s % len(BLANK_LINES)])
    raw = ("\n".join(lines) + "\n").encode()
    assert_same(raw, CSV)
    expected = {lenient: events._parse_lines(raw, CSV, None, lenient) for lenient in (False, True)}
    assert len(expected[False]) == edges
    _forbid_the_line_loop(monkeypatch)
    for lenient in (False, True):
        assert parse_log(raw, CSV, lenient=lenient) == expected[lenient]


def test_a_csv_body_of_other_lines_is_handed_over_without_gathering_it(monkeypatch):
    """Lines that are neither rows nor blank go to the line loop; the fast
    path refuses them by their first bytes, without an index per byte."""
    raw = b"node,seq,t_wall_ns\nop,0,1000\n" + b"[ 12.5] m2m_irq: seq=1 ts=2000 src=hall\n" * 40_000
    monkeypatch.setattr(events, "_parse_lines", lambda *args: "loop")
    tracemalloc.start()
    try:
        assert parse_log(raw) == "loop"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(raw)


def test_a_blank_run_that_ends_before_it_starts_is_refused():
    # spaces[0] and spaces[2] are as far apart as the ends of a run from 6 to 5
    spaces = np.array([4, 5, 6])
    assert events._space_run(spaces, np.array([2]), np.array([6]), np.array([5])).tolist() == [False]
    assert events._space_run(spaces, np.array([0]), np.array([4]), np.array([7])).tolist() == [True]


def test_a_headerless_log_is_read_without_copying_its_text(monkeypatch):
    """The first row's seq ends within the first ``width`` bytes of the
    text, where ``width`` is the 7 digits of the later seqs."""
    seq = 1 + 100 * np.arange(12_000)
    t = 1_700_000_000 * 10**9 + 5 * 10**9 * seq
    body = "".join(f"op,{s},{ts}\n" for s, ts in zip(seq.tolist(), t.tolist())).encode()
    headed = b"node,seq,t_wall_ns\n" + body
    assert parse_log(body) == parse_log(headed) == events._parse_lines(body, CSV, None, False)

    def peak(raw):
        tracemalloc.start()
        try:
            parse_log(raw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _forbid_the_line_loop(monkeypatch)
    assert peak(body) <= peak(headed)
