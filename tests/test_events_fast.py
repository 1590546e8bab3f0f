"""``parse_log`` against the line loop.

``helpers.oracle_parse_log`` is the reference, a parse that runs every
line through the line parsers: for every input, ``parse_log`` must return
an equal ``EventLog`` or raise the same exception class with the same
message and line number, strict and lenient.
"""

from __future__ import annotations

import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from m2mlat import events
from m2mlat.errors import UnparseableLine
from m2mlat.events import EventLog, LogFormat, NodeId, Role, parse_log
from helpers import OPERATOR, count_line_parser_calls, oracle_parse_log

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
        loop = _outcome(lambda: oracle_parse_log(raw, fmt, node, lenient))
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


# The blanks of a ring line: after the marker (none at all among them),
# between two fields, and after the source name.
AFTER_MARKER = ("", " ", "\t", "  ", " \t\x0b")
BETWEEN_FIELDS = (" ", "\t", "   ", "\x0c \t", " " * 40)
AFTER_SOURCE = ("", " ", "\t\t", "\r", " " * 17)


@st.composite
def ring_texts(draw):
    lines = []
    for seq, t, _, source in draw(events_rows(max_size=10)):
        prefix = draw(st.sampled_from(("", "[   12.500000] ", "kernel: ")))
        a, b, c, d = (draw(st.sampled_from(blanks))
                      for blanks in (AFTER_MARKER, BETWEEN_FIELDS, BETWEEN_FIELDS, AFTER_SOURCE))
        src = "pulse" if source == "pulse" else "hall"
        lines.append(f"{prefix}m2m_irq:{a}seq={seq}{b}ts={t}{c}src={src}{d}")
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
    "ring_long_blank_runs": "m2m_irq:" + " " * 33 + "seq=0" + "\t" * 64 + "ts=1000" + " " * 100
                            + "src=pulse" + " \x0b" * 9 + "\n",
    "ring_blank_run_up_to_the_end_of_the_text": RING_HEAD + "m2m_irq: seq=1 ts=2000 src=hall" + " " * 40,
    "ring_blank_run_across_an_lf": RING_HEAD + "m2m_irq: seq=1 \n ts=2000 src=hall\n",
    "ring_blank_run_across_an_lf_after_the_marker": RING_HEAD + "m2m_irq:  \n  seq=1 ts=2000 src=hall\n",
    "ring_blank_run_across_an_lf_before_the_source": RING_HEAD + "m2m_irq: seq=1 ts=2000 \n src=hall\n",
    "ring_lf_right_after_a_cell": RING_HEAD + "m2m_irq: seq=1\nts=2000 src=hall\n",
    "ring_marker_then_lf": RING_HEAD + "m2m_irq:\nseq=1 ts=2000 src=hall\n",
    "ring_byte_between_marker_and_seq": RING_HEAD + "m2m_irq:xseq=1 ts=2000 src=hall\n",
    "ring_two_crs_at_the_end": RING_HEAD + "m2m_irq: seq=1 ts=2000 src=hall\r\r\n",
    "ring_marker_at_the_start_of_the_text_cut": "rq: seq=0 ts=1000 src=hall\n" + RING_HEAD,
    "ring_control_byte_line": RING_HEAD + "\x00\n\x1b\nm2m_irq: seq=1 ts=2000 src=hall\n",
    # a capture whose recorder stopped mid-write
    "csv_last_line_cut_in_a_cell": CSV_SOURCE_HEAD + "operator,1,2000,pu",
    "csv_last_line_cut_in_a_cell_then_lf": CSV_SOURCE_HEAD + "operator,1,2000,pu\n",
    "csv_last_line_cut_in_t_wall": "operator,0,1000\noperator,1,2000\noperator,2,30",
    "csv_last_line_cut_in_t_wall_then_lf": "operator,0,1000\noperator,1,2000\noperator,2,30\n",
    "ring_last_line_cut_in_a_cell": RING_HEAD + "m2m_irq: seq=1 ts=20",
    "ring_last_line_cut_in_a_cell_then_lf": RING_HEAD + "m2m_irq: seq=1 ts=20\n",
    "ring_last_line_cut_in_seq": RING_HEAD + "[ 2.0] m2m_irq: seq=",
    # rows after an out-of-order one that follow the row before it are
    # rejected against the last row kept
    "csv_rows_after_an_out_of_order_row": "operator,0,1000\noperator,5,5000\noperator,2,2000\n"
                                          "operator,3,3000\noperator,6,6000\noperator,4,7000\n"
                                          "operator,7,8000\n",
    "ring_rows_after_an_out_of_order_row": RING_HEAD + "m2m_irq: seq=5 ts=5000 src=hall\n"
                                           "m2m_irq: seq=2 ts=2000 src=hall\n"
                                           "m2m_irq: seq=3 ts=3000 src=pulse\n"
                                           "m2m_irq: seq=6 ts=6000 src=hall\n",
    "csv_order_broken_by_a_refused_row": "operator,0,1000\n operator,5,5000\noperator,3,3000\n"
                                         "operator,6,6000\n",
    "ring_order_broken_by_a_refused_row": RING_HEAD + "m2m_irq: seq=5\u00a0ts=5000 src=hall\n"
                                          "m2m_irq: seq=3 ts=3000 src=hall\n",
    # the order error's line comes before the parse error's line
    "csv_order_error_before_a_parse_error": "operator,0,1000\noperator,5,500\noperator,x,3000\n"
                                            "operator,6,6000\n",
    "ring_order_error_before_a_parse_error": RING_HEAD + "m2m_irq: seq=0 ts=2000 src=hall\n"
                                             "m2m_irq: seq=1 ts=3000 src=hal\n",
    "csv_parse_error_before_an_order_error": "operator,0,1000\noperator,x,2000\noperator,0,3000\n",
    "csv_two_not_utf8_lines": b"operator,0,1000\n\xff\noperator,1,2000\n\xfe\xfe,2\noperator,2,3000\n",
    "ring_two_not_utf8_lines": RING_HEAD.encode() + b"m2m_irq: seq=1 ts=\xff2000 src=hall\n"
                               b"\xc3\nm2m_irq: seq=2 ts=3000 src=hall",
    "csv_not_utf8_before_the_header": b"\xff\nnode,seq,t_wall_ns\noperator,0,1000\n",
    "csv_not_utf8_after_a_parse_error": b"operator,0,1000\noperator,x,2000\n\xff\n",
    "csv_first_two_lines_junk": "junk\nfoo,a,b\noperator,0,1000\noperator,1,2000\n",
    "csv_first_two_rows_junk_after_a_header": "node,seq,t_wall_ns\njunk,a,1\n,1,2\n"
                                              "operator,0,1000\noperator,1,2000\n",
    "csv_blanks_around_the_cells_of_one_row": "operator,0,1000\n operator , 1 , 2000 \r\n"
                                              "operator,2,3000\n",
    "csv_t_wall_zero_after_the_first_row": "operator,0,1000\noperator,1,0\noperator,2,3000\n",
    "ring_ts_zero_after_the_first_row": RING_HEAD + "m2m_irq: seq=1 ts=0 src=hall\n"
                                        "m2m_irq: seq=2 ts=3000 src=hall\n",
    "csv_lone_surrogate_in_the_header": "node,seq,t_wall_ns\udc80\noperator,0,1000\n",
    "csv_lone_surrogate_in_the_node_id": "op\udc80,0,1000\nop\udc80,1,2000\nop,2,3000\n",
    "ring_lone_surrogate": RING_HEAD + "m2m_irq: seq=1 ts=2000 src=hall\udc80\n"
                           "[ 1.0] \udc80\nm2m_irq: seq=2 ts=3000 src=hall\n",
}


@pytest.mark.parametrize("name, raw", EDGE_CASES.items(), ids=EDGE_CASES.keys())
def test_edge_cases_match_line_loop(name, raw):
    if name.startswith("ring"):
        assert_same(raw, RING, OPERATOR)
        if isinstance(raw, str):
            assert_same(raw.encode(errors="surrogatepass"), RING, OPERATOR)
    else:
        assert_same(raw, CSV)
        assert_same(raw, CSV, OPERATOR)


def test_node_id_the_loop_cannot_match():
    # the loop strips each cell and splits lines at LF and cells at commas
    for node_id in (" operator", "operator\t", "op,erator", "op\nerator"):
        assert_same(f"node,seq,t_wall_ns\n{node_id},0,1000\n", CSV, NodeId(node_id, Role.OPERATOR))


# -- the line parsers read only the refused lines ------------------------------

@pytest.mark.parametrize("raw, fmt, lenient", [
    ("node,seq,t_wall_ns\noperator,0,1000\noperator,1,2000\n", CSV, False),
    ("vehicle,0,1000,,pulse\nvehicle,2,2000,55,\nvehicle,3,2000,,synthetic\n", CSV, False),
    ("node,seq,t_wall_ns,source\nbéta,0,1000,pulse\n\r\nbéta,1,2000,\n", CSV, False),
    ("opérateur,0,1000\r\nopérateur,1,2000\r\n", CSV, False),
    ("[ 0.1] booting\n[ 0.2] m2m_irq: seq=0 ts=1000 src=hall\n"
     "[ 0.3] usb 1-1: device descriptor\n\nm2m_irq: seq=1 ts=2000 src=pulse\n", RING, True),
    # read as a row only if the scan for spaces finds the CR that ends the text
    (RING_HEAD + "m2m_irq: seq=1 ts=2000 src=pulse\r", RING, False),
], ids=["csv_header", "csv_5_columns", "csv_non_ascii_node_header",
        "csv_non_ascii_node_headerless", "ring_dmesg", "ring_cr_ended_last_line"])
def test_canonical_logs_skip_the_line_loop(monkeypatch, raw, fmt, lenient):
    """Clean CSV calls the row parser once, on the first row, which pins
    the layout; ring text calls the line parser only with dmesg lines, on
    the first of them, for ``first_error``."""
    node = OPERATOR if fmt is RING else None
    expected = oracle_parse_log(raw, fmt, node, lenient)
    calls = count_line_parser_calls(monkeypatch)
    assert parse_log(raw.encode(), fmt, node=node, lenient=lenient) == expected
    assert parse_log(raw, fmt, node=node, lenient=lenient) == expected
    assert sum(calls.values()) == (2 if fmt is CSV or expected.skipped else 0)


def field_ring_capture(rng: np.random.Generator, mixed_blanks: bool = False) -> bytes:
    """The shape of a 4,000-trial field capture: 12,000 events with
    bracketed uptimes, and a dmesg line after 15% of them. With
    ``mixed_blanks`` each event's blanks are drawn from ``AFTER_MARKER``,
    ``BETWEEN_FIELDS`` and ``AFTER_SOURCE``, and a tenth of its sources are
    ``pulse``."""
    edges = 4000 * 3
    t = 1_700_000_000 * 10**9 + np.cumsum(rng.integers(1, 5 * 10**9, edges))
    seq = 10**6 + np.cumsum(rng.integers(1, 3, edges))
    uptime = (t - t[0]) / 1e9 + 12.5
    blanks = [(" ", " ", " ", "", "hall")] * edges
    if mixed_blanks:
        blanks = zip(*(np.array(choices)[rng.integers(0, len(choices), edges)].tolist()
                       for choices in (AFTER_MARKER, BETWEEN_FIELDS, BETWEEN_FIELDS, AFTER_SOURCE)),
                     np.where(rng.random(edges) < 0.1, "pulse", "hall").tolist())
    lines = []
    for s, ts, up, noise, (a, b, c, d, src) in zip(seq.tolist(), t.tolist(), uptime.tolist(),
                                                   (rng.random(edges) < 0.15).tolist(), blanks):
        lines.append(f"[{up:12.6f}] m2m_irq:{a}seq={s}{b}ts={ts}{c}src={src}{d}")
        if noise:
            lines.append(f"[{up + 0.000731:12.6f}] {DMESG[s % len(DMESG)]}")
    return ("\n".join(lines) + "\n").encode()


def field_csv_capture(rng: np.random.Generator, header: bool, node_id: str) -> bytes:
    """The shape of a 4,000-trial field capture in CSV: 12,000 rows, with a
    blank line (empty, ASCII blanks or CR only) after 15% of them."""
    edges = 4000 * 3
    t = 1_700_000_000 * 10**9 + np.cumsum(rng.integers(1, 5 * 10**9, edges))
    seq = 10**6 + np.cumsum(rng.integers(1, 3, edges))
    lines = ["node,seq,t_wall_ns"] if header else []
    for s, ts, blank in zip(seq.tolist(), t.tolist(), (rng.random(edges) < 0.15).tolist()):
        lines.append(f"{node_id},{s},{ts}")
        if blank:
            lines.append(BLANK_LINES[s % len(BLANK_LINES)])
    return ("\n".join(lines) + "\n").encode()


# An event line's tail as the kernel module prints it, with one ASCII blank
# between fields: the scans read these, and the line parser every other
# event line.
KERNEL_TAIL = re.compile(rb"(?m)m2m_irq:%sseq=[0-9]+%sts=[0-9]+%ssrc=(?:hall|pulse)\r?$"
                         % ((rb"[\t\x0b\x0c\r\x1c-\x1f ]",) * 3))


def assert_ring_capture_read_by_the_scans(monkeypatch, raw: bytes, off_scans: int = 0) -> EventLog:
    """A lenient parse of ``raw`` equals the line loop's and calls the line
    parser on its first dmesg line and ``off_scans`` event lines; returns
    that log."""
    assert_same(raw, RING, OPERATOR)
    expected = oracle_parse_log(raw, RING, OPERATOR, True)
    assert len(expected) == 4000 * 3
    calls = count_line_parser_calls(monkeypatch)
    assert parse_log(raw, RING, node=OPERATOR, lenient=True) == expected
    assert sum(calls.values()) == 1 + off_scans
    return expected


def test_field_sized_ring_capture_matches_line_loop(monkeypatch):
    assert_ring_capture_read_by_the_scans(monkeypatch, field_ring_capture(np.random.default_rng(401)))


def test_field_sized_crlf_ring_capture_matches_line_loop(monkeypatch):
    """A CR before each LF, as a capture copied through a CRLF tool has
    it: the scans still read every event line."""
    raw = field_ring_capture(np.random.default_rng(401)).replace(b"\n", b"\r\n")
    assert_ring_capture_read_by_the_scans(monkeypatch, raw)


def test_field_sized_ring_capture_with_mixed_blanks_matches_line_loop(monkeypatch):
    """Tabs, runs of up to 40 blanks, trailing blanks and no blank after
    the marker: the line parser reads each event line whose blanks are not
    single ones."""
    raw = field_ring_capture(np.random.default_rng(401), mixed_blanks=True)
    off_scans = 4000 * 3 - len(KERNEL_TAIL.findall(raw))
    assert off_scans > 4000 * 3 // 2
    assert assert_ring_capture_read_by_the_scans(monkeypatch, raw, off_scans).source.any()


@pytest.mark.parametrize("header, node_id", [
    (True, "op-station"), (False, "op-station"), (True, "béta"), (False, "béta"),
], ids=["headered", "headerless", "headered_non_ascii_node", "headerless_non_ascii_node"])
def test_field_sized_csv_capture_matches_line_loop(monkeypatch, header, node_id):
    raw = field_csv_capture(np.random.default_rng(401), header, node_id)
    assert_same(raw, CSV)
    expected = {lenient: oracle_parse_log(raw, CSV, None, lenient) for lenient in (False, True)}
    assert len(expected[False]) == 4000 * 3
    calls = count_line_parser_calls(monkeypatch)
    for lenient in (False, True):
        assert parse_log(raw, CSV, lenient=lenient) == expected[lenient]
    assert sum(calls.values()) == 2  # the first row of each parse


def _spoil(raw: bytes, at: int, old: bytes, new: bytes) -> bytes:
    """``raw`` with the first ``old`` from byte ``at`` on made ``new``."""
    at = raw.index(old, at)
    return raw[:at] + new + raw[at + len(old):]


def _out_of_order(raw: bytes, at: int, row: bytes) -> bytes:
    """``raw`` with the first line from byte ``at`` on that holds ``row``
    moved below the next such line."""
    first = raw.rindex(b"\n", 0, raw.index(row, at)) + 1
    second = raw.rindex(b"\n", 0, raw.index(row, raw.index(b"\n", first))) + 1
    end = raw.index(b"\n", second) + 1
    return raw[:first] + raw[second:end] + raw[first:second] + raw[end:]


# Each refused-line kind, once in a field-sized capture: (format, how the
# copy is made from the clean capture, how many lines are refused). Cut 9
# bytes short, the last CSV row keeps 11 digits of its t_wall_ns and is a
# row out of order.
DIRTY_COPIES = {
    "csv_cut_last_line": (CSV, lambda raw: raw[:-9], 0),
    "csv_bad_cell": (CSV, lambda raw: _spoil(raw, len(raw) // 2, b",", b",x"), 1),
    "csv_not_utf8": (CSV, lambda raw: _spoil(raw, len(raw) // 3, b"\n", b"\n\xff"), 0),
    "csv_out_of_order": (CSV, lambda raw: _out_of_order(raw, len(raw) // 2, b"op-station,"), 0),
    "ring_cut_last_line": (RING, lambda raw: raw[:raw.rindex(b"src=")] + b"src=ha", 1),
    "ring_src_hal": (RING, lambda raw: _spoil(raw, len(raw) // 2, b"src=hall", b"src=hal"), 1),
    "ring_not_utf8": (RING, lambda raw: _spoil(raw, len(raw) // 3, b"\n", b"\n\xff"), 0),
    "ring_out_of_order": (RING, lambda raw: _out_of_order(raw, len(raw) // 2, b"m2m_irq:"), 0),
}


def dirty_copy(name: str) -> tuple[LogFormat, bytes, int]:
    fmt, spoil, refused = DIRTY_COPIES[name]
    rng = np.random.default_rng(401)
    raw = field_ring_capture(rng) if fmt is RING else field_csv_capture(rng, True, "op-station")
    return fmt, spoil(raw), refused


@pytest.mark.parametrize("name", DIRTY_COPIES)
def test_field_sized_dirty_capture_matches_line_loop(monkeypatch, name):
    """One refused line, or one row out of order, in a field-sized capture:
    the same log as the line loop's, with the line parsers run on at most
    the refused lines and one more: the CSV row that pins the layout, or
    the first dmesg line."""
    fmt, raw, refused = dirty_copy(name)
    node = OPERATOR if fmt is RING else None
    expected = {lenient: _outcome(lambda: oracle_parse_log(raw, fmt, node, lenient))
                for lenient in (False, True)}
    assert expected[True].skipped >= 1
    calls = count_line_parser_calls(monkeypatch)
    for lenient in (False, True):
        calls.clear()
        assert _outcome(lambda: parse_log(raw, fmt, node=node, lenient=lenient)) == expected[lenient]
        assert sum(calls.values()) <= refused + 1


# Byte sequences that are not UTF-8: a stray byte, a cut 3-byte character,
# an encoded surrogate, an overlong form, a run of bad bytes, a lone lead byte.
NOT_UTF8 = (b"\xff", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf", b"\xfe\xfe\xff", b"\xc3")


def spoil_every_tenth_line(raw: bytes, rng: np.random.Generator) -> tuple[bytes, int]:
    """``raw`` with one of ``NOT_UTF8`` put into every tenth line, at its
    start, end or anywhere between, and twice into every thirtieth; and
    how many lines that spoils."""
    lines = raw.split(b"\n")
    spoilt = range(3, len(lines), 10)
    for i in spoilt:
        for k in range(1 + (i % 30 == 3)):
            at = int(rng.integers(0, len(lines[i]) + 1))
            lines[i] = lines[i][:at] + NOT_UTF8[(i + k) % len(NOT_UTF8)] + lines[i][at:]
    return b"\n".join(lines), len(spoilt)


@pytest.mark.parametrize("fmt", [CSV, RING], ids=["csv", "ring"])
def test_a_capture_with_many_lines_not_utf8_matches_line_loop(fmt):
    """Found in one decode of the whole capture, each of 1,200 and more
    spoilt lines is refused as the line loop refuses it, strict and lenient."""
    rng = np.random.default_rng(402)
    raw = field_ring_capture(rng) if fmt is RING else field_csv_capture(rng, True, "béta")
    raw, spoilt = spoil_every_tenth_line(raw, rng)
    node = OPERATOR if fmt is RING else None
    assert spoilt >= 1200
    assert oracle_parse_log(raw, fmt, node, True).skipped >= spoilt
    assert_same(raw, fmt, node)


def test_threads_parsing_at_once_each_find_their_own_lines_not_utf8():
    rng = np.random.default_rng(403)
    raws = [spoil_every_tenth_line(field_csv_capture(rng, False, "operator")[:100_000], rng)[0]
            for _ in range(4)]
    expected = [oracle_parse_log(raw, CSV, None, True) for raw in raws]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # so that the threads cut into each other's decodes
    try:
        with ThreadPoolExecutor(4) as pool:
            for _ in range(5):
                assert list(pool.map(lambda raw: parse_log(raw, lenient=True), raws)) == expected
    finally:
        sys.setswitchinterval(interval)


def test_a_csv_body_of_other_lines_is_refused_without_gathering_it():
    """Lines that are neither rows nor blank are refused by their first
    bytes, without an index per byte; a strict parse raises the first."""
    raw = b"node,seq,t_wall_ns\nop,0,1000\n" + b"[ 12.5] m2m_irq: seq=1 ts=2000 src=hall\n" * 40_000
    tracemalloc.start()
    try:
        with pytest.raises(UnparseableLine) as exc:
            parse_log(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.line_no == 3
    assert str(exc.value) == str(_outcome(lambda: oracle_parse_log(raw, CSV, None, False))[1])
    assert peak < 2 * len(raw)


@settings(max_examples=300)
@given(st.binary(max_size=40), st.data())
def test_a_word_is_found_only_whole_and_inside_the_text(raw, data):
    """Starts before the text, past it, and words that would run past its
    end or are longer than it are no match; words of 8 bytes and more are
    read 8 bytes at a time."""
    i, j = sorted(data.draw(st.lists(st.integers(0, len(raw)), min_size=2, max_size=2)))
    word = data.draw(st.one_of(st.just(raw[i:j]), st.binary(max_size=20))) or b"\x00"
    starts = data.draw(st.lists(st.integers(-10, len(raw) + 10), max_size=12))
    found = events._word_at(np.frombuffer(raw, np.uint8), np.array(starts, np.int64), word)
    assert found.tolist() == [at >= 0 and raw[at:at + len(word)] == word for at in starts]


@pytest.mark.parametrize("raw, starts, word, found", [
    # a word cut by the end of the text, whose last byte would complete it
    (b"m2m_irq: seq=1 ts=2 src=hal", [23], b"hall", [False]),
    (b"src=hal", [0, 4], b"src=hall", [False, False]),
    (b"hal", [0], b"hall", [False]),
    (b"aaaa", [-1, 0, 3], b"aa", [False, True, False]),
    (b"op-station,1,2", [0, -1, 1, 5], b"op-station", [True, False, False, False]),
    (b"x m2m_irq:", [2, 3], b"m2m_irq:", [True, False]),
], ids=["source_cut_by_the_end", "eight_bytes_cut_by_the_end", "text_shorter_than_the_word",
        "before_and_after_the_text", "ten_bytes", "eight_bytes_up_to_the_end"])
def test_word_at_the_ends_of_the_text(raw, starts, word, found):
    assert events._word_at(np.frombuffer(raw, np.uint8), np.array(starts), word).tolist() == found


def test_digit_cells_at_the_start_of_the_text_are_read():
    """Cells that end within the first ``width`` bytes, one of them at byte
    0, are read from the start of the text."""
    text = np.frombuffer(b"7,42,1234567,00\n", np.uint8)
    stops, lengths = np.array([1, 4, 12, 15]), np.array([1, 2, 7, 2])
    values, good = events._uint_cells(text, stops, lengths)
    assert values.tolist() == [7, 42, 1234567, 0] and good.all()
    # a headerless log whose node id is digits, and whose first seq ends at byte 3
    raw = "7,1,1000\n7,2,2000\n7,3,2500000\n"
    assert_same(raw, CSV)
    assert parse_log(raw).t_wall_ns.tolist() == [1000, 2000, 2500000]


@pytest.mark.parametrize("name", ["ring", "csv", "ring_crlf"])
def test_a_field_sized_parse_peaks_below_2_5_times_its_input(name):
    """What a lenient parse holds at once: about 2.0 times its input for
    ring text, 2.1 with CRLF line ends, and 2.2 for CSV."""
    rng = np.random.default_rng(401)
    fmt = CSV if name == "csv" else RING
    raw = field_ring_capture(rng) if fmt is RING else field_csv_capture(rng, True, "op-station")
    if name == "ring_crlf":
        raw = raw.replace(b"\n", b"\r\n")
    node = OPERATOR if fmt is RING else None
    parse_log(raw, fmt, node=node, lenient=True)  # so numpy's cache of small blocks is warm
    tracemalloc.start()
    try:
        parse_log(raw, fmt, node=node, lenient=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(raw)


def test_a_headerless_log_is_read_without_copying_its_text(monkeypatch):
    """The first row's seq ends within the first ``width`` bytes of the
    text, where ``width`` is the 7 digits of the later seqs. A copy of the
    text would raise the peak by the whole text; the two parses' peaks
    otherwise differ only by small allocator cache and freelist hits."""
    seq = 1 + 100 * np.arange(12_000)
    t = 1_700_000_000 * 10**9 + 5 * 10**9 * seq
    body = "".join(f"op,{s},{ts}\n" for s, ts in zip(seq.tolist(), t.tolist())).encode()
    headed = b"node,seq,t_wall_ns\n" + body
    assert parse_log(body) == parse_log(headed) == oracle_parse_log(body, CSV, None, False)

    def peak(raw):
        parse_log(raw)  # so numpy's cache of small blocks is as warm for either text
        tracemalloc.start()
        try:
            parse_log(raw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    calls = count_line_parser_calls(monkeypatch)
    assert peak(body) < peak(headed) + len(body) // 4
    assert sum(calls.values()) == 4  # the first row of each parse
