from __future__ import annotations

import gc
import re
import threading
from pathlib import Path

import pytest

from m2mlat import probe
from m2mlat.budget import DEFAULT_CIRCUIT_ERROR_NS
from m2mlat.cli import build_parser, run_cli
from m2mlat.clocks import SyncMode
from m2mlat.dists import ConstantDelay
from m2mlat.errors import ConfigInvalid
from m2mlat.events import LogFormat, parse_log, write_log
from m2mlat.pairing import PairingConfig, pair_events
from m2mlat.record import replace
from m2mlat.report import input_digest
from m2mlat.sim import (PRESET_NAMES, GroundTruth, parse_config, preset, render_config,
                        simulate_shared_pulse_run)

from helpers import fresh_result, loaded_modules, run_python

MS = 1_000_000


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_writes_the_four_files(self, tmp_path, capsys):
        out = tmp_path / "run1"
        code, stdout, _ = run(
            capsys,
            "simulate", "--preset", "dyn_coref", "--trials", "50",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        for name in ("operator.csv", "vehicle.csv", "truth.csv", "config.echo"):
            assert (out / name).exists(), name
        assert "seed=7" in stdout
        # the echoed config reflects the overrides and parses back
        cfg = parse_config((out / "config.echo").read_text())
        assert (cfg.trials, cfg.seed) == (50, 7)
        truth = GroundTruth.from_csv((out / "truth.csv").read_text())
        assert len(truth) == 50
        assert len(parse_log((out / "operator.csv").read_text())) == 50

    def test_simulate_from_config_file(self, tmp_path, capsys):
        run1 = tmp_path / "a"
        run(capsys, "simulate", "--preset", "static_5g", "--trials", "10",
            "--out", str(run1))
        cfg_path = run1 / "config.echo"
        run2 = tmp_path / "b"
        code, _, _ = run(capsys, "simulate", "--config", str(cfg_path),
                         "--out", str(run2))
        assert code == 0
        assert (run1 / "vehicle.csv").read_text() == (run2 / "vehicle.csv").read_text()

    @pytest.mark.filterwarnings("error")  # as python -W error runs it
    def test_overlapping_trials_warn_on_one_line(self, tmp_path, capsys):
        cfg = replace(preset("dyn_coref"), trial_interval_s=0.5, l_follow=ConstantDelay(700 * MS))
        (tmp_path / "overlap.ini").write_text(render_config(cfg))
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "simulate", "--config", str(tmp_path / "overlap.ini"),
                                "--trials", "5", "--out", str(out))
        assert code == 0
        assert stdout.startswith("simulated 5 trials (label=dyn_coref") and stdout.count("\n") == 1
        assert re.fullmatch(r"warning: OverlappingTrials: largest trial delay \d+ ns reaches "
                            r"the 500000000 ns trial interval; trials overlap\n", err)

    def test_preset_and_config_are_exclusive(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "simulate", "--preset", "dyn_auto",
            "--config", "x.ini", "--out", str(tmp_path),
        )
        assert code == 1
        assert err.startswith("error: argument --config: not allowed with argument --preset")

    def test_unknown_preset_names_every_preset(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, err = run(capsys, "simulate", "--preset", "nope", "--out", str(out))
        assert code == 1
        assert err.startswith("error:")
        assert all(name in err for name in PRESET_NAMES), err
        assert not out.exists()


class TestAnalyze:
    @pytest.fixture()
    def capture(self, tmp_path, capsys):
        out = tmp_path / "cap"
        run(capsys, "simulate", "--preset", "dyn_coref", "--trials", "120",
            "--seed", "3", "--out", str(out))
        return out

    def test_report_with_stats_block(self, capture, tmp_path, capsys):
        prefix = tmp_path / "rep"
        code, stdout, _ = run(
            capsys,
            "analyze", "--operator", str(capture / "operator.csv"),
            "--vehicle", str(capture / "vehicle.csv"),
            "--label", "looptest", "--out", str(prefix),
        )
        assert code == 0
        assert "label: looptest" in stdout
        assert "median_ms:" in stdout
        for suffix in (".report.txt", ".pairs.csv", ".meta.txt", ".stats.csv", ".boxplot.csv"):
            assert (tmp_path / ("rep" + suffix)).exists(), suffix
        pairs = (tmp_path / "rep.pairs.csv").read_text().splitlines()
        assert pairs[0] == "op_seq,veh_seq,op_t_wall_ns,veh_t_wall_ns,m2m_ns"
        assert len(pairs) == 121
        assert "samples=120" in (tmp_path / "rep.meta.txt").read_text()

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "analyze", "--operator", str(tmp_path / "nope.csv"),
            "--vehicle", str(tmp_path / "nope2.csv"),
        )
        assert code == 2
        assert err.startswith("error: io:")

    def test_lenient_skips_follow_the_report(self, tmp_path, capsys):
        op, veh = tmp_path / "op.csv", tmp_path / "veh.csv"
        op_rows = [f"operator,{i},{5 * i + 1}000000000\n" for i in range(8)]
        veh_rows = [f"vehicle,{i},{5 * i + 1}800000000\n" for i in range(8)]
        op.write_text("node,seq,t_wall_ns\n" + op_rows[0] + "operator,xx,yy\n" + "".join(op_rows[1:]))
        veh.write_text("".join(veh_rows[:2]) + "vehicle,9,100\n" + "".join(veh_rows[2:]))
        argv = ["analyze", "--lenient", "--operator", str(op), "--vehicle", str(veh),
                "--out", str(tmp_path / "rep")]
        skips = {
            "skipped_op": "1",
            "first_error_op": "line 3: seq is not an integer: 'xx'",
            "skipped_veh": "1",
            "first_error_veh": "line 3: t_wall_ns 100 after 6800000000",
        }
        code, stdout, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        report = (tmp_path / "rep.report.txt").read_text()
        assert stdout == report + "".join(f"\n{k}: {v}" for k, v in skips.items()) + "\n"
        meta = (tmp_path / "rep.meta.txt").read_text()
        assert meta.endswith("max_window_ns=2000000000\n" + "".join(
            f"{k}={v}\n" for k, v in skips.items()))
        assert run(capsys, *argv[:-2])[1] == stdout

        # a log that skipped nothing adds no field; neither log: no skip line at all
        op.write_text("node,seq,t_wall_ns\n" + "".join(op_rows))
        code, stdout, _ = run(capsys, *argv)
        assert "skipped_op" not in stdout and "skipped_veh: 1" in stdout
        veh.write_text("".join(veh_rows))
        code, stdout, _ = run(capsys, *argv)
        assert stdout == (tmp_path / "rep.report.txt").read_text()
        assert (tmp_path / "rep.meta.txt").read_text().endswith("max_window_ns=2000000000\n")

    def test_stdout_and_meta_name_the_same_facts(self, tmp_path, capsys):
        # every count stdout prints as key: value, .meta.txt holds as key=value;
        # .meta.txt lists PairingReport.fields(), then the lenient skips
        op, veh = tmp_path / "op.csv", tmp_path / "veh.csv"
        op.write_text("".join(f"operator,{i},{5 * i + 1}000000000\n" for i in range(8))
                      + "operator,8,41100000000\noperator,xx,yy\n")
        veh.write_text("".join(f"vehicle,{i},{5 * i + 1}800000000\n" for i in range(7))
                       + "vehicle,7,60000000000\nvehicle,7,1\n")
        code, stdout, _ = run(capsys, "analyze", "--lenient", "--debounce-ms", "200",
                              "--operator", str(op), "--vehicle", str(veh),
                              "--out", str(tmp_path / "rep"))
        assert code == 0
        meta = (tmp_path / "rep.meta.txt").read_text()
        blocks = stdout.split("\n\n")  # title and provenance, stats, box plot, counts, skips
        lines = [blocks[1].splitlines()[0], *"\n".join(blocks[3:]).splitlines()]
        assert [line.split(": ")[0] for line in lines][:2] == ["samples", "unmatched_op"]
        assert len(lines) == 9
        for line in lines:
            assert line.replace(": ", "=", 1) + "\n" in meta
        pairing = pair_events(parse_log(op.read_bytes(), lenient=True),
                              parse_log(veh.read_bytes(), lenient=True),
                              PairingConfig(debounce_ns=200 * MS))
        names = [name for name, _ in pairing.fields()]
        names += ["skipped_op", "first_error_op", "skipped_veh", "first_error_veh"]
        assert [line.split("=")[0] for line in meta.splitlines()] == names

    def test_no_pair_in_the_window_is_a_validation_error(self, capture, capsys):
        # dyn_coref's latencies are tens of ms, so a 1 ms window holds none
        code, stdout, err = run(capsys, "analyze", "--operator", str(capture / "operator.csv"),
                                "--vehicle", str(capture / "vehicle.csv"), "--max-window-ms", "1")
        assert (code, stdout) == (1, "")
        assert err == "error: EmptyLog: no event pairs inside the matching window\n"

    def test_a_flag_value_that_is_no_number_is_a_validation_error(self, capture, capsys):
        code, stdout, err = run(capsys, "analyze", "--operator", str(capture / "operator.csv"),
                                "--vehicle", str(capture / "vehicle.csv"), "--debounce-ms", "abc")
        assert (code, stdout) == (1, "")
        assert err == "error: argument --debounce-ms: invalid finite float value: 'abc'\n"

    def test_malformed_log_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("garbage,here\n")
        code, _, err = run(
            capsys, "analyze", "--operator", str(bad), "--vehicle", str(bad)
        )
        assert code == 1
        assert "error:" in err


def _bad_report_samples(tmp_path, run_dir):
    (tmp_path / "s.csv").write_text("m2m_ns\n1.5\n")
    return ["report", "--samples", str(tmp_path / "s.csv")], "line 2"


def _bad_log_encoding(tmp_path, run_dir):
    (tmp_path / "bad.csv").write_bytes(b"node,seq,t_wall_ns\n\xff\n")
    return [
        "analyze", "--operator", str(tmp_path / "bad.csv"),
        "--vehicle", str(run_dir / "vehicle.csv"),
    ], "line 2"


def _nan_debounce(tmp_path, run_dir):
    return [
        "analyze", "--operator", str(run_dir / "operator.csv"),
        "--vehicle", str(run_dir / "vehicle.csv"), "--debounce-ms", "nan",
    ], "--debounce-ms"


def _bad_sched_samples(tmp_path, run_dir):
    (tmp_path / "a.csv").write_text("5000\nabc\n")
    (tmp_path / "b.csv").write_text("5000\n")
    return [
        "budget", "--sync-ms", "0.3", "--sched-a", str(tmp_path / "a.csv"),
        "--sched-b", str(tmp_path / "b.csv"), "--calib-angle-deg", "1",
        "--steer-rate-dps", "100",
    ], "line 2"


def _vehicle_log_error(tmp_path, run_dir):
    bad = tmp_path / "veh.csv"
    bad.write_text("node,seq,t_wall_ns\nvehicle,x,5\n")
    return [
        "analyze", "--operator", str(run_dir / "operator.csv"), "--vehicle", str(bad),
    ], f"UnparseableLine: {bad}: line 2"


def _precision_log_error(tmp_path, run_dir):
    bad = tmp_path / "b.csv"
    bad.write_text("node,seq,t_wall_ns\nnode_b,1,5\nnode_b,0,6\n")
    return [
        "precision", "--node-a", str(run_dir / "operator.csv"), "--node-b", str(bad),
    ], f"NonMonotonicSeq: {bad}: line 3"


def _config_not_utf8(tmp_path, run_dir):
    (tmp_path / "bad.ini").write_bytes(b"\xff\xfe[scenario]\n")
    return [
        "simulate", "--config", str(tmp_path / "bad.ini"), "--out", str(tmp_path / "x"),
    ], f"ConfigInvalid: {tmp_path / 'bad.ini'}: not valid UTF-8"


def _config_percent_value(tmp_path, run_dir):
    text = (run_dir / "config.echo").read_text()
    (tmp_path / "pct.ini").write_text(text.replace("median_ms = 10.0", "median_ms = 10%", 1))
    return [
        "simulate", "--config", str(tmp_path / "pct.ini"), "--out", str(tmp_path / "x"),
    ], "ConfigInvalid: bad config value: could not convert string to float: '10%'"


def _clock_error_beyond_int64(tmp_path, run_dir):
    text = (run_dir / "config.echo").read_text()
    text += "\n[clock_op]\ninitial_offset_ns = 1e30\n\n[clock_veh]\njitter_std_ns = 0.0\n"
    (tmp_path / "huge.ini").write_text(text)
    return [
        "simulate", "--config", str(tmp_path / "huge.ini"), "--out", str(tmp_path / "x"),
    ], "ConfigInvalid: clock error does not fit in int64"


def _clock_error_nan(tmp_path, run_dir):
    # An inf drift plus a -inf jitter draw is a nan error; at seed 1, 400
    # trials hold such a draw.
    text = re.sub(r"(?m)^trials = \d+$", "trials = 400", (run_dir / "config.echo").read_text())
    text += "\n[clock_op]\n\n[clock_veh]\ndrift_ppm = 1e306\njitter_std_ns = 1e308\n"
    (tmp_path / "nan.ini").write_text(text)
    return [
        "simulate", "--config", str(tmp_path / "nan.ini"), "--out", str(tmp_path / "x"),
    ], "ConfigInvalid: clock error does not fit in int64"


def _edited_config(tmp_path, run_dir, pattern, repl, count=1):
    """simulate argv for the echoed config with ``pattern`` replaced ``count`` times."""
    text, n = re.subn(pattern, repl, (run_dir / "config.echo").read_text(), count)
    assert n == count
    (tmp_path / "edited.ini").write_text(text)
    return ["simulate", "--config", str(tmp_path / "edited.ini"), "--out", str(tmp_path / "x")]


def _draw_beyond_int64(tmp_path, run_dir):
    return _edited_config(tmp_path, run_dir, r"median_ms = 702\.27\d*", "median_ms = 1e300"), (
        "ConfigInvalid: [l_follow] lognormal delay draw of 1e+306 ns does not fit in int64")


def _clock_op_value(field, value, where):
    def make_args(tmp_path, run_dir):
        clocks = f"[clock_op]\n{field} = {value}\n\n[clock_veh]\n\n[l_gen]"
        argv = _edited_config(tmp_path, run_dir, r"\[l_gen\]", clocks)
        return argv, f"ConfigInvalid: {where}"
    make_args.__name__ = f"_clock_op_{field}_{value}"
    return make_args


def _totals_beyond_int64(tmp_path, run_dir):
    # [l_gen] and [l_exec]: each 5e18 ns fits in int64, their sum does not
    return _edited_config(tmp_path, run_dir, r"median_ms = 10\.0", "median_ms = 5e12", 2), (
        "ConfigInvalid: trial delay totals and vehicle times must fit in int64 ns")


def _probe_port_beyond_range(mode, port):
    def make_args(tmp_path, run_dir):
        return ["probe", mode, f"127.0.0.1:{port}", "--count", "1", "--timeout-ms", "10"], (
            f"bad port in '127.0.0.1:{port}'")
    make_args.__name__ = f"_probe{mode.replace('-', '_')}_port_{port}"
    return make_args


def _overflowing_flag(flag, value):
    def make_args(tmp_path, run_dir):
        logs = ["--operator", str(run_dir / "operator.csv"),
                "--vehicle", str(run_dir / "vehicle.csv")]
        budget = ["--sync-ms", "1", "--kernel-ms", "1",
                  "--calib-angle-deg", "1", "--steer-rate-dps", "100"]
        command = {
            "--debounce-ms": ["analyze", *logs],
            "--min-latency-ms": ["analyze", *logs],
            "--max-window-ms": ["analyze", *logs],
            "--threshold-ms": ["analyze", *logs],
            "--sync-ms": ["budget", *budget],
            "--kernel-ms": ["budget", *budget],
            "--circuit-us": ["budget", *budget],
            "--timeout-ms": ["probe", "--peer", "127.0.0.1:9"],
        }[flag]
        return [*command, f"{flag}={value}"], f"{flag} {float(value)!r}"
    make_args.__name__ = f"_overflowing{flag.replace('-', '_')}_{value}"
    return make_args


def _report_sample_beyond_int64(tmp_path, run_dir):
    (tmp_path / "s.txt").write_text("18446744073709551616\n1\n2\n3\n4\n")
    return ["report", "--samples", str(tmp_path / "s.txt")], (
        f"{tmp_path / 's.txt'} line 1: m2m_ns does not fit in int64")


def _sched_sample_beyond_int64(tmp_path, run_dir):
    (tmp_path / "a.csv").write_text("latency_ns\n5000\n18446744073709551616\n")
    (tmp_path / "b.csv").write_text("5000\n")
    return [
        "budget", "--sync-ms", "0.3", "--sched-a", str(tmp_path / "a.csv"),
        "--sched-b", str(tmp_path / "b.csv"), "--calib-angle-deg", "1",
        "--steer-rate-dps", "100",
    ], f"{tmp_path / 'a.csv'} line 3: latency_ns does not fit in int64"


def _probe_negative_timeout(tmp_path, run_dir):
    return ["probe", "--peer", "127.0.0.1:9", "--count", "1",
            "--timeout-ms", "-5"], "--timeout-ms > 0"


def _probe_count_below_one(tmp_path, run_dir):
    return ["probe", "--peer", "127.0.0.1:9", "--count", "-3"], "--count >= 1"


def _probe_overflowing_interval(tmp_path, run_dir):
    return ["probe", "--peer", "127.0.0.1:9", "--count", "2", "--timeout-ms", "10",
            "--interval-ms", "1e303"], "--interval-ms 1e+303"


def _calib_not_finite(tmp_path, run_dir):
    return [
        "budget", "--sync-ms", "1", "--kernel-ms", "1",
        "--calib-angle-deg", "1e303", "--steer-rate-dps", "1e-300",
    ], "calibration error is not finite"


# 1e303 overflows a float once scaled to ns; 1e13 ms is finite but beyond int64 ns
_OVERFLOWING = [
    _overflowing_flag(flag, "1e303")
    for flag in ("--debounce-ms", "--min-latency-ms", "--max-window-ms", "--threshold-ms",
                 "--sync-ms", "--kernel-ms", "--circuit-us", "--timeout-ms")
] + [_overflowing_flag("--debounce-ms", "-1e303"), _overflowing_flag("--sync-ms", "1e13")]


@pytest.mark.parametrize(
    "make_args",
    [_bad_report_samples, _bad_log_encoding, _nan_debounce, _bad_sched_samples,
     _vehicle_log_error, _precision_log_error, _config_not_utf8, _calib_not_finite,
     _report_sample_beyond_int64, _sched_sample_beyond_int64, _probe_negative_timeout,
     _probe_count_below_one, _probe_overflowing_interval, _clock_error_beyond_int64, _clock_error_nan,
     _config_percent_value,
     _draw_beyond_int64, _totals_beyond_int64,
     _clock_op_value("correction_interval_s", "nan", "correction_interval_s must be finite"),
     _clock_op_value("correction_interval_s", "1e300", "correction_interval_s must be below"),
     _clock_op_value("initial_offset_ns", "0.9", "[clock_op] initial_offset_ns must be a whole number"),
     _probe_port_beyond_range("--peer", 70000), _probe_port_beyond_range("--peer", -1),
     _probe_port_beyond_range("--listen", 70000), *_OVERFLOWING],
)
@pytest.mark.filterwarnings("error")
def test_bad_input_is_a_validation_error(make_args, tmp_path, capsys):
    run_dir = tmp_path / "run"
    run(capsys, "simulate", "--preset", "dyn_coref", "--trials", "20",
        "--seed", "1", "--out", str(run_dir))
    argv, where = make_args(tmp_path, run_dir)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert where in err


class TestPrecision:
    def test_identical_files_mean_zero(self, tmp_path, capsys):
        log = tmp_path / "pulse.csv"
        lines = ["node,seq,t_wall_ns,source"] + [
            f"node_a,{i},{(i + 1) * 500 * MS},pulse" for i in range(20)
        ]
        log.write_text("\n".join(lines) + "\n")
        prefix = tmp_path / "prec"
        code, stdout, _ = run(
            capsys, "precision", "--node-a", str(log), "--node-b", str(log),
            "--out", str(prefix),
        )
        assert code == 0
        assert "offset_signed: n=20" in stdout
        assert "mean_ms=0.000000" in stdout
        offsets = (tmp_path / "prec.offsets.csv").read_text().splitlines()
        assert offsets[0] == "t_ref_ns,offset_ns"
        assert len(offsets) == 21

    def test_stdout_is_pinned_whole(self, tmp_path, capsys):
        # 300 pulses of a co-referenced shared-pulse run: both lines, every figure
        argv = ["precision"]
        for name, log in zip("ab", simulate_shared_pulse_run(SyncMode.CO_REFERENCED, 300, 10**9, 9)):
            (tmp_path / f"{name}.csv").write_text(write_log(log))
            argv += [f"--node-{name}", str(tmp_path / f"{name}.csv")]
        assert run(capsys, *argv) == (0, (
            "offset_signed: n=300 min_ms=-4.494780 max_ms=2.420769 mean_ms=-0.029331 "
            "std_ms=0.552369\n"
            "offset_abs: n=300 min_ms=0.001380 max_ms=4.494780 mean_ms=0.324474 "
            "std_ms=0.447982\n"
        ), "")


# A figure in ms as probe prints it: six decimals, a sign only when negative.
MS_FIGURE = r"-?\d+\.\d{6}"


def assert_probe_stdout(stdout: str, exchanges: int, listening: bool = False) -> None:
    """Each line of ``probe``'s stdout has its exact shape, in order: the
    responder's address, one line per exchange, the counts, the offsets."""
    shapes = [r"responder listening on 127\.0\.0\.1:\d+"] * listening
    shapes += [rf"seq={i} offset_ms={MS_FIGURE} rtt_ms=\d+\.\d{{6}}" for i in range(exchanges)]
    shapes += [f"exchanges={exchanges} lost=0 negative_rtt=0",
               "offset: " + " ".join(f"{k}_ms={MS_FIGURE}" for k in ("mean", "median", "min", "max"))]
    lines = stdout.splitlines()
    assert len(lines) == len(shapes), lines
    for line, shape in zip(lines, shapes):
        assert re.fullmatch(shape, line), (line, shape)


class TestProbeCli:
    def test_requester_against_threaded_responder(self, capsys, tmp_path):
        sock = probe.open_socket("127.0.0.1", 0)
        port = sock.getsockname()[1]
        stop = threading.Event()
        thread = threading.Thread(
            target=probe.run_responder, args=(sock,),
            kwargs={"stop": stop, "max_packets": 3}, daemon=True,
        )
        thread.start()
        try:
            prefix = tmp_path / "probe"
            code, stdout, _ = run(
                capsys, "probe", "--peer", f"127.0.0.1:{port}",
                "--count", "3", "--interval-ms", "1", "--out", str(prefix),
            )
        finally:
            stop.set()
            thread.join(timeout=3)
            sock.close()
        assert code == 0
        assert "exchanges=3 lost=0" in stdout
        assert_probe_stdout(stdout, 3)
        lines = (tmp_path / "probe.exchanges.csv").read_text().splitlines()
        assert lines[0].startswith("seq,t1,t2,t3,t4")
        assert len(lines) == 4

    def test_listen_and_peer_run_concurrently(self, capsys):
        # agent mode: answer requests in a thread while probing a peer
        sock = probe.open_socket("127.0.0.1", 0)
        port = sock.getsockname()[1]
        stop = threading.Event()
        thread = threading.Thread(
            target=probe.run_responder, args=(sock,),
            kwargs={"stop": stop, "max_packets": 2}, daemon=True,
        )
        thread.start()
        try:
            code, stdout, _ = run(
                capsys, "probe", "--listen", "127.0.0.1:0",
                "--peer", f"127.0.0.1:{port}", "--count", "2", "--interval-ms", "1",
            )
        finally:
            stop.set()
            thread.join(timeout=3)
            sock.close()
        assert code == 0
        assert stdout.startswith("responder listening on 127.0.0.1:")
        assert "exchanges=2 lost=0" in stdout
        assert_probe_stdout(stdout, 2, listening=True)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_cli_leaves_the_collector_as_it_was(self, capsys, enabled):
        sock = probe.open_socket("127.0.0.1", 0)
        stop = threading.Event()
        thread = threading.Thread(
            target=probe.run_responder, args=(sock,),
            kwargs={"stop": stop, "max_packets": 1}, daemon=True,
        )
        thread.start()
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code, _, _ = run(capsys, "probe", "--peer", f"127.0.0.1:{sock.getsockname()[1]}",
                             "--count", "1", "--interval-ms", "0")
            assert (code, gc.isenabled()) == (0, enabled)
        finally:
            (gc.enable if was else gc.disable)()
            stop.set()
            thread.join(timeout=3)
            sock.close()

    def test_needs_a_mode(self, capsys):
        code, _, err = run(capsys, "probe")
        assert code == 1
        assert "listen" in err

    def test_bad_hostport(self, capsys):
        code, _, err = run(capsys, "probe", "--peer", "nonsense")
        assert code == 1


class TestBudget:
    def test_flags_only(self, capsys):
        code, stdout, _ = run(
            capsys, "budget", "--sync-ms", "0.322", "--kernel-ms", "0.005",
            "--circuit-us", "2", "--calib-angle-deg", "1", "--steer-rate-dps", "100",
        )
        assert code == 0
        assert "e_total_ns=10329000" in stdout
        assert "in_precision_band=true" in stdout

    def test_circuit_error_defaults_to_the_budget_constant(self, capsys):
        flags = ("budget", "--sync-ms", "0.322", "--kernel-ms", "0.005",
                 "--calib-angle-deg", "1", "--steer-rate-dps", "100")
        code, stdout, _ = run(capsys, *flags)
        assert code == 0
        assert f"e_circuit_ns={DEFAULT_CIRCUIT_ERROR_NS}\n" in stdout
        code, given, _ = run(capsys, *flags, "--circuit-us", "2")
        assert code == 0
        assert stdout == given

    def test_scheduling_csv_ingestion(self, tmp_path, capsys):
        # per-sample scheduling latencies; asymmetry = max(118-2, 106-2) us
        a = tmp_path / "sched_a.csv"
        b = tmp_path / "sched_b.csv"
        a.write_text("latency_ns\n2000\n5000\n118000\n")
        b.write_text("2000\n5000\n106000\n")
        prefix = tmp_path / "bud"
        code, stdout, _ = run(
            capsys, "budget", "--sync-ms", "0.33", "--sched-a", str(a),
            "--sched-b", str(b), "--calib-angle-deg", "1",
            "--steer-rate-dps", "100", "--out", str(prefix),
        )
        assert code == 0
        assert "e_kernel_ns=116000" in stdout
        assert (tmp_path / "bud.budget.csv").exists()

    def test_kernel_source_required(self, capsys):
        code, _, err = run(
            capsys, "budget", "--sync-ms", "1", "--calib-angle-deg", "1",
            "--steer-rate-dps", "100",
        )
        assert code == 1
        assert "kernel" in err


class TestReport:
    def test_from_pairing_csv(self, tmp_path, capsys):
        samples = tmp_path / "pairs.csv"
        rows = ["op_seq,veh_seq,op_t_wall_ns,veh_t_wall_ns,m2m_ns"]
        rows += [f"{i},{i},{i * 10},{i * 10 + 800},{700 + i}" for i in range(30)]
        samples.write_text("\n".join(rows) + "\n")
        code, stdout, _ = run(capsys, "report", "--samples", str(samples))
        assert code == 0
        assert "samples: 30" in stdout

    def test_from_bare_values(self, tmp_path, capsys):
        samples = tmp_path / "values.txt"
        samples.write_text("\n".join(str(700 * MS + i) for i in range(10)))
        prefix = tmp_path / "rep"
        code, stdout, _ = run(
            capsys, "report", "--samples", str(samples), "--out", str(prefix)
        )
        assert code == 0
        assert (tmp_path / "rep.stats.csv").exists()

    def test_reads_the_samples_once(self, tmp_path, capsys, monkeypatch):
        # the config_hash must describe the very bytes the values came from
        samples = tmp_path / "values.txt"
        samples.write_bytes(b"m2m_ns\r\n5\r7\r\n9\n11\r13\n")  # every line ending
        reads = []
        for name in ("read_bytes", "read_text"):
            real = getattr(Path, name)
            monkeypatch.setattr(Path, name, lambda self, *a, real=real, name=name, **k: (
                reads.append((name, self)) or real(self, *a, **k)))
        code, stdout, _ = run(capsys, "report", "--samples", str(samples))
        assert code == 0
        assert reads == [("read_bytes", samples)]
        assert "samples: 5" in stdout
        assert f"config_hash: {input_digest(samples.read_bytes())}" in stdout


def test_a_byte_order_mark_changes_no_output(tmp_path, capsys):
    # Excel's "CSV UTF-8" and PowerShell 5's Out-File -Encoding utf8 start
    # a file with one; only a config_hash of the raw bytes may differ
    def bom_copy(path):
        copy = path.with_name("bom." + path.name)
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return copy

    def outputs(prefix):  # each --out file, its config_hash blanked
        return {p.name.removeprefix(prefix): re.sub(rb"config_hash\W+\w+", b"", p.read_bytes())
                for p in tmp_path.glob(prefix + ".*")}

    _, sim_out, _ = run(capsys, "simulate", "--preset", "dyn_coref", "--trials", "40",
                        "--out", str(tmp_path / "sim"))
    code, bom_sim_out, _ = run(capsys, "simulate", "--config",
                               str(bom_copy(tmp_path / "sim" / "config.echo")),
                               "--out", str(tmp_path / "sim"))
    assert (code, bom_sim_out) == (0, sim_out)
    logs = [tmp_path / "sim" / f"{node}.csv" for node in ("operator", "vehicle")]
    for lenient in ([], ["--lenient"]):
        texts = []
        for prefix, (op, veh) in (("a", logs), ("b", map(bom_copy, logs))):
            code, stdout, _ = run(capsys, "analyze", *lenient, "--operator", str(op),
                                  "--vehicle", str(veh), "--out", str(tmp_path / prefix))
            assert code == 0
            texts.append(re.sub("config_hash: .*", "", stdout))
        assert texts[0] == texts[1]
        assert outputs("a") == outputs("b")
    samples = bom_copy(tmp_path / "a.pairs.csv")
    assert run(capsys, "report", "--samples", str(samples), "--out", str(tmp_path / "r"))[0] == 0
    assert outputs("r")[".stats.csv"] == outputs("a")[".stats.csv"]
    sched = tmp_path / "sched.csv"
    budgets = []
    for text in ("latency_ns\n2000\n118000\n", "2000\n118000\n"):
        sched.write_text(text)
        for path in (sched, bom_copy(sched)):
            budgets.append(run(capsys, "budget", "--sched-a", str(path), "--sched-b",
                               str(path), *BUDGET))
    assert budgets == [(0, budgets[0][1], "")] * 4


class TestTopLevel:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "simulate", "--bogus")
        assert code == 1

    def test_version_exits_zero(self, capsys):
        # argparse's version action raises SystemExit; run_cli converts it
        code, stdout, _ = run(capsys, "--version")
        assert code == 0
        assert stdout.startswith("m2mlat ")


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """A simulated capture, its analysis, and two scheduling sample files."""
    d = tmp_path_factory.mktemp("session")
    assert run_cli(["simulate", "--preset", "dyn_coref", "--trials", "40",
                    "--seed", "5", "--out", str(d)]) == 0
    assert run_cli(["analyze", "--operator", str(d / "operator.csv"),
                    "--vehicle", str(d / "vehicle.csv"), "--out", str(d / "rep")]) == 0
    (d / "sched_a.csv").write_text("latency_ns\n2000\n118000\n")
    (d / "sched_b.csv").write_text("2000\n106000\n")
    echo = (d / "config.echo").read_text()
    (d / "gamma.ini").write_text(echo.replace("[l_follow]\nkind = lognormal",
                                              "[l_follow]\nkind = gamma"))
    return d


BUDGET = ["--sync-ms", "0.33", "--calib-angle-deg", "1", "--steer-rate-dps", "100"]
# simulate loads no stats; no command loads dataclasses, save through scipy
SIMULATE = ["m2mlat.clocks", "m2mlat.dists", "m2mlat.events", "m2mlat.record", "m2mlat.sim",
            "numpy"]
ANALYZE = ["m2mlat.events", "m2mlat.pairing", "m2mlat.record", "m2mlat.stats", "numpy"]


@pytest.mark.parametrize("argv, loaded", [
    ([], []),  # import only
    (["--version"], []),
    (["--help"], []),
    (["analyze", "--operator", "{d}/operator.csv", "--vehicle", "{d}/vehicle.csv",
      "--out", "{d}/again"], ANALYZE),
    # report's samples are a list of ints, which stats reduces without numpy
    (["report", "--samples", "{d}/rep.pairs.csv", "--out", "{d}/again"],
     ["m2mlat.record", "m2mlat.stats"]),
    (["precision", "--node-a", "{d}/operator.csv", "--node-b", "{d}/vehicle.csv"],
     sorted(ANALYZE + ["m2mlat.clocks"])),
    (["budget", "--sched-a", "{d}/sched_a.csv", "--sched-b", "{d}/sched_b.csv", *BUDGET],
     ["m2mlat.record"]),
    (["budget", "--kernel-ms", "0.005", *BUDGET], ["m2mlat.record"]),
    # its one-row CSV goes through tables.write_table, which must not load numpy
    (["budget", "--kernel-ms", "0.005", *BUDGET, "--out", "{d}/budget"], ["m2mlat.record"]),
    # a preset's config is echoed with no configparser; reading one loads it
    (["simulate", "--preset", "dyn_auto", "--trials", "5", "--out", "{d}/sim"], SIMULATE),
    (["simulate", "--config", "{d}/config.echo", "--out", "{d}/echo"], ["configparser", *SIMULATE]),
    # only fitting a gamma delay needs scipy, which loads dataclasses itself
    (["simulate", "--config", "{d}/gamma.ini", "--out", "{d}/gamma"],
     ["configparser", "dataclasses", *SIMULATE, "scipy"]),
], ids=["import", "version", "help", "analyze", "report", "precision", "budget",
        "budget-kernel-ms", "budget-out", "simulate", "simulate-config", "simulate-gamma"])
def test_only_simulate_loads_scipy(session, argv, loaded):
    # Pins each command's set of loaded modules: each handler imports what it
    # runs, so only simulate loads scipy, budget and report load no numpy,
    # and report no events, pairing or clocks. main() runs in a fresh
    # interpreter, as the console script runs it.
    code = "import sys, m2mlat.cli\nif sys.argv[1:]:\n    assert m2mlat.cli.main(sys.argv[1:]) == 0"
    assert loaded_modules(code, *(a.format(d=session) for a in argv)) == loaded


# python -m m2mlat.cli ..., run through runpy as -m runs it
RUN_AS_MODULE = (
    "import runpy\ntry:\n"
    "    runpy.run_module('m2mlat.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n    assert exc.code == 0, exc.code"
)


def test_budget_as_module_loads_no_numpy(session):
    argv = ["budget", "--sched-a", f"{session}/sched_a.csv",
            "--sched-b", f"{session}/sched_b.csv", *BUDGET]
    assert loaded_modules(RUN_AS_MODULE, *argv) == ["m2mlat.record"]


def test_report_as_module_loads_no_numpy(session):
    argv = ["report", "--samples", f"{session}/rep.pairs.csv"]
    assert loaded_modules(RUN_AS_MODULE, *argv) == ["m2mlat.record", "m2mlat.stats"]


@pytest.mark.parametrize("argv, code", [
    (["report", "--samples", "{d}/rep.pairs.csv"], 0),
    (["budget", "--kernel-ms", "0.005", *BUDGET], 0),
    (["report", "--samples", "{d}/missing.csv"], 2),
], ids=["report", "budget", "io-error"])
@pytest.mark.parametrize("entry, frozen", [("main", True), ("run_cli", False)])
def test_only_main_freezes_the_collector(session, argv, code, entry, frozen):
    # main() ends the process, so it turns the collector off for the command
    # and freezes it as it returns, and shutdown skips its collections;
    # run_cli serves in-process callers and leaves it alone
    probe = (
        "import gc, json, sys, m2mlat.cli\n"
        f"code = m2mlat.cli.{entry}(sys.argv[1:])\n"
        "print(json.dumps([code, gc.get_freeze_count(), gc.isenabled()]))"
    )
    got_code, freeze_count, enabled = fresh_result(probe, *(a.format(d=session) for a in argv))
    assert got_code == code
    assert (freeze_count > 0) is frozen
    assert enabled is not frozen


def test_console_path_matches_run_cli(tmp_path, capsys, monkeypatch):
    # python -m m2mlat.cli, its output on pipes, against run_cli in process:
    # the same stdout, stderr, exit code and --out files, byte for byte
    steps = [
        ["simulate", "--preset", "dyn_coref", "--trials", "40", "--seed", "3", "--out", "sim"],
        ["analyze", "--operator", "sim/operator.csv", "--vehicle", "sim/vehicle.csv", "--out", "rep"],
        ["report", "--samples", "rep.pairs.csv", "--threshold-ms", "800", "--out", "again"],
        ["precision", "--node-a", "sim/operator.csv", "--node-b", "sim/vehicle.csv", "--out", "prec"],
        ["budget", "--kernel-ms", "0.005", *BUDGET, "--out", "budget"],
        ["simulate", "--preset", "no_such_preset", "--out", "nope"],
    ]
    console, in_process = tmp_path / "console", tmp_path / "in_process"
    console.mkdir()
    in_process.mkdir()
    monkeypatch.chdir(in_process)
    for argv in steps:
        child = run_python("-m", "m2mlat.cli", *argv, cwd=console)
        code = run_cli(argv)
        out, err = capsys.readouterr()
        assert (child.returncode, child.stdout, child.stderr) == (
            code, out.encode(), err.encode()), argv
    assert code == 1 and err.startswith("error:")

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    assert len(files(console)) == 16  # simulate 4, analyze 5, report 3, precision 3, budget 1
    assert files(console) == files(in_process)


def test_only_probe_loads_the_probe():
    sock = probe.open_socket("127.0.0.1", 0)
    stop = threading.Event()
    thread = threading.Thread(target=probe.run_responder, args=(sock,),
                              kwargs={"stop": stop, "max_packets": 1}, daemon=True)
    thread.start()
    try:
        # probe can run for hours, so main() leaves the collector on
        code = ("import gc, sys, m2mlat.cli\nassert m2mlat.cli.main(sys.argv[1:]) == 0\n"
                "assert gc.isenabled()")
        loaded = loaded_modules(code, "probe", "--peer", f"127.0.0.1:{sock.getsockname()[1]}",
                                "--count", "1", "--interval-ms", "0")
    finally:
        stop.set()
        thread.join(timeout=3)
        sock.close()
    # the probe's estimator lives in clocks, which loads no event model; the
    # offsets are summarized through stats
    assert loaded == ["m2mlat.clocks", "m2mlat.probe", "m2mlat.record", "m2mlat.stats", "numpy"]


def test_format_choices_match_log_formats():
    # the parser names the formats literally, so building it imports no events
    subparsers = build_parser()._subparsers._group_actions[0].choices
    for command in ("analyze", "precision"):
        (fmt,) = [a for a in subparsers[command]._actions if a.dest == "format"]
        assert set(fmt.choices) == {f.value for f in LogFormat}


def test_gamma_config_fit_is_pinned(session):
    # gammaincinv is imported where the fit needs it; the fit is unchanged
    l_follow = parse_config((session / "gamma.ini").read_text()).l_follow
    assert (l_follow.shape, l_follow.scale_ns) == (45.5792894572486, 15521016.234494293)
