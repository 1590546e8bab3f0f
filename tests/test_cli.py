from __future__ import annotations

import re
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from m2mlat import probe
from m2mlat.cli import _read_int_column, run_cli
from m2mlat.errors import ConfigInvalid
from m2mlat.events import parse_log
from m2mlat.sim import PRESET_NAMES, GroundTruth, parse_config

from helpers import lax_integers, loaded_modules

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
     _probe_overflowing_interval, _clock_error_beyond_int64, _config_percent_value,
     _draw_beyond_int64, _totals_beyond_int64,
     _clock_op_value("correction_interval_s", "nan", "correction_interval_s must be finite"),
     _clock_op_value("correction_interval_s", "1e300", "correction_interval_s must be below"),
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
    return d


NO_SCIPY = ["m2mlat.clocks"]


@pytest.mark.parametrize("argv, loaded", [
    ([], NO_SCIPY),  # import only
    (["analyze", "--operator", "{d}/operator.csv", "--vehicle", "{d}/vehicle.csv",
      "--out", "{d}/again"], NO_SCIPY),
    (["report", "--samples", "{d}/rep.pairs.csv", "--out", "{d}/again"], NO_SCIPY),
    (["precision", "--node-a", "{d}/operator.csv", "--node-b", "{d}/vehicle.csv"], NO_SCIPY),
    (["budget", "--sched-a", "{d}/sched_a.csv", "--sched-b", "{d}/sched_b.csv",
      "--sync-ms", "0.33", "--calib-angle-deg", "1", "--steer-rate-dps", "100"], NO_SCIPY),
    (["simulate", "--preset", "dyn_auto", "--trials", "5", "--out", "{d}/sim"],
     ["m2mlat.clocks", "m2mlat.dists", "m2mlat.sim", "scipy"]),
], ids=["import", "analyze", "report", "precision", "budget", "simulate"])
def test_only_simulate_loads_scipy(session, argv, loaded):
    # main() in a fresh interpreter, as the console script runs it
    code = "import sys, m2mlat.cli\nif sys.argv[1:]:\n    assert m2mlat.cli.main(sys.argv[1:]) == 0"
    assert loaded_modules(code, *(a.format(d=session) for a in argv)) == loaded


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
        _read_int_column(path, "m2m_ns")
    path.write_text("\n".join(lines + [row(-12), row("7\r")]) + "\n")
    assert _read_int_column(path, "m2m_ns") == [-i for i in range(good)] + [-12, 7]
