"""Command-line surface tying the toolkit together.

Subcommands:
  simulate   generate a two-node capture (operator.csv, vehicle.csv,
             truth.csv, config.echo) from a preset or a config file
  analyze    debounce, pair, and summarize an operator/vehicle log pair
  precision  per-pulse offset series from two logs of one shared stimulus
  probe      live two-way offset estimation over UDP (responder and/or
             requester)
  budget     additive measurement-error budget from its four components
  report     stats and box-plot data for an existing sample file

Exit codes: 0 success, 1 validation error, 2 I/O error. Errors are
printed to stderr with the stable prefix ``error:``. Every subcommand
that takes randomness seeds it from --seed; numeric results are also
written as machine-readable CSV next to the human-readable text when
--out is given.

Each handler imports the modules its command runs, so a command loads
only those: only ``simulate`` loads the simulator, only ``probe`` the
probe, and ``budget``, ``--help`` and ``--version`` load no numpy.

``main()``, the console entry point, freezes the garbage collector as it
returns, because the process exits next; callers that run commands in
process and carry on use ``run_cli``.

Examples:
  m2mlat simulate --preset dyn_coref --trials 500 --seed 7 --out run1/
  m2mlat analyze --operator run1/operator.csv --vehicle run1/vehicle.csv \
      --out run1/report
  m2mlat precision --node-a a.csv --node-b b.csv
  m2mlat probe --listen 0.0.0.0:47047
  m2mlat probe --peer 192.0.2.10:47047 --count 60 --interval-ms 500
  m2mlat budget --sync-ms 0.322 --kernel-ms 0.005 --circuit-us 2 \
      --calib-angle-deg 1 --steer-rate-dps 100
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigInvalid, EmptyLog, M2MLatError

MS_NS = 1_000_000


class _CliParser(argparse.ArgumentParser):
    """Argparse that raises instead of exiting, so run_cli owns exit codes."""

    def error(self, message):
        raise ConfigInvalid(message)


def _finite_float(text: str) -> float:
    """Argparse type for every float flag: nan and infinities are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _ns(value: float, flag: str) -> int:
    """A duration flag's value (ms, or µs for a ``-us`` flag) as int ns; must fit int64."""
    ns = value * (1_000 if flag.endswith("-us") else MS_NS)
    if not abs(ns) < 2**63:
        raise ConfigInvalid(f"{flag} {value!r} does not fit in int64 nanoseconds")
    return int(round(ns))


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="m2mlat", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"m2mlat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic two-node capture")
    src = p_sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="preset name; sim.preset checks it and lists the names")
    src.add_argument("--config", type=Path, help="scenario config file (INI)")
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", type=Path, required=True, help="output directory")

    p_an = sub.add_parser("analyze", help="pair two logs and summarize latency")
    p_an.add_argument("--operator", type=Path, required=True)
    p_an.add_argument("--vehicle", type=Path, required=True)
    p_an.add_argument("--format", choices=("csv", "kernelring"), default="csv")
    # None means pairing's default; only the flags given reach PairingConfig
    p_an.add_argument("--debounce-ms", type=_finite_float)
    p_an.add_argument("--min-latency-ms", type=_finite_float)
    p_an.add_argument("--max-window-ms", type=_finite_float)
    p_an.add_argument(
        "--threshold-ms", type=_finite_float, action="append",
        help="report the fraction of samples above this (repeatable; default 1000)",
    )
    p_an.add_argument("--label", default="analysis")
    p_an.add_argument("--lenient", action="store_true", help="skip malformed lines")
    p_an.add_argument("--out", type=Path, help="output path prefix")

    p_pr = sub.add_parser("precision", help="shared-stimulus offset analysis")
    p_pr.add_argument("--node-a", type=Path, required=True)
    p_pr.add_argument("--node-b", type=Path, required=True)
    p_pr.add_argument("--format", choices=("csv", "kernelring"), default="csv")
    p_pr.add_argument("--out", type=Path, help="output path prefix")

    p_probe = sub.add_parser("probe", help="two-way time-transfer over UDP")
    p_probe.add_argument("--listen", metavar="HOST:PORT", help="answer requests")
    p_probe.add_argument("--peer", metavar="HOST:PORT", help="send requests")
    p_probe.add_argument("--count", type=int, default=10)
    p_probe.add_argument("--interval-ms", type=_finite_float, default=1000.0)
    p_probe.add_argument("--timeout-ms", type=_finite_float, default=1000.0)
    p_probe.add_argument("--out", type=Path, help="output path prefix")

    p_bud = sub.add_parser("budget", help="additive measurement-error budget")
    p_bud.add_argument("--sync-ms", type=_finite_float, required=True)
    p_bud.add_argument("--circuit-us", type=_finite_float, default=2.0)
    p_bud.add_argument("--kernel-ms", type=_finite_float)
    p_bud.add_argument("--sched-a", type=Path, help="per-sample ns latencies, node a")
    p_bud.add_argument("--sched-b", type=Path, help="per-sample ns latencies, node b")
    p_bud.add_argument("--calib-angle-deg", type=_finite_float, required=True)
    p_bud.add_argument("--steer-rate-dps", type=_finite_float, required=True)
    p_bud.add_argument("--out", type=Path, help="output path prefix")

    p_rep = sub.add_parser("report", help="stats and box-plot data for a sample file")
    p_rep.add_argument("--samples", type=Path, required=True,
                       help="pairing CSV (m2m_ns column) or one ns value per line")
    p_rep.add_argument("--label", default="report")
    p_rep.add_argument("--threshold-ms", type=_finite_float, action="append")
    p_rep.add_argument("--out", type=Path, help="output path prefix")

    return parser


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigInvalid as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    handler = {
        "simulate": _cmd_simulate,
        "analyze": _cmd_analyze,
        "precision": _cmd_precision,
        "probe": _cmd_probe,
        "budget": _cmd_budget,
        "report": _cmd_report,
    }[args.command]
    try:
        return handler(args)
    except M2MLatError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: io: {err}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    """Entry point of the console script and of ``python -m m2mlat.cli``.

    The process exits next, so as it returns this freezes the garbage
    collector: shutdown then skips its collections over every object
    already loaded (~21k after numpy and a command's modules), while
    stdout and stderr are flushed as before. In-process callers use
    ``run_cli``, which leaves the collector alone.
    """
    try:
        return run_cli(sys.argv[1:] if argv is None else argv)
    finally:
        gc.freeze()


def _cmd_simulate(args) -> int:
    from . import sim  # only this command needs the simulator
    from .events import write_log

    if args.preset:
        cfg = sim.preset(args.preset)
    else:
        try:
            text = args.config.read_text(encoding="utf-8")
        except UnicodeDecodeError as err:
            raise ConfigInvalid(f"{args.config}: not valid UTF-8 at byte {err.start}")
        cfg = sim.parse_config(text)
    cfg = sim.with_overrides(cfg, trials=args.trials, seed=args.seed)
    op_log, veh_log, truth = sim.simulate(cfg)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "operator.csv").write_text(write_log(op_log), encoding="utf-8")
    (out / "vehicle.csv").write_text(write_log(veh_log), encoding="utf-8")
    (out / "truth.csv").write_text(truth.to_csv(), encoding="utf-8")
    (out / "config.echo").write_text(sim.render_config(cfg), encoding="utf-8")
    print(
        f"simulated {cfg.trials} trials (label={cfg.label or 'custom'}, "
        f"seed={cfg.seed}, config={sim.config_hash(cfg)}) -> {out}"
    )
    return 0


def _read_log(path: Path, fmt: LogFormat, role: Role, lenient: bool = False):
    from .events import LogFormat, NodeId, parse_log, with_role

    raw = path.read_bytes()
    node = NodeId(path.stem or role.value, role) if fmt is LogFormat.KERNEL_RING else None
    try:
        log = parse_log(raw, fmt, node=node, lenient=lenient)
    except M2MLatError as err:
        err.args = (f"{path}: {err}",)  # same class and line number, plus the file
        raise
    return with_role(log, role), raw


def _cmd_analyze(args) -> int:
    from . import report
    from .events import LogFormat, Role
    from .pairing import PairingConfig, pair_events

    fmt = LogFormat(args.format)
    op_log, op_raw = _read_log(args.operator, fmt, Role.OPERATOR, args.lenient)
    veh_log, veh_raw = _read_log(args.vehicle, fmt, Role.VEHICLE, args.lenient)
    cfg = PairingConfig(**{
        f"{name}_ns": _ns(value, f"--{name.replace('_', '-')}-ms")
        for name in ("debounce", "min_latency", "max_window")
        if (value := getattr(args, f"{name}_ms")) is not None
    })
    pairing = pair_events(op_log, veh_log, cfg)
    if not len(pairing.samples):
        raise EmptyLog("no event pairs inside the matching window")
    skips = []  # a lenient parse's skips, for each log that skipped lines
    for side, log in (("op", op_log), ("veh", veh_log)):
        if log.skipped:
            skips += [(f"skipped_{side}", log.skipped), (f"first_error_{side}", log.first_error)]
    return _emit_report(
        args, pairing.m2m_values, report.input_digest(op_raw, veh_raw), pairing, skips
    )


def _cmd_precision(args) -> int:
    from . import clocks, stats
    from .events import LogFormat, Role

    fmt = LogFormat(args.format)
    log_a, _ = _read_log(args.node_a, fmt, Role.OPERATOR)
    log_b, _ = _read_log(args.node_b, fmt, Role.VEHICLE)
    series = clocks.precision_analysis(log_a, log_b)
    for name, s in (("signed", series.stats_signed), ("abs", series.stats_abs)):
        print(
            f"offset_{name}: n={s.n} min_ms={s.min_ns / 1e6:.6f} "
            f"max_ms={s.max_ns / 1e6:.6f} mean_ms={s.mean_ns / 1e6:.6f} "
            f"std_ms={s.std_ns / 1e6:.6f}"
        )
    if args.out:
        _write_prefixed(args.out, {
            ".offsets.csv": series.to_csv(),
            ".stats_signed.csv": stats.stats_csv(series.stats_signed),
            ".stats_abs.csv": stats.stats_csv(series.stats_abs),
        })
    return 0


def _parse_hostport(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ConfigInvalid(f"expected HOST:PORT, got {value!r}")
    if not (port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ConfigInvalid(f"bad port in {value!r}: need 0-65535")
    return host, int(port)


def _cmd_probe(args) -> int:
    import threading

    from . import probe, stats

    if not args.listen and not args.peer:
        raise ConfigInvalid("probe needs --listen and/or --peer")
    _ns(args.timeout_ms, "--timeout-ms")  # socket timeouts and sleeps overflow
    _ns(args.interval_ms, "--interval-ms")  # beyond int64 ns
    if args.count < 1 or args.timeout_ms <= 0 or args.interval_ms < 0:
        raise ConfigInvalid("probe needs --count >= 1, --timeout-ms > 0, --interval-ms >= 0")
    responder_thread = None
    responder_sock = None
    stop = threading.Event()
    if args.listen:
        host, port = _parse_hostport(args.listen)
        responder_sock = probe.open_socket(host, port)
        bound = responder_sock.getsockname()
        print(f"responder listening on {bound[0]}:{bound[1]}")
        if args.peer:
            responder_thread = threading.Thread(
                target=probe.run_responder, args=(responder_sock,),
                kwargs={"stop": stop}, daemon=True,
            )
            responder_thread.start()
        else:
            try:
                probe.run_responder(responder_sock)
            except KeyboardInterrupt:
                pass
            finally:
                responder_sock.close()
            return 0
    try:
        peer = _parse_hostport(args.peer)
        result = probe.run_requester(
            peer, args.count, args.interval_ms, timeout_ms=args.timeout_ms,
            on_sample=lambda s: print(
                f"seq={s.seq} offset_ms={s.offset_ns / 1e6:.6f} "
                f"rtt_ms={s.rtt_ns / 1e6:.6f}"
            ),
        )
    finally:
        stop.set()
        if responder_thread is not None:
            responder_thread.join(timeout=1.0)
        if responder_sock is not None:
            responder_sock.close()
    print(
        f"exchanges={len(result.samples)} lost={result.lost} "
        f"negative_rtt={len(result.negative_rtt)}"
    )
    if result.samples:
        s = stats.summarize([round(x.offset_ns) for x in result.samples])
        print(
            f"offset: mean_ms={s.mean_ns / 1e6:.6f} median_ms={s.median_ns / 1e6:.6f} "
            f"min_ms={s.min_ns / 1e6:.6f} max_ms={s.max_ns / 1e6:.6f}"
        )
    if args.out:
        _write_prefixed(args.out, {".exchanges.csv": result.to_csv()})
    return 0


def _cmd_budget(args) -> int:
    from . import budget
    from .tables import read_int_columns

    if args.kernel_ms is not None:
        kernel_ns = _ns(args.kernel_ms, "--kernel-ms")
    elif args.sched_a and args.sched_b:
        kernel_ns = budget.kernel_asymmetry(*(
            read_int_columns(path.read_bytes(), ("latency_ns",), path)[0]
            for path in (args.sched_a, args.sched_b)
        ))
    else:
        raise ConfigInvalid("budget needs --kernel-ms or both --sched-a and --sched-b")
    calib = budget.CalibModel(args.calib_angle_deg, args.steer_rate_dps)
    sync_ns = _ns(args.sync_ms, "--sync-ms")
    circuit_ns = _ns(args.circuit_us, "--circuit-us")
    result = budget.total_error(sync_ns, circuit_ns, kernel_ns, budget.calib_error(calib))
    print(result.to_text(), end="")
    if args.out:
        _write_prefixed(args.out, {".budget.csv": result.to_csv()})
    return 0


def _cmd_report(args) -> int:
    from . import report
    from .tables import read_int_columns

    raw = args.samples.read_bytes()  # read once: the digest covers the bytes parsed
    (values,) = read_int_columns(raw, ("m2m_ns",), args.samples)
    if not values:
        raise ConfigInvalid(f"{args.samples} contains no samples")
    return _emit_report(args, values, report.input_digest(raw))


def _emit_report(args, values, digest: str, pairing=None, skips=()) -> int:
    """Print the report of one sample set; with --out, also write its files.

    The ``(field, value)`` pairs of ``skips`` follow the report on stdout,
    after a blank line, and the pairing fields in ``.meta.txt``.
    """
    from . import report, stats

    thresholds = [_ns(t, "--threshold-ms") for t in args.threshold_ms or ()]
    rep = report.build_report(
        args.label, values, report.make_provenance(None, digest),
        thresholds or report.DEFAULT_THRESHOLDS_NS, pairing,
    )
    text = report.render_text(rep)
    print(text, end="")
    if skips:
        print("", *(f"{key}: {value}" for key, value in skips), sep="\n")
    if args.out:
        files = {".report.txt": text}
        if pairing is not None:
            files[".pairs.csv"] = pairing.to_csv()
            files[".meta.txt"] = pairing.meta_text() + "".join(
                f"{key}={value}\n" for key, value in skips)
        files[".stats.csv"] = stats.stats_csv(rep.stats)
        files[".boxplot.csv"] = stats.boxplot_csv(rep.boxplot)
        _write_prefixed(args.out, files)
    return 0


def _write_prefixed(prefix: Path, files: dict[str, str]) -> None:
    prefix.parent.mkdir(parents=True, exist_ok=True)
    for suffix, content in files.items():
        Path(str(prefix) + suffix).write_text(content, encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
