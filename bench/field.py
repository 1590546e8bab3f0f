"""Workload ``analyze_field``: what ``m2mlat analyze`` does to field captures.

The captures are generated here with numpy, not with ``m2mlat.sim``, so
the expected pairing is known without running the toolkit:

* one steering motion every 5 s (plus up to 0.3 s of jitter) fires 2-4
  Hall edges on the operator within 80 ms of the first;
* 97% of motions fire 2-4 vehicle edges, the first one 100-1800 ms after
  the operator's first edge; the other 3% fire none;
* 5% of motions are followed by one stray vehicle edge 2.6-3.4 s after
  the motion, outside every acceptance window;
* kernel-ring captures carry unrelated dmesg lines between the events.

With the default 500 ms debounce and [0, 2 s] window this spacing leaves
exactly one pairing: the first operator edge of each motion with the first
vehicle edge of the same motion.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from m2mlat import events, pairing, report, stats
from tables import csv_column

MS = 1_000_000
# (format, trials) of the captures in one round; the sizes are fixed so
# that every seed does the same amount of work.
CAPTURES = (("csv", 4000), ("kernelring", 4000), ("csv", 4000), ("kernelring", 4000))
RESPONSE_PROB = 0.97
STRAY_PROB = 0.05
DMESG_PROB = 0.15
_DMESG = (
    "usb 1-1.2: new full-speed USB device number 5 using xhci_hcd",
    "brcmfmac: brcmf_cfg80211_set_power_mgmt: power save enabled",
    "IPv6: ADDRCONF(NETDEV_CHANGE): wlan0: link becomes ready",
    "EXT4-fs (mmcblk0p2): re-mounted. Quota mode: none.",
    "hwmon hwmon1: Undervoltage detected!",
)


@dataclasses.dataclass
class Capture:
    fmt: events.LogFormat
    op_raw: bytes
    veh_raw: bytes
    trials: int
    lines_read: int
    # Expected outcome, derived from the generator alone.
    m2m_ns: np.ndarray
    suppressed_op: int
    suppressed_veh: int
    unmatched_op: int
    unmatched_veh: int
    skipped: int


def _bursts(rng, firsts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2-4 edges per motion, the rest within 80 ms of the first: (times, counts)."""
    n = len(firsts)
    extra = np.sort(rng.integers(MS, 80 * MS, (n, 3)), axis=1)
    times = np.concatenate([firsts[:, None], firsts[:, None] + extra], axis=1)
    keep = np.arange(4) <= rng.integers(1, 4, n)[:, None]
    return times[keep], keep.sum(axis=1)


def make_capture(rng: np.random.Generator, fmt: str, trials: int) -> Capture:
    start = 1_700_000_000 * 10**9 + int(rng.integers(0, 10**15))
    op_first = start + 5_000 * MS * np.arange(trials) + rng.integers(0, 300 * MS, trials)
    respond = rng.random(trials) < RESPONSE_PROB
    latency = np.clip(
        np.rint(np.exp(np.log(800 * MS) + 0.2 * rng.standard_normal(trials))),
        100 * MS,
        1_800 * MS,
    ).astype(np.int64)
    stray = rng.random(trials) < STRAY_PROB
    stray_t = op_first + rng.integers(2_600 * MS, 3_400 * MS, trials)

    op_t, _ = _bursts(rng, op_first)
    veh_burst_t, veh_edges = _bursts(rng, (op_first + latency)[respond])
    veh_t = np.sort(np.concatenate([veh_burst_t, stray_t[stray]]))

    log_fmt = events.LogFormat(fmt)
    op_text, op_skipped = _render(rng, log_fmt, "op-station", op_t)
    veh_text, veh_skipped = _render(rng, log_fmt, "vehicle-07", veh_t)
    return Capture(
        fmt=log_fmt,
        op_raw=op_text.encode(),
        veh_raw=veh_text.encode(),
        trials=trials,
        lines_read=op_text.count("\n") + veh_text.count("\n"),
        m2m_ns=latency[respond],
        suppressed_op=len(op_t) - trials,
        suppressed_veh=int(veh_edges.sum()) - len(veh_edges),
        unmatched_op=int(trials - respond.sum()),
        unmatched_veh=int(stray.sum()),
        skipped=op_skipped + veh_skipped,
    )


def _render(rng, fmt: events.LogFormat, node: str, t_ns: np.ndarray) -> tuple[str, int]:
    """Log text plus the number of lines a lenient parser must skip."""
    seqs = int(rng.integers(0, 10**6)) + np.cumsum(rng.integers(1, 3, len(t_ns)))
    if fmt is events.LogFormat.CSV:
        rows = [f"{node},{s},{t}" for s, t in zip(seqs.tolist(), t_ns.tolist())]
        return "node,seq,t_wall_ns\n" + "\n".join(rows) + "\n", 0
    noise = rng.random(len(t_ns)) < DMESG_PROB
    picks = rng.integers(0, len(_DMESG), len(t_ns))
    uptime = (t_ns - t_ns[0]) / 1e9 + 12.5
    lines = []
    for s, t, up, extra, pick in zip(seqs.tolist(), t_ns.tolist(), uptime.tolist(), noise, picks):
        lines.append(f"[{up:12.6f}] m2m_irq: seq={s} ts={t} src=hall")
        if extra:
            lines.append(f"[{up + 0.000731:12.6f}] {_DMESG[pick]}")
    return "\n".join(lines) + "\n", int(noise.sum())


def _read_log(raw: bytes, fmt: events.LogFormat, role: events.Role, tracer):
    """``m2mlat analyze``'s log reader: lenient parse, then the flag's role."""
    node = events.NodeId(role.value, role) if fmt is events.LogFormat.KERNEL_RING else None
    with tracer.span("events.parse_log"):
        log = events.parse_log(raw, fmt, node=node, lenient=True)
    with tracer.span("events.with_role"):
        return events.with_role(log, role)


def _skipped(*logs) -> int:
    return sum(int(log.meta.get("parse_skipped", 0)) for log in logs)


def _lines_read(fmt: events.LogFormat, *logs) -> int:
    """Lines the parser went through: events, skipped lines and any CSV header."""
    header = 1 if fmt is events.LogFormat.CSV else 0
    return sum(len(log) + header for log in logs) + _skipped(*logs)


class Workload:
    name = "analyze_field"
    spawns = False

    def __init__(self, seed: int, workdir, tracer):
        rng = np.random.default_rng([seed, 1])
        self.captures = [make_capture(rng, fmt, n) for fmt, n in CAPTURES]
        self.tracer = tracer

    def trace_wraps(self) -> None:
        self.tracer.wrap(pairing, "debounce", "pairing.debounce")
        self.tracer.wrap(report, "summarize", "stats.summarize")
        self.tracer.wrap(report, "boxplot_data", "stats.boxplot_data")

    def ops(self, round_index: int):
        return [_Op(c, self.tracer) for c in self.captures]

    def trace_extras(self, ops) -> dict[str, float]:
        return {}


class _Op:
    def __init__(self, capture: Capture, tracer):
        self.capture = capture
        self.tracer = tracer
        self.name = f"analyze_{capture.fmt.value}"
        self.trials = capture.trials

    def run(self):
        c, tr = self.capture, self.tracer
        op_log = _read_log(c.op_raw, c.fmt, events.Role.OPERATOR, tr)
        veh_log = _read_log(c.veh_raw, c.fmt, events.Role.VEHICLE, tr)
        with tr.span("pairing.pair_events"):
            pairs = pairing.pair_events(op_log, veh_log, pairing.PairingConfig())
        with tr.span("report.build_report"):
            rep = report.build_report(
                "field",
                pairs.m2m_values,
                report.make_provenance(None, report.input_digest(c.op_raw, c.veh_raw)),
                report.DEFAULT_THRESHOLDS_NS,
                pairs,
            )
        with tr.span("report.render_text"):
            text = report.render_text(rep)
        with tr.span("report.csv"):
            csvs = (
                pairs.to_csv(),
                pairs.meta_text(),
                stats.stats_csv(rep.stats),
                stats.boxplot_csv(rep.boxplot),
            )
        return op_log, veh_log, pairs, text, csvs

    def trace_probe(self, result) -> None:
        op_log, veh_log, pairs, _, _ = result
        matched = len(pairs.samples)
        tr = self.tracer
        tr.count("events.lines_read", _lines_read(self.capture.fmt, op_log, veh_log))
        tr.count("events.lines_skipped", _skipped(op_log, veh_log))
        tr.count("pairing.matched", matched)
        tr.count("pairing.suppressed", pairs.suppressed_op + pairs.suppressed_veh)
        tr.count("pairing.unmatched_op", pairs.unmatched_op)
        tr.count("pairing.unmatched_veh", pairs.unmatched_veh)
        # Every debounced operator event is either matched or unmatched.
        tr.count("pairing.match_ratio", matched / (matched + pairs.unmatched_op))

    def check(self, result) -> None:
        op_log, veh_log, pairs, text, csvs = result
        c = self.capture
        expect = {
            "skipped lines": (_skipped(op_log, veh_log), c.skipped),
            "lines read": (_lines_read(c.fmt, op_log, veh_log), c.lines_read),
            "suppressed_op": (pairs.suppressed_op, c.suppressed_op),
            "suppressed_veh": (pairs.suppressed_veh, c.suppressed_veh),
            "unmatched_op": (pairs.unmatched_op, c.unmatched_op),
            "unmatched_veh": (pairs.unmatched_veh, c.unmatched_veh),
            "pairs": (len(pairs.samples), len(c.m2m_ns)),
            "pairs.csv rows": (csvs[0].count("\n") - 1, len(c.m2m_ns)),
        }
        for what, (got, want) in expect.items():
            if got != want:
                raise AssertionError(f"{self.name}: {what} {got} != {want}")
        if not np.array_equal(csv_column(csvs[0], "m2m_ns", int), c.m2m_ns):
            raise AssertionError(f"{self.name}: m2m_ns differ from the generated latencies")
        q1, med, q3 = np.quantile(c.m2m_ns, [0.25, 0.5, 0.75])
        for what, got, want in (
            ("median", csv_column(csvs[2], "median_ns", float)[0], med),
            ("iqr", csv_column(csvs[2], "iqr_ns", float)[0], q3 - q1),
        ):
            if abs(got - want) > 1e-6 * max(1.0, abs(want)):
                raise AssertionError(f"{self.name}: {what} {got} != {want}")
        if f"samples: {len(c.m2m_ns)}\n" not in text:
            raise AssertionError(f"{self.name}: report text misses the sample count")
