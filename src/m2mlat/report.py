"""Report assembly: summary statistics, box-plot data, and provenance.

Every report carries provenance (tool version, seed, config digest) so a
number in a results table can always be traced back to the run that
produced it. Rendering is one human-readable key-value text block; the
machine-readable surfaces are the CSV helpers here and in ``stats``.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Sequence

from . import __version__
from .record import Record
from .stats import BoxplotData, SummaryStats, boxplot_data, sorted_samples, summarize

if TYPE_CHECKING:  # annotations only: importing pairing would load the log parser
    from .pairing import PairingReport

DEFAULT_THRESHOLDS_NS = (1_000_000_000,)


class Provenance(Record):
    tool_version: str
    seed: str
    config_hash: str


def input_digest(*blobs: bytes) -> str:
    """Digest of raw input files, used as the config hash for analyses of
    externally captured logs."""
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()[:12]


def make_provenance(seed: int | str | None, config_hash: str) -> Provenance:
    return Provenance(
        tool_version=__version__,
        seed="n/a" if seed is None else str(seed),
        config_hash=config_hash,
    )


class Report(Record):
    label: str
    stats: SummaryStats
    boxplot: BoxplotData
    provenance: Provenance
    pairing: PairingReport | None = None


def build_report(
    label: str,
    samples_ns,
    provenance: Provenance,
    thresholds_ns: Sequence[int] = DEFAULT_THRESHOLDS_NS,
    pairing: PairingReport | None = None,
) -> Report:
    """Stats and box plot of one sample set, sorted once for both: a list
    or tuple of ints within int64, reduced without numpy, or an int64
    array or anything ``np.asarray`` takes as one (see ``m2mlat.stats``;
    the two give the same bits)."""
    ordered = sorted_samples(samples_ns)
    return Report(
        label=label,
        stats=summarize(ordered, thresholds_ns),
        boxplot=boxplot_data(ordered),
        provenance=provenance,
        pairing=pairing,
    )


def _exact_ms(ns: int) -> str:
    """``ns`` in ms, exact: no exponent, trailing zeros dropped."""
    whole, frac = divmod(abs(ns), 1_000_000)
    text = f"{'-' if ns < 0 else ''}{whole}"
    return f"{text}.{frac:06d}".rstrip("0") if frac else text


def render_text(report: Report) -> str:
    s = report.stats
    bp = report.boxplot
    lines = [
        "# m2m latency report",
        f"label: {report.label}",
        f"tool_version: {report.provenance.tool_version}",
        f"seed: {report.provenance.seed}",
        f"config_hash: {report.provenance.config_hash}",
        "",
        f"samples: {s.n}",
        f"min_ms: {s.min_ns / 1e6:.6f}",
        f"max_ms: {s.max_ns / 1e6:.6f}",
        f"mean_ms: {s.mean_ns / 1e6:.6f}",
        f"std_ms: {s.std_ns / 1e6:.6f}",
        f"median_ms: {s.median_ns / 1e6:.6f}",
        f"q1_ms: {s.q1_ns / 1e6:.6f}",
        f"q3_ms: {s.q3_ns / 1e6:.6f}",
        f"iqr_ms: {s.iqr_ns / 1e6:.6f}",
    ]
    for t in sorted(s.frac_over):
        lines.append(f"frac_over_{_exact_ms(t)}ms: {s.frac_over[t]:.4f}")
    lines += [
        "",
        f"boxplot_q1_ms: {bp.q1_ns / 1e6:.6f}",
        f"boxplot_median_ms: {bp.median_ns / 1e6:.6f}",
        f"boxplot_q3_ms: {bp.q3_ns / 1e6:.6f}",
        f"boxplot_whisker_lo_ms: {bp.whisker_lo_ns / 1e6:.6f}",
        f"boxplot_whisker_hi_ms: {bp.whisker_hi_ns / 1e6:.6f}",
        f"boxplot_outliers: {len(bp.outliers_ns)}",
    ]
    if report.pairing is not None:
        p = report.pairing
        lines += [
            "",
            f"unmatched_op: {p.unmatched_op}",
            f"unmatched_veh: {p.unmatched_veh}",
            f"suppressed_op: {p.suppressed_op}",
            f"suppressed_veh: {p.suppressed_veh}",
        ]
    return "\n".join(lines) + "\n"
