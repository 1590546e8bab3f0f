"""Report assembly: summary statistics, box-plot data, and provenance.

Every report carries provenance (tool version, seed, config digest) so a
number in a results table can always be traced back to the run that
produced it. ``render_text`` writes it as ``name: value`` lines, naming its
figures by the columns of the machine-readable CSVs of ``stats``.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Sequence

from . import __version__
from .record import Record
from .stats import (BOXPLOT_COLUMNS, STATS_COLUMNS, BoxplotData, SummaryStats, boxplot_data,
                    ms_fields, sorted_samples, summarize)
from .tables import write_fields

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
    """A title, then ``name: value`` blocks split by blank lines: label and
    provenance; the stats of ``stats.stats_csv`` in ms; the box plot of
    ``stats.boxplot_csv``; and a paired run's ``PairingReport.counts``."""
    s, bp = report.stats, report.boxplot
    blocks = [
        (("label", report.label), *vars(report.provenance).items()),
        (("samples", s.n), *ms_fields(s, STATS_COLUMNS[1:]),
         *((f"frac_over_{_exact_ms(t)}ms", f"{s.frac_over[t]:.4f}") for t in sorted(s.frac_over))),
        (*ms_fields(bp, BOXPLOT_COLUMNS, "boxplot_"), ("boxplot_outliers", len(bp.outliers_ns))),
    ]
    if report.pairing is not None:
        blocks.append(report.pairing.counts)
    return "# m2m latency report\n" + "\n".join(write_fields(block, ": ") for block in blocks)
