"""Motion-to-motion latency measurement, simulation, and reporting toolkit."""

__version__ = "0.1.0"

from .budget import CalibModel, ErrorBudget, calib_error, total_error
from .clocks import (
    ClockModel,
    OffsetSeries,
    SyncMode,
    clock_errors,
    kernel_asymmetry,
    precision_analysis,
    preset_models,
    probe_offset,
    sample_clock_error,
)
from .dists import (
    ConstantDelay,
    DelayDist,
    DistKind,
    EmpiricalDelay,
    GammaDelay,
    LogNormalDelay,
    fit_delay_dist,
)
from .events import (
    EventLog,
    EventSource,
    LogFormat,
    NodeId,
    Role,
    parse_log,
    write_log,
)
from .pairing import (
    PairingConfig,
    PairingReport,
    compute_m2m,
    debounce,
    pair_events,
)
from .report import Report, build_report, render_text
from .sim import (
    GroundTruth,
    ScenarioConfig,
    parse_config,
    preset,
    render_config,
    simulate,
    simulate_shared_pulse_run,
)
from .stats import BoxplotData, SummaryStats, boxplot_data, summarize

__all__ = [
    "__version__",
    "BoxplotData",
    "CalibModel",
    "ClockModel",
    "ConstantDelay",
    "DelayDist",
    "DistKind",
    "EmpiricalDelay",
    "ErrorBudget",
    "EventLog",
    "EventSource",
    "GammaDelay",
    "GroundTruth",
    "LogFormat",
    "LogNormalDelay",
    "NodeId",
    "OffsetSeries",
    "PairingConfig",
    "PairingReport",
    "Report",
    "Role",
    "ScenarioConfig",
    "SummaryStats",
    "SyncMode",
    "boxplot_data",
    "build_report",
    "calib_error",
    "clock_errors",
    "compute_m2m",
    "debounce",
    "fit_delay_dist",
    "kernel_asymmetry",
    "pair_events",
    "parse_config",
    "parse_log",
    "precision_analysis",
    "preset",
    "preset_models",
    "probe_offset",
    "render_config",
    "render_text",
    "sample_clock_error",
    "simulate",
    "simulate_shared_pulse_run",
    "summarize",
    "total_error",
    "write_log",
]
