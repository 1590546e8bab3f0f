"""Two-node event-log generator with per-trial ground truth.

Each trial models one steering command: the operator-side event fires at
the trial's true start time, and the vehicle-side event fires after the
sum of four delay components (command generation, network transport,
command execution, actuator follow-through), plus a friction surcharge
when the vehicle is stationary. Both recorded timestamps additionally
carry their node's clock error, so a downstream analysis sees exactly
what a field capture would: truth plus synchronization error. Ground
truth is one int64 array per ``TRUTH_COLUMNS`` name. The shared-pulse
precision run is the same generator with every delay component zero.

Four scenario presets are calibrated so that the full
simulate / pair / summarize pipeline reproduces the aggregate latency
statistics of the matching field scenarios (medians 874.5 / 930.6 /
767.8 / 815.2 ms). The component split behind those totals is a modeling
choice, surfaced in the echoed config rather than claimed as measured:
generation and execution are 10 ms constants, the network carries a
small log-normal share, the actuator dominates, and stationary scenarios
add a constant 162.8 ms friction term (the observed static-minus-dynamic
median gap).
"""

from __future__ import annotations

import configparser
import hashlib
import io
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .clocks import (
    CLOCK_STREAM,
    NS_PER_S,
    OPERATOR_SALT,
    VEHICLE_SALT,
    ClockModel,
    SyncMode,
    clock_errors,
    preset_models,
)
from .dists import (
    ConstantDelay,
    DelayDist,
    DistKind,
    EmpiricalDelay,
    fit_delay_dist,
)
from .errors import ConfigInvalid, OverlappingTrials, UnknownPreset
from .events import EventLog, EventSource, NodeId, Role
from .tables import read_int_columns, table_lines, write_table

MS_NS = 1_000_000

_COMPONENTS = ("l_gen", "l_network", "l_exec", "l_follow", "friction_extra")


@dataclass(frozen=True)
class ScenarioConfig:
    l_gen: DelayDist
    l_network: DelayDist
    l_exec: DelayDist
    l_follow: DelayDist
    friction_extra: DelayDist
    stationary: bool
    sync_mode: SyncMode
    trial_interval_s: float
    trials: int
    seed: int
    start_ns: int = NS_PER_S
    clock_models: tuple[ClockModel, ClockModel] | None = None
    label: str = ""

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigInvalid("trials must be >= 1")
        if not self.trial_interval_s > 0:  # nan too
            raise ConfigInvalid("trial_interval_s must be > 0")
        if self.start_ns <= 0:
            raise ConfigInvalid("start_ns must be > 0")
        if self.start_ns + self.trial_interval_s * NS_PER_S * self.trials >= 2**63:
            raise ConfigInvalid("trial times must fit in int64 nanoseconds")
        if self.seed < 0:
            raise ConfigInvalid("seed must be >= 0")

    def effective_clock_models(self) -> tuple[ClockModel, ClockModel]:
        """(operator, vehicle) models: explicit pair or the sync-mode preset."""
        if self.clock_models is not None:
            return self.clock_models
        return preset_models(self.sync_mode)


ZERO_CLOCKS = (ClockModel(), ClockModel())


TRUTH_COLUMNS = (
    "trial", "true_op_time_ns", "l_gen_ns", "l_network_ns", "l_exec_ns", "l_follow_ns",
    "friction_ns", "true_total_ns", "clock_err_op_ns", "clock_err_veh_ns",
    "recorded_op_ns", "recorded_veh_ns",
)


class GroundTruth:
    """Per-trial ground truth: one int64 array per name in TRUTH_COLUMNS.

    Construction checks closure on every trial: the total is the sum of
    the components, and each recorded timestamp is its true time plus
    that node's clock error. The error names the first trial that fails.
    """

    def __init__(self, columns: dict[str, np.ndarray]):
        if set(columns) != set(TRUTH_COLUMNS) or len(set(map(len, columns.values()))) > 1:
            raise ConfigInvalid(f"ground truth needs equal-length columns {TRUTH_COLUMNS}")
        self.columns = {k: np.asarray(columns[k], dtype=np.int64) for k in TRUTH_COLUMNS}
        trial, t_op, *parts, total, err_op, err_veh, rec_op, rec_veh = self.columns.values()
        bad = np.array([
            total != sum(parts),
            rec_op - err_op != t_op,
            rec_veh - err_veh != t_op + total,
        ])
        if bad.any():
            i = int(bad.any(axis=0).argmax())
            reason = ("total does not match components", "operator recording inconsistent",
                      "vehicle recording inconsistent")[int(bad[:, i].argmax())]
            raise ConfigInvalid(f"trial {int(trial[i])}: {reason}")

    def __len__(self) -> int:
        return len(self.columns["trial"])

    def __eq__(self, other) -> bool:
        return isinstance(other, GroundTruth) and all(
            np.array_equal(self.columns[k], other.columns[k]) for k in TRUTH_COLUMNS
        )

    def to_csv(self) -> str:
        return write_table(TRUTH_COLUMNS, list(self.columns.values()))

    @classmethod
    def from_csv(cls, text: str) -> "GroundTruth":
        """Ground truth of a truth CSV, whose header is exactly TRUTH_COLUMNS."""
        lines = table_lines(text)
        if not lines or [c.strip() for c in lines[0][1].split(",")] != list(TRUTH_COLUMNS):
            raise ConfigInvalid("bad ground-truth header")
        columns = read_int_columns(text, TRUTH_COLUMNS, "ground truth")
        return cls(dict(zip(TRUTH_COLUMNS, columns)))


def simulate(cfg: ScenarioConfig) -> tuple[EventLog, EventLog, GroundTruth]:
    """Generate (operator log, vehicle log, ground truth) for one scenario.

    Deterministic: the same config and seed produce bit-identical output.
    Warns with OverlappingTrials when a drawn total exceeds the trial
    interval (the logs are still valid; events are sorted and renumbered).
    """
    n = cfg.trials
    rng = np.random.default_rng(cfg.seed)

    def draw(name: str) -> np.ndarray:
        try:
            return getattr(cfg, name).sample(rng, n)
        except ConfigInvalid as err:
            raise ConfigInvalid(f"[{name}] {err}") from None

    l_gen, l_network, l_exec, l_follow = map(draw, _COMPONENTS[:4])
    friction = draw("friction_extra") if cfg.stationary else np.zeros(n, dtype=np.int64)
    interval_ns = int(round(cfg.trial_interval_s * NS_PER_S))
    parts = (l_gen, l_network, l_exec, l_follow, friction)
    # Bounds every vehicle time in exact ints, before int64 sums that would wrap silently.
    if cfg.start_ns + interval_ns * (n - 1) + sum(int(p.max()) for p in parts) >= 2**63:
        raise ConfigInvalid("trial delay totals and vehicle times must fit in int64 ns")
    totals = sum(parts)

    if int(totals.max()) >= interval_ns:
        warnings.warn(
            f"largest trial delay {int(totals.max())} ns reaches the "
            f"{interval_ns} ns trial interval; trials overlap",
            OverlappingTrials,
        )

    op_model, veh_model = cfg.effective_clock_models()
    op_true = cfg.start_ns + interval_ns * np.arange(n, dtype=np.int64)
    veh_true = op_true + totals
    err_op = clock_errors(op_model, op_true, cfg.seed, OPERATOR_SALT)
    err_veh = clock_errors(veh_model, veh_true, cfg.seed, VEHICLE_SALT)
    op_rec, veh_rec = op_true + err_op, veh_true + err_veh
    truth = GroundTruth(dict(zip(TRUTH_COLUMNS, (
        np.arange(n, dtype=np.int64), op_true, l_gen, l_network, l_exec, l_follow,
        friction, totals, err_op, err_veh, op_rec, veh_rec,
    ))))
    op_log = _build_log(NodeId("operator", Role.OPERATOR), op_rec)
    veh_log = _build_log(NodeId("vehicle", Role.VEHICLE), veh_rec)
    return op_log, veh_log, truth


def simulate_shared_pulse_run(
    mode: SyncMode, pulses: int, period_ns: int, seed: int
) -> tuple[EventLog, EventLog]:
    """Two-node logs of one shared electrical pulse train.

    A scenario whose delay components are all zero, one trial per pulse:
    every offset between the two logs is clock error. The period must
    exceed the worst clock excursion, or the renumbered logs no longer
    share one sequence number per pulse.
    """
    zero = ConstantDelay(0)
    cfg = ScenarioConfig(zero, zero, zero, zero, zero, stationary=False, sync_mode=mode,
                         trial_interval_s=period_ns / NS_PER_S, trials=pulses, seed=seed)
    return simulate(cfg)[:2]


def _build_log(node: NodeId, recorded: np.ndarray) -> EventLog:
    synthetic = np.full(len(recorded), tuple(EventSource).index(EventSource.SYNTHETIC))
    return EventLog(node, np.arange(len(recorded)), np.sort(recorded), source=synthetic)


# Preset calibration: component medians/IQRs (ms) per scenario. The
# actuator follow-through values were fitted numerically so the pipeline
# totals land on each scenario's target median and IQR; see the
# regression tests that pin them.
_FRICTION_MS = 162.8

_PRESET_TABLE = {
    "static_wifi": {
        "network": (20.0, 15.0),
        "follow": (668.22, 196.07),
        "stationary": True,
        "sync": SyncMode.CO_REFERENCED,
        "seed": 3,
    },
    "static_5g": {
        "network": (45.0, 8.0),
        "follow": (702.27, 104.17),
        "stationary": True,
        "sync": SyncMode.CO_REFERENCED,
        "seed": 3,
    },
    "dyn_coref": {
        "network": (45.0, 8.0),
        "follow": (702.27, 140.79),
        "stationary": False,
        "sync": SyncMode.CO_REFERENCED,
        "seed": 3,
    },
    "dyn_auto": {
        "network": (45.0, 8.0),
        "follow": (749.67, 144.92),
        "stationary": False,
        "sync": SyncMode.AUTONOMOUS,
        "seed": 3,
    },
}

PRESET_NAMES = tuple(_PRESET_TABLE)


def preset(name: str) -> ScenarioConfig:
    """Scenario config for one of the four calibrated field scenarios."""
    try:
        row = _PRESET_TABLE[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        )
    net_median, net_iqr = row["network"]
    follow_median, follow_iqr = row["follow"]
    return ScenarioConfig(
        l_gen=ConstantDelay(10 * MS_NS),
        l_network=fit_delay_dist(
            DistKind.LOGNORMAL, net_median * MS_NS, net_iqr * MS_NS
        ),
        l_exec=ConstantDelay(10 * MS_NS),
        l_follow=fit_delay_dist(
            DistKind.LOGNORMAL, follow_median * MS_NS, follow_iqr * MS_NS
        ),
        friction_extra=(
            ConstantDelay(int(round(_FRICTION_MS * MS_NS)))
            if row["stationary"]
            else ConstantDelay(0)
        ),
        stationary=row["stationary"],
        sync_mode=row["sync"],
        trial_interval_s=5.0,
        trials=1000,
        seed=row["seed"],
        label=name,
    )


# --- flat key-value config file (INI) -----------------------------------

def render_config(cfg: ScenarioConfig) -> str:
    """Serialize a scenario to the flat INI config format."""
    cp = configparser.ConfigParser(interpolation=None)
    cp["scenario"] = {
        "label": cfg.label,
        "stationary": str(cfg.stationary).lower(),
        "sync_mode": cfg.sync_mode.value,
        "trial_interval_s": repr(cfg.trial_interval_s),
        "trials": str(cfg.trials),
        "seed": str(cfg.seed),
        "start_ns": str(cfg.start_ns),
        "clock_stream": CLOCK_STREAM,
    }
    for name in _COMPONENTS:
        dist: DelayDist = getattr(cfg, name)
        section: dict[str, str] = {"kind": dist.kind.value}
        if isinstance(dist, EmpiricalDelay):
            section["samples_ms"] = ",".join(
                repr(v / MS_NS) for v in dist.values_ns
            )
        else:
            section["median_ms"] = repr(dist.median_ns() / MS_NS)
            section["iqr_ms"] = repr(dist.iqr_ns() / MS_NS)
        cp[name] = section
    if cfg.clock_models is not None:
        for section, model in zip(("clock_op", "clock_veh"), cfg.clock_models):
            cp[section] = {f: repr(v) for f, v in vars(model).items()}
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


def parse_config(text: str) -> ScenarioConfig:
    """Parse the flat INI config format back into a scenario.

    A value that does not convert to its field's type, or that its field
    refuses, raises ConfigInvalid.
    """
    cp = configparser.ConfigParser(interpolation=None)  # the format has no interpolation
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigInvalid(f"bad config file: {err}")
    for name in ("scenario", *_COMPONENTS):
        if name not in cp:
            raise ConfigInvalid(f"config is missing the [{name}] section")
    sc = cp["scenario"]
    if sc.get("clock_stream", CLOCK_STREAM) != CLOCK_STREAM:
        raise ConfigInvalid(
            f"clock_stream {sc.get('clock_stream')!r} is not this version's {CLOCK_STREAM!r}"
        )
    if ("clock_op" in cp) != ("clock_veh" in cp):
        raise ConfigInvalid("clock overrides need both [clock_op] and [clock_veh]")

    try:  # int() refuses nan with ValueError, and infinities with OverflowError
        return ScenarioConfig(
            **{name: _parse_dist(cp[name], name) for name in _COMPONENTS},
            stationary=sc.getboolean("stationary", False),
            sync_mode=SyncMode(sc.get("sync_mode", SyncMode.CO_REFERENCED.value)),
            trial_interval_s=sc.getfloat("trial_interval_s", 5.0),
            trials=sc.getint("trials", 100),
            seed=sc.getint("seed", 0),
            start_ns=sc.getint("start_ns", NS_PER_S),
            clock_models=(
                (_parse_clock(cp["clock_op"]), _parse_clock(cp["clock_veh"]))
                if "clock_op" in cp else None
            ),
            label=sc.get("label", ""),
        )
    except (ValueError, OverflowError) as err:
        raise ConfigInvalid(f"bad config value: {err}")


def _parse_dist(section, name: str) -> DelayDist:
    kind = DistKind(section.get("kind", "constant"))
    if kind is DistKind.EMPIRICAL:
        raw = section.get("samples_ms", "")
        if not raw.strip():
            raise ConfigInvalid(f"[{name}] empirical kind requires samples_ms")
        values = tuple(
            int(round(float(v) * MS_NS)) for v in raw.split(",") if v.strip()
        )
        return EmpiricalDelay(values)
    median_ms = section.getfloat("median_ms")
    iqr_ms = section.getfloat("iqr_ms", 0.0)
    if median_ms is None:
        raise ConfigInvalid(f"[{name}] requires median_ms")
    if kind is DistKind.CONSTANT:
        if iqr_ms:
            raise ConfigInvalid(f"[{name}] constant kind cannot carry iqr_ms")
        return ConstantDelay(int(round(median_ms * MS_NS)))
    return fit_delay_dist(kind, median_ms * MS_NS, iqr_ms * MS_NS)


def _parse_clock(section) -> ClockModel:
    """ClockModel of a [clock_*] section; each field converts to the type of its default."""
    fields = vars(ClockModel()).items()
    return ClockModel(**{f: type(v)(section.getfloat(f)) for f, v in fields if f in section})


def config_hash(cfg: ScenarioConfig) -> str:
    """Short stable digest of the serialized config, for provenance."""
    return hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()[:12]


def with_overrides(
    cfg: ScenarioConfig, *, trials: int | None = None, seed: int | None = None
) -> ScenarioConfig:
    """Config with CLI-level overrides applied."""
    updates = {}
    if trials is not None:
        updates["trials"] = trials
    if seed is not None:
        updates["seed"] = seed
    return replace(cfg, **updates) if updates else cfg
