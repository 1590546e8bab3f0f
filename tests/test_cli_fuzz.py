"""Fuzz every file input of the CLI: exit 0, 1 or 2, ``error:`` on stderr, no traceback.

Each input is fed either arbitrary bytes or a valid file with a few bytes
inserted that the formats give a meaning to, or that are easy to get
wrong: ``%`` (config interpolation), the separators, signs, ``_``, a byte
that is not UTF-8, digits and line breaks.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from m2mlat.cli import run_cli
from m2mlat.clocks import ClockModel
from m2mlat.dists import EmpiricalDelay
from m2mlat.record import replace
from m2mlat.sim import preset, render_config

MS = 1_000_000
S = 1_000 * MS
FUZZ = "fuzzed"

_OP_T = [(i + 1) * 5 * S for i in range(6)]
_VEH_T = [t + 800 * MS + i * MS for i, t in enumerate(_OP_T)]


def _csv_log(node, times):
    return "node,seq,t_wall_ns\n" + "".join(f"{node},{i},{t}\n" for i, t in enumerate(times))


def _ring_log(times):
    return "".join(
        f"[{t // 1000:>12}] m2m_irq: seq={i} ts={t} src=hall\n" for i, t in enumerate(times)
    )


# Clock and empirical sections too, so that insertions reach every parser of the format.
_CONFIG = render_config(replace(
    preset("dyn_coref"),
    l_exec=EmpiricalDelay((10 * MS, 11 * MS, 12 * MS)),
    clock_models=(ClockModel(), ClockModel(jitter_std_ns=1000.0, spike_max_ns=5000)),
))

VALID = {
    "operator.csv": _csv_log("operator", _OP_T),
    "vehicle.csv": _csv_log("vehicle", _VEH_T),
    "operator.ring": _ring_log(_OP_T),
    "vehicle.ring": _ring_log(_VEH_T),
    "samples.csv": "m2m_ns\n" + "".join(f"{t - o}\n" for o, t in zip(_OP_T, _VEH_T)),
    "sched.csv": "latency_ns\n5000\n7000\n6500\n",
    "config.ini": _CONFIG,
}

# (valid file the fuzzed one replaces, argv with FUZZ for the fuzzed file)
TARGETS = {
    "analyze --operator": (
        "operator.csv", ["analyze", "--operator", FUZZ, "--vehicle", "vehicle.csv"]),
    "analyze --vehicle": (
        "vehicle.csv", ["analyze", "--operator", "operator.csv", "--vehicle", FUZZ]),
    "analyze --operator kernelring": ("operator.ring", [
        "analyze", "--format", "kernelring", "--operator", FUZZ, "--vehicle", "vehicle.ring"]),
    "analyze --vehicle kernelring": ("vehicle.ring", [
        "analyze", "--format", "kernelring", "--operator", "operator.ring", "--vehicle", FUZZ]),
    "precision --node-a": (
        "operator.csv", ["precision", "--node-a", FUZZ, "--node-b", "vehicle.csv"]),
    "report --samples": ("samples.csv", ["report", "--samples", FUZZ]),
    "budget --sched-a": ("sched.csv", [
        "budget", "--sync-ms", "0.3", "--sched-a", FUZZ, "--sched-b", "sched.csv",
        "--calib-angle-deg", "1", "--steer-rate-dps", "100"]),
    # --trials keeps a fuzzed trial count from sizing the arrays
    "simulate --config": (
        "config.ini", ["simulate", "--config", FUZZ, "--trials", "3", "--out", "sim"]),
}

_INSERTABLE = st.sampled_from([bytes([b]) for b in b"%,-+_\xff0123456789\n"])
# ("bytes", b): the file is b; ("insert", [(i, b), ...]): the valid file with
# each b inserted at i modulo its length plus one, in turn.
_CONTENT = st.one_of(
    st.tuples(st.just("bytes"), st.binary(max_size=300)),
    st.tuples(st.just("insert"), st.lists(
        st.tuples(st.integers(0, 10_000), _INSERTABLE), min_size=1, max_size=4)),
)


def _build(valid: bytes, content) -> bytes:
    kind, value = content
    if kind == "bytes":
        return value
    data = bytearray(valid)
    for i, b in value:
        i %= len(data) + 1
        data[i:i] = b
    return bytes(data)


def _run(tmp_path, target: str, fuzzed: bytes) -> int:
    """Write the valid files and the fuzzed one into tmp_path, then run the target."""
    valid, argv = TARGETS[target]
    for name, text in VALID.items():
        (tmp_path / name).write_text(text)
    (tmp_path / FUZZ).write_bytes(fuzzed)
    return run_cli([str(tmp_path / a) if a in (*VALID, FUZZ, "sim") else a for a in argv])


@pytest.mark.parametrize("target", TARGETS)
def test_valid_inputs_pass(target, tmp_path, capsys):
    code = _run(tmp_path, target, VALID[TARGETS[target][0]].encode())
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("target", TARGETS)
@given(content=_CONTENT)
@example(content=("bytes", _CONFIG.replace("label = dyn_coref", "label = 5% wifi").encode()))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_file_inputs_never_escape(target, content, tmp_path, capsys):
    code = _run(tmp_path, target, _build(VALID[TARGETS[target][0]].encode(), content))
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error:")
