from __future__ import annotations

from functools import partial

import hashlib
import math

import numpy as np
import pytest

from m2mlat.clocks import CLOCK_STREAM, ClockModel, SyncMode, preset_models
from m2mlat.dists import ConstantDelay, DistKind, EmpiricalDelay, LogNormalDelay, fit_delay_dist
from m2mlat.errors import ConfigInvalid, OverlappingTrials, UnknownPreset
from m2mlat.clocks import precision_analysis
from m2mlat.events import EventSource, Role, write_log
from m2mlat.pairing import PairingConfig, pair_events
from m2mlat.record import replace
from m2mlat.sim import (
    TRUTH_COLUMNS,
    ZERO_CLOCKS,
    PRESET_NAMES,
    GroundTruth,
    ScenarioConfig,
    config_hash,
    parse_config,
    preset,
    render_config,
    simulate,
    simulate_shared_pulse_run,
    with_overrides,
)
from m2mlat.stats import summarize

from helpers import oracle_render_config

MS = 1_000_000
S = 1_000_000_000


def constant_config(gen=0, net=0, execd=0, follow=0, **kwargs) -> ScenarioConfig:
    defaults = dict(
        l_gen=ConstantDelay(gen),
        l_network=ConstantDelay(net),
        l_exec=ConstantDelay(execd),
        l_follow=ConstantDelay(follow),
        friction_extra=ConstantDelay(0),
        stationary=False,
        sync_mode=SyncMode.CO_REFERENCED,
        trial_interval_s=5.0,
        trials=50,
        seed=1,
        clock_models=ZERO_CLOCKS,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestSimulateBasics:
    def test_all_zero_components_and_clocks_give_zero_m2m(self):
        op, veh, truth = simulate(constant_config())
        rep = pair_events(op, veh, PairingConfig(debounce_ns=0))
        assert len(rep.samples) == 50
        assert set(rep.m2m_values) == {0}
        assert not truth.columns["true_total_ns"].any()

    def test_constant_chain_sums_exactly(self):
        cfg = constant_config(gen=10 * MS, net=50 * MS, execd=20 * MS, follow=700 * MS)
        op, veh, _ = simulate(cfg)
        rep = pair_events(op, veh)
        assert len(rep.samples) == 50
        assert set(rep.m2m_values) == {780 * MS}

    def test_bit_identical_under_same_seed(self):
        cfg = preset("dyn_coref")
        cfg = replace(cfg, trials=100)
        assert simulate(cfg) == simulate(cfg)

    def test_different_seed_changes_logs(self):
        # the operator log is pure trial timing under preset clocks (zero
        # reference-side error); the vehicle log carries all random draws
        cfg = replace(preset("dyn_coref"), trials=100)
        other = replace(cfg, seed=cfg.seed + 1)
        assert simulate(cfg)[1] != simulate(other)[1]

    def test_logs_are_synthetic_sorted_and_renumbered(self):
        op, veh, _ = simulate(replace(preset("dyn_auto"), trials=200))
        for log in (op, veh):
            assert {tuple(EventSource)[c] for c in log.source} == {EventSource.SYNTHETIC}
            assert log.seq.tolist() == list(range(200))
        assert op.node.role is Role.OPERATOR
        assert veh.node.role is Role.VEHICLE


class TestGroundTruth:
    def test_recorded_minus_true_is_the_clock_error(self):
        cfg = replace(preset("dyn_coref"), trials=100)
        op, veh, truth = simulate(cfg)
        t = truth.columns
        assert len(truth) == 100
        assert (t["recorded_op_ns"] - t["true_op_time_ns"] == t["clock_err_op_ns"]).all()
        veh_true = t["true_op_time_ns"] + t["true_total_ns"]
        assert (t["recorded_veh_ns"] - veh_true == t["clock_err_veh_ns"]).all()
        # measured pair difference decomposes into truth plus sync error
        assert (
            t["recorded_veh_ns"] - t["recorded_op_ns"]
            == t["true_total_ns"] + t["clock_err_veh_ns"] - t["clock_err_op_ns"]
        ).all()

    def test_totals_equal_component_sum(self):
        _, _, truth = simulate(replace(preset("static_wifi"), trials=50))
        t = truth.columns
        assert (t["true_total_ns"] == (
            t["l_gen_ns"] + t["l_network_ns"] + t["l_exec_ns"] + t["l_follow_ns"]
            + t["friction_ns"]
        )).all()

    def test_csv_round_trip(self):
        _, _, truth = simulate(constant_config(follow=5 * MS, trials=20))
        assert GroundTruth.from_csv(truth.to_csv()) == truth

    def test_bad_csv_rows_rejected(self):
        header, row = simulate(constant_config(trials=1))[2].to_csv().splitlines()
        for bad in ("x", "1.5", "+5", "1_000", "\u0663"):
            line = f"{bad},{row.split(',', 1)[1]}"
            with pytest.raises(ConfigInvalid) as exc:
                GroundTruth.from_csv(f"{header}\n{line}\n")
            assert str(exc.value) == f"ground truth line 2: no integer trial: {line!r}"
        with pytest.raises(ConfigInvalid, match=f"^ground truth line 2: trial does not fit "
                                                 f"in int64: {2**63}$"):
            GroundTruth.from_csv(f"{header}\n{2**63},{row.split(',', 1)[1]}\n")
        short = row.rsplit(",", 1)[0]
        with pytest.raises(ConfigInvalid) as exc:
            GroundTruth.from_csv(f"{header}\n{short}\n")
        assert str(exc.value) == (
            f"ground truth line 2: 11 cells under a 12-column header: {short!r}")

    def test_wrong_header_rejected(self):
        header, row = simulate(constant_config(trials=1))[2].to_csv().splitlines()
        names = header.split(",")
        for bad in (names[1:], names[:-1], [names[1], names[0], *names[2:]], ["x", *names[1:]]):
            with pytest.raises(ConfigInvalid, match="^bad ground-truth header$"):
                GroundTruth.from_csv(",".join(bad) + f"\n{row}\n")
        for text in (row + "\n", "", "\n \r\n"):
            with pytest.raises(ConfigInvalid, match="^bad ground-truth header$"):
                GroundTruth.from_csv(text)

    def test_inconsistent_rows_rejected(self):
        _, _, truth = simulate(constant_config(trials=5))
        chain = ("l_gen_ns", "l_network_ns", "l_exec_ns", "l_follow_ns", "friction_ns")
        for name, reason in (
            *((name, "total does not match components") for name in ("true_total_ns", *chain)),
            ("true_op_time_ns", "operator recording inconsistent"),
            ("clock_err_op_ns", "operator recording inconsistent"),
            ("recorded_op_ns", "operator recording inconsistent"),
            ("clock_err_veh_ns", "vehicle recording inconsistent"),
            ("recorded_veh_ns", "vehicle recording inconsistent"),
        ):
            columns = {k: v.copy() for k, v in truth.columns.items()}
            columns[name][[2, 4]] += 1
            with pytest.raises(ConfigInvalid, match=f"^trial 2: {reason}$"):
                GroundTruth(columns)

    def test_columns_are_checked(self):
        _, _, truth = simulate(constant_config(trials=5))
        missing = {k: v for k, v in truth.columns.items() if k != "friction_ns"}
        with pytest.raises(ConfigInvalid):
            GroundTruth(missing)
        ragged = dict(truth.columns, trial=np.arange(4))
        with pytest.raises(ConfigInvalid):
            GroundTruth(ragged)
        assert tuple(truth.columns) == TRUTH_COLUMNS == (
            "trial", "true_op_time_ns", "l_gen_ns", "l_network_ns", "l_exec_ns", "l_follow_ns",
            "friction_ns", "true_total_ns", "clock_err_op_ns", "clock_err_veh_ns",
            "recorded_op_ns", "recorded_veh_ns",
        )


class TestStationaryFriction:
    def test_friction_applies_only_when_stationary(self):
        friction = ConstantDelay(163 * MS)
        base = constant_config(follow=700 * MS, friction_extra=friction, trials=30)
        moving = simulate(base)
        parked = simulate(replace(base, stationary=True))
        moving_m2m = set(pair_events(*moving[:2]).m2m_values)
        parked_m2m = set(pair_events(*parked[:2]).m2m_values)
        assert moving_m2m == {700 * MS}
        assert parked_m2m == {863 * MS}

    def test_zero_friction_flag_is_a_no_op(self):
        cfg = replace(preset("dyn_coref"), trials=100)
        assert not cfg.stationary
        flagged = replace(cfg, stationary=True)  # friction is Constant 0 here
        assert simulate(cfg) == simulate(flagged)


def test_scaling_all_components_scales_the_median():
    cfg = replace(preset("dyn_coref"), trials=400, clock_models=ZERO_CLOCKS)
    net, follow = cfg.l_network, cfg.l_follow
    scaled = replace(
        cfg,
        l_gen=ConstantDelay(round(1.5 * cfg.l_gen.value_ns)),
        l_network=LogNormalDelay(net.mu + math.log(1.5), net.sigma),
        l_exec=ConstantDelay(round(1.5 * cfg.l_exec.value_ns)),
        l_follow=LogNormalDelay(follow.mu + math.log(1.5), follow.sigma),
        friction_extra=ConstantDelay(round(1.5 * cfg.friction_extra.value_ns)),
    )
    base_median = summarize(simulate(cfg)[2].columns["true_total_ns"]).median_ns
    scaled_median = summarize(simulate(scaled)[2].columns["true_total_ns"]).median_ns
    assert scaled_median >= base_median
    assert scaled_median == pytest.approx(1.5 * base_median, rel=1e-6)


def test_overlapping_trials_warns():
    cfg = constant_config(follow=700 * MS, trial_interval_s=0.5, trials=10)
    with pytest.warns(OverlappingTrials):
        simulate(cfg)


def test_config_validation():
    for bad in (
        {"trials": 0}, {"trial_interval_s": 0.0}, {"trial_interval_s": float("nan")},
        {"trial_interval_s": 1e9, "trials": 10**4}, {"seed": -1},
    ):
        with pytest.raises(ConfigInvalid):
            constant_config(**bad)


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset("static_lte")

    @pytest.mark.parametrize("name", ["static_wifi", "static_5g", "dyn_coref", "dyn_auto"])
    def test_presets_are_well_formed(self, name):
        cfg = preset(name)
        assert cfg.label == name
        assert cfg.trials == 1000
        assert cfg.stationary == name.startswith("static")
        expected_mode = (
            SyncMode.AUTONOMOUS if name == "dyn_auto" else SyncMode.CO_REFERENCED
        )
        assert cfg.sync_mode is expected_mode
        assert cfg.effective_clock_models() == preset_models(expected_mode)

    def test_static_gap_is_carried_by_friction(self):
        static = preset("static_5g")
        dynamic = preset("dyn_coref")
        assert static.friction_extra.median_ns() == pytest.approx(162.8 * MS)
        assert dynamic.friction_extra.median_ns() == 0
        # same actuator model underneath; friction explains the median gap
        assert static.l_follow.median_ns() == dynamic.l_follow.median_ns()

    def test_pipeline_smoke_at_reduced_size(self):
        cfg = replace(preset("dyn_coref"), trials=300)
        op, veh, _ = simulate(cfg)
        rep = pair_events(op, veh)
        s = summarize(rep.m2m_values, [S])
        assert abs(s.median_ns - 767.8 * MS) <= 0.05 * 767.8 * MS
        assert rep.unmatched_op == rep.unmatched_veh == 0

    def test_500_trials_recover_median_within_measurement_precision(self):
        # the 10..15 ms error budget bounds how far a 500-trial analysis
        # may drift from the scenario's 767.8 ms target
        cfg = replace(preset("dyn_coref"), trials=500)
        op, veh, _ = simulate(cfg)
        s = summarize(pair_events(op, veh).m2m_values)
        assert abs(s.median_ns - 767.8 * MS) <= 15 * MS

    def test_zero_clock_error_makes_reported_median_exact(self):
        # with ideal clocks the pipeline median equals the ground-truth
        # median of true totals with no residual at all
        cfg = replace(preset("dyn_auto"), trials=401, clock_models=ZERO_CLOCKS)
        op, veh, truth = simulate(cfg)
        reported = summarize(pair_events(op, veh).m2m_values)
        true_stats = summarize(truth.columns["true_total_ns"])
        assert reported.median_ns == true_stats.median_ns
        assert reported.mean_ns == true_stats.mean_ns


class TestConfigFile:
    def test_render_parse_reaches_a_fixed_point(self):
        # a "%" is plain text: the format has no interpolation
        for cfg in (preset("dyn_auto"), replace(preset("static_wifi"), label="5% wifi")):
            once = parse_config(render_config(cfg))
            twice = parse_config(render_config(once))
            assert once == twice
            assert once.label == cfg.label
            assert once.trials == cfg.trials
            assert once.l_follow.median_ns() == pytest.approx(
                cfg.l_follow.median_ns(), rel=1e-9
            )

    def test_clock_override_sections(self):
        cfg = constant_config(
            clock_models=(ClockModel(), ClockModel(jitter_std_ns=1000.0, spike_max_ns=5000))
        )
        parsed = parse_config(render_config(cfg))
        assert parsed.clock_models == cfg.clock_models
        assert parsed.effective_clock_models()[1].jitter_std_ns == 1000.0

    def test_echoed_preset_clock_models_reproduce_the_run(self):
        # jitter_std_ns = 328600.9 must parse back as a float, not be cut to an int
        cfg = replace(preset("dyn_coref"), trials=50,
                      clock_models=preset_models(SyncMode.CO_REFERENCED))
        parsed = parse_config(render_config(cfg))
        assert parsed == cfg
        assert simulate(parsed)[2] == simulate(cfg)[2]

    def test_no_clock_sections_means_sync_mode_presets(self):
        cfg = preset("dyn_auto")
        text = render_config(cfg)
        assert "[clock_op]" not in text
        parsed = parse_config(text)
        assert parsed.clock_models is None

    def test_a_byte_order_mark_is_dropped(self):
        cfg = replace(preset("static_wifi"), clock_models=ZERO_CLOCKS)
        assert parse_config("\ufeff" + render_config(cfg)) == cfg

    def test_parse_errors(self):
        with pytest.raises(ConfigInvalid):
            parse_config("not an ini file [")
        with pytest.raises(ConfigInvalid):
            parse_config("[scenario]\ntrials = 5\n")  # missing component sections
        good = render_config(preset("dyn_coref"))
        with pytest.raises(ConfigInvalid):
            parse_config(good.replace("sync_mode = co_referenced", "sync_mode = gps"))

    def test_empirical_component_round_trip(self):
        cfg = constant_config()
        from m2mlat.dists import EmpiricalDelay

        cfg = replace(cfg, l_network=EmpiricalDelay((1 * MS, 2 * MS, 30 * MS)))
        parsed = parse_config(render_config(cfg))
        assert parsed.l_network == cfg.l_network

    def test_clock_stream_is_echoed_and_checked(self):
        cfg = preset("dyn_coref")
        text = render_config(cfg)
        assert f"clock_stream = {CLOCK_STREAM}\n" in text
        assert parse_config(text) == cfg
        assert parse_config(text.replace(f"clock_stream = {CLOCK_STREAM}\n", "")) == cfg
        with pytest.raises(ConfigInvalid, match="clock_stream"):
            parse_config(text.replace(CLOCK_STREAM, "philox-0"))

    @pytest.mark.parametrize("make", [
        *(partial(preset, name) for name in PRESET_NAMES),
        lambda: replace(constant_config(), l_network=EmpiricalDelay((1 * MS, 2 * MS, 30 * MS))),
        lambda: replace(preset("dyn_coref"), clock_models=(
            ClockModel(initial_offset_ns=-5), ClockModel(jitter_std_ns=328600.9, spike_max_ns=1))),
        # read back, the label's newline and % are what parse_config gives
        lambda: parse_config(render_config(replace(preset("dyn_auto"), label="a 5%\nb %s"))),
    ], ids=[*PRESET_NAMES, "empirical", "clock-overrides", "label-read-back"])
    def test_render_config_writes_what_configparser_writes(self, make):
        cfg = make()
        assert render_config(cfg) == oracle_render_config(cfg)

    def test_a_label_with_a_newline_and_a_percent_reads_back(self):
        cfg = replace(preset("dyn_auto"), label="a 5%\nb %s")
        assert "\nlabel = a 5%\n\tb %s\n" in render_config(cfg)
        assert parse_config(render_config(cfg)).label == cfg.label

    def test_config_hash_tracks_content(self):
        a = preset("dyn_coref")
        assert config_hash(a) == config_hash(preset("dyn_coref"))
        assert config_hash(a) != config_hash(replace(a, seed=99))

    def test_with_overrides(self):
        cfg = preset("dyn_coref")
        assert with_overrides(cfg) is cfg
        out = with_overrides(cfg, trials=7, seed=42)
        assert (out.trials, out.seed) == (7, 42)


def test_outputs_are_pinned_bit_for_bit():
    # sha256 digests of every simulator output under one pinned seed; a
    # change here means the generator no longer reproduces earlier runs.
    # The operator log has a zero clock model, so its digest does not
    # depend on the clock stream (CLOCK_STREAM) and must never move.
    def digest(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    cfg = with_overrides(preset("static_wifi"), trials=300, seed=11)
    op, veh, truth = simulate(cfg)
    assert digest(write_log(op)) == (
        "fa5761ea049c4c68eb150125a9be6c2acffa48c8bde49cd055a7e9e3f128536f")
    assert digest(write_log(veh)) == (
        "1e3dc2d648d55b264385e6e0b3b9c725ce2cd315bc19551e3f13017f992a8519")
    assert digest(truth.to_csv()) == (
        "538072f6edbdcee69ff00b1809411b9f3163775467a41243b0dfbd3aa330237e")
    assert digest(render_config(cfg)) == (
        "b03f4e03a0f335207ea7396d18ab225c0e3655a61a76784826f75d538993c6cb")
    pairs = pair_events(op, veh)
    assert digest(pairs.to_csv()) == (
        "e63a182b574a55a2407e4094698a49e8f2e3d9c062ae96bb86191768023cda89")
    assert digest(pairs.meta_text()) == (
        "1d1bf775bee0ceb889d27590a52b05916ddeb69d7ba807eb5f0e9e46319479f5")
    pulses = simulate_shared_pulse_run(SyncMode.CO_REFERENCED, 300, 10**9, 9)
    assert digest(precision_analysis(*pulses).to_csv()) == (
        "f90a64049cf49180a60319c635899f40e877d60f224ec204d24d02ecd3a00e5f")
