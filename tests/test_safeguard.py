"""Safety layer: hysteresis gate automaton (checked against an independent
reference implementation), soft scaling, candidate selection, and the
projected-descent recovery/refinement searches."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskgate import estimator as est
from riskgate import safeguard as sg
from riskgate import world as wd

CFG = sg.GateConfig(tau_up=0.7, tau_down=0.35, k_resume=3, r_sat=0.99,
                    watchdog_window=5)


def reference_gate(risks, cfg):
    """Plain-loop re-implementation of the gate semantics."""
    mode, safe, sat = "RUN", 0, 0
    out = []
    for r in risks:
        if mode == "HALTED":
            out.append(("HALTED", "HALT"))
            continue
        if mode == "RUN":
            if r > cfg.tau_up:
                mode, safe, sat = "BLOCKED", 0, 0
                out.append((mode, "BLOCK"))
            else:
                out.append((mode, "EXECUTE"))
            continue
        safe = safe + 1 if r <= cfg.tau_down else 0
        if safe >= cfg.k_resume:
            mode, safe, sat = "RUN", 0, 0
            out.append((mode, "EXECUTE"))
            continue
        sat = sat + 1 if r >= cfg.r_sat else 0
        if sat >= cfg.watchdog_window:
            mode = "HALTED"
            out.append((mode, "HALT"))
        else:
            out.append((mode, "BLOCK"))
    return out


def run_gate(risks, cfg):
    gate = sg.GateState()
    out = []
    for r in risks:
        gate, decision = sg.gate_step(gate, r, cfg)
        out.append((gate.mode, decision))
    return out


def test_gate_config_validation():
    for bad in (dict(tau_up=0.3, tau_down=0.5), dict(tau_up=1.2),
                dict(tau_down=0.0), dict(k_resume=0), dict(watchdog_window=0),
                dict(r_sat=0.5), dict(d0=0.0), dict(a_max=-1.0)):
        with pytest.raises(ValueError):
            sg.GateConfig(**bad)


def test_block_boundary_is_strict():
    gate = sg.GateState()
    same, decision = sg.gate_step(gate, CFG.tau_up, CFG)
    assert same.mode == sg.RUN and decision == sg.EXECUTE
    blocked, decision = sg.gate_step(gate, CFG.tau_up + 1e-9, CFG)
    assert blocked.mode == sg.BLOCKED and decision == sg.BLOCK


def test_resume_requires_consecutive_safe_cycles():
    # an interruption resets the streak, so dithering around the band
    # cannot produce rapid block/resume chatter
    risks = [0.9, 0.3, 0.3, 0.5, 0.3, 0.3, 0.3, 0.1]
    trace = run_gate(risks, CFG)
    assert [m for m, _ in trace] == ["BLOCKED"] * 6 + ["RUN", "RUN"]
    assert trace[6] == ("RUN", sg.EXECUTE)


def test_hysteresis_band_holds_block():
    # risk inside (tau_down, tau_up] neither resumes nor halts
    trace = run_gate([0.9] + [0.5] * 50, CFG)
    assert all(m == "BLOCKED" for m, _ in trace)


def test_watchdog_exact_window():
    w = CFG.watchdog_window
    trace = run_gate([0.95] + [1.0] * w, CFG)
    assert [m for m, _ in trace] == ["BLOCKED"] * w + ["HALTED"]
    # one sub-saturation dip resets the watchdog count
    trace = run_gate([0.95] + [1.0] * (w - 1) + [0.5] + [1.0] * (w - 1), CFG)
    assert trace[-1][0] == "BLOCKED"


def test_halted_absorbs_everything():
    gate = sg.GateState(mode=sg.HALTED)
    for r in (0.0, 0.2, 1.0):
        nxt, decision = sg.gate_step(gate, r, CFG)
        assert nxt is gate and decision == sg.HALT


def test_gate_step_is_pure():
    gate = sg.GateState(mode=sg.BLOCKED, safe_count=1, sat_count=2)
    a = sg.gate_step(gate, 0.2, CFG)
    b = sg.gate_step(gate, 0.2, CFG)
    assert a == b
    assert gate.safe_count == 1 and gate.sat_count == 2
    with pytest.raises(AttributeError):
        gate.mode = sg.RUN


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                max_size=120),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=6))
def test_gate_matches_reference_automaton(risks, k_resume, window):
    cfg = sg.GateConfig(tau_up=0.7, tau_down=0.35, k_resume=k_resume,
                        r_sat=0.99, watchdog_window=window)
    assert run_gate(risks, cfg) == reference_gate(risks, cfg)


def test_soft_scale():
    assert sg.soft_scale(0.0, 0.7) == 1.0
    assert sg.soft_scale(0.7, 0.7) == 0.0
    assert sg.soft_scale(0.35, 0.7) == pytest.approx(0.5)
    assert sg.soft_scale(0.9, 0.7) == 0.0
    with pytest.raises(ValueError):
        sg.soft_scale(0.5, 0.0)


def test_distance_fallback():
    assert sg.distance_fallback(0.05, 0.02) == 1.0
    assert sg.distance_fallback(0.01, 0.02) == pytest.approx(0.5)
    assert sg.distance_fallback(-0.3, 0.02) == 0.0
    with pytest.raises(ValueError):
        sg.distance_fallback(0.1, 0.0)


def _state_features(seed, world_cfg, task_params):
    state, task = wd.task_init("crossing_transfer", seed, world_cfg, task_params)
    return wd.proprio_feature(state), wd.scene_feature(state, task)


def test_select_candidate_argmin_and_feasibility(trained_tiny, world_cfg, task_params):
    proprio, z = _state_features(0, world_cfg, task_params)
    rng = np.random.default_rng(0)
    cands = rng.uniform(-0.02, 0.02, size=(6, 3, 4))
    choice = sg.select_candidate(trained_tiny, proprio, z, cands, a_max=0.02)
    # risks agree with the per-plan calibrated forward pass
    for i in range(6):
        one = est.predict_risk(trained_tiny, proprio, z, cands[i])
        assert choice.risks[i] == pytest.approx(one.risk, abs=1e-12)
    assert choice.index == int(np.argmin(choice.risks))
    np.testing.assert_array_equal(choice.plan, cands[choice.index])

    # a box-violating candidate is never selected, even at lower risk
    cands[choice.index, 0, 0] = 0.5
    redo = sg.select_candidate(trained_tiny, proprio, z, cands, a_max=0.02)
    assert redo.index != choice.index
    assert np.isinf(redo.risks[choice.index])

    with pytest.raises(ValueError):
        sg.select_candidate(trained_tiny, proprio, z, np.full((2, 3, 4), 1.0), 0.02)
    with pytest.raises(ValueError):
        sg.select_candidate(trained_tiny, proprio, z, np.zeros((0, 3, 4)), 0.02)


def test_select_candidate_ties_keep_nominal(world_cfg, task_params):
    # plan-independent estimator: every candidate scores the same risk,
    # so the nominal (index 0) must win
    params = est.init_params(seed=1)
    for k in params.weights:
        params.weights[k] = np.zeros_like(params.weights[k])
    proprio, z = _state_features(1, world_cfg, task_params)
    rng = np.random.default_rng(1)
    cands = rng.uniform(-0.02, 0.02, size=(4, 3, 4))
    choice = sg.select_candidate(params, proprio, z, cands, a_max=0.02)
    assert choice.index == 0
    assert np.all(choice.risks == choice.risks[0])


def test_recover_descends_and_respects_box(trained_tiny, world_cfg, task_params):
    for seed in range(5):
        proprio, z = _state_features(seed, world_cfg, task_params)
        res = sg.recover(trained_tiny, proprio, z, horizon=5, cfg=CFG)
        obj = res.objectives
        assert all(b < a for a, b in zip(obj, obj[1:]))
        assert np.all(np.abs(res.plan) <= CFG.a_max + 1e-12)
        assert res.plan.shape == (5, 4)
        # the zero plan is the protective prior: any progress beat it
        zero_risk = est.predict_risk(trained_tiny, proprio, z,
                                     np.zeros((5, 4))).risk
        if res.made_progress:
            assert obj[-1] < obj[0] == pytest.approx(zero_risk)
    with pytest.raises(ValueError):
        sg.recover(trained_tiny, proprio, z, horizon=0, cfg=CFG)


def test_recover_stalls_to_zero_plan_on_flat_risk(world_cfg, task_params):
    params = est.init_params(seed=0)
    for k in params.weights:
        params.weights[k] = np.zeros_like(params.weights[k])
    proprio, z = _state_features(2, world_cfg, task_params)
    res = sg.recover(params, proprio, z, horizon=4, cfg=CFG)
    assert not res.made_progress
    np.testing.assert_array_equal(res.plan, np.zeros((4, 4)))
    assert len(res.objectives) == 1


def test_refine_never_raises_risk(trained_tiny, world_cfg, task_params):
    rng = np.random.default_rng(3)
    for seed in range(10):
        proprio, z = _state_features(seed, world_cfg, task_params)
        nominal = rng.uniform(-0.02, 0.02, size=(5, 4))
        res = sg.refine_plan(trained_tiny, proprio, z, nominal,
                             replace(CFG, alpha=1.0, beta=2.0))
        nominal_risk = est.predict_risk(trained_tiny, proprio, z, nominal).risk
        assert res.risk <= nominal_risk + 1e-12
        assert res.objectives[0] == pytest.approx(2.0 * nominal_risk)
        assert all(b < a for a, b in zip(res.objectives, res.objectives[1:]))
        assert np.all(np.abs(res.plan) <= CFG.a_max + 1e-12)


def test_refine_rejects_out_of_box_nominal(trained_tiny, world_cfg, task_params):
    proprio, z = _state_features(0, world_cfg, task_params)
    with pytest.raises(ValueError, match="action box"):
        sg.refine_plan(trained_tiny, proprio, z, np.full((3, 4), 0.5), CFG)
