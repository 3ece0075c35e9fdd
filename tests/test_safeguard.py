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
    # descent settings under which recovery could never progress, or would
    # climb the risk, each named in the message
    for key, value in (("eta", 0.0), ("eta", float("nan")), ("eta", float("inf")),
                       ("max_iters", 0), ("max_halvings", -1), ("lambda_reg", -0.1),
                       ("alpha", -1.0), ("beta", -1.0), ("beta", float("nan"))):
        with pytest.raises(ValueError, match=key):
            sg.GateConfig(**{key: value})
    # zero weights and zero halvings are legal
    sg.GateConfig(max_halvings=0, lambda_reg=0.0, alpha=0.0, beta=0.0)


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
    # malformed plans, and groups the (14,), (10,) context does not match
    for bad in (np.zeros((8, 5, 1)), np.zeros((8, 0, 4)), np.zeros((5, 4)),
                np.zeros((2, 8, 5, 4))):
        with pytest.raises(ValueError, match=r"shape|got plans"):
            sg.select_candidate(trained_tiny, proprio, z, bad, 0.02)


def test_gate_step_fails_closed_on_non_finite_risk():
    """NaN compares false with every threshold, so from RUN it would
    execute; a non-finite risk raises in every mode instead."""
    for gate in (sg.GateState(), sg.GateState(mode=sg.BLOCKED, safe_count=2, sat_count=3),
                 sg.GateState(mode=sg.HALTED)):
        for r in (np.nan, np.inf, -np.inf, float("nan")):
            with pytest.raises(ValueError, match="finite"):
                sg.gate_step(gate, r, CFG)
    assert sg.gate_step(sg.GateState(), np.float64(0.2), CFG) == (sg.GateState(), sg.EXECUTE)


def test_select_candidate_groups_equal_one_call_per_group(trained_tiny, world_cfg,
                                                          task_params):
    """(E, N, H, 4) candidates with (E, 14), (E, 10) contexts pick, for
    each group, the index, plan and risks (with ==) of that group alone."""
    rng = np.random.default_rng(3)
    feats = [_state_features(seed, world_cfg, task_params) for seed in range(3)]
    proprio = np.stack([p for p, _ in feats])
    z = np.stack([zz for _, zz in feats])
    cands = rng.uniform(-0.02, 0.02, size=(3, 8, 5, 4))
    cands[1, 0, 0, 0] = 0.5  # an infeasible candidate in one group
    grouped = sg.select_candidate(trained_tiny, proprio, z, cands, a_max=0.02)
    assert grouped.index.shape == (3,) and grouped.plan.shape == (3, 5, 4)
    for e in range(3):
        alone = sg.select_candidate(trained_tiny, proprio[e], z[e], cands[e], a_max=0.02)
        assert isinstance(alone.index, int) and alone.index == grouped.index[e]
        np.testing.assert_array_equal(grouped.plan[e], alone.plan)
        np.testing.assert_array_equal(grouped.risks[e].view(np.uint64),
                                      alone.risks.view(np.uint64))
    assert np.isinf(grouped.risks[1, 0])
    # one group without a feasible candidate fails the whole call
    cands[2] = 0.5
    with pytest.raises(ValueError, match="feasible"):
        sg.select_candidate(trained_tiny, proprio, z, cands, a_max=0.02)


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


def test_refine_rejects_non_finite_nominal(trained_tiny, world_cfg, task_params):
    """NaN passes the box check (its comparison is false), so a nominal
    holding one would come back as a NaN plan; it raises instead."""
    proprio, z = _state_features(0, world_cfg, task_params)
    for bad in (np.nan, np.inf, -np.inf):
        nominal = np.zeros((3, 4))
        nominal[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sg.refine_plan(trained_tiny, proprio, z, nominal, CFG)


def reference_descent(params, proprio, z, init, risk_coeff, grad_extra, obj_extra, cfg):
    """The descent loop with no forward reuse: one forward per evaluated
    plan plus a fresh forward and full backward per accepted iterate.

    Returns (plan, objectives, made_progress, risk, min_dist, evaluated).
    """
    def full_gradient(plan):
        A = np.asarray(plan, dtype=float)[None]
        logit, dist, _, cache = est._forward_batch(
            params, np.asarray(proprio, dtype=float)[None], np.asarray(z, dtype=float)[None],
            A, np.ones(A.shape[:2]))
        _, plan_grads = est._backward_batch(params, cache, np.ones(1), np.zeros(1),
                                            np.zeros(1))
        ell = float(logit[0])
        risk = float(est._sigmoid(np.array([ell / params.temperature]))[0])
        return risk, float(dist[0]), plan_grads[0]

    plan = np.clip(np.asarray(init, dtype=float), -cfg.a_max, cfg.a_max)
    risk, min_dist, g_logit = full_gradient(plan)
    obj = risk_coeff * risk + obj_extra(plan)
    trace, made_progress, evaluated = [obj], False, 1
    for _ in range(cfg.max_iters):
        g = risk_coeff * g_logit + grad_extra(plan)
        step, accepted = cfg.eta, False
        for _ in range(cfg.max_halvings + 1):
            cand = np.clip(plan - step * g, -cfg.a_max, cfg.a_max)
            pred = est.predict_risk(params, proprio, z, cand)
            evaluated += 1
            cand_obj = risk_coeff * pred.risk + obj_extra(cand)
            if cand_obj < obj:
                plan, obj, accepted = cand, cand_obj, True
                break
            step *= 0.5
        if not accepted:
            break
        made_progress = True
        trace.append(obj)
        risk, min_dist, g_logit = full_gradient(plan)
    return plan, trace, made_progress, risk, min_dist, evaluated


def _descent_cases(trained_tiny, world_cfg, task_params):
    """(params, proprio, z, nominal): the trained estimator on task states,
    a rough random-weight estimator on random states (long descents), and
    a flat estimator whose first iteration exhausts every halving."""
    rng = np.random.default_rng(12)
    rough = est.init_params(seed=4)
    for k in rough.weights:
        rough.weights[k] = 3.0 * rough.weights[k] + rng.normal(0.0, 0.3, rough.weights[k].shape)
    rough.temperature = 2.5
    flat = est.init_params(seed=0)
    for k in flat.weights:
        flat.weights[k] = np.zeros_like(flat.weights[k])
    for seed in range(3):
        proprio, z = _state_features(seed, world_cfg, task_params)
        for params in (trained_tiny, flat):
            yield params, proprio, z, rng.uniform(-0.02, 0.02, size=(3, 4))
    for _ in range(8):
        h = int(rng.integers(1, 6))
        yield (rough, rng.normal(size=est.PROPRIO_DIM), rng.normal(size=est.VISION_DIM),
               rng.uniform(-0.02, 0.02, size=(h, 4)))


def _count_forwards(monkeypatch):
    """Counter of est._forward_batch calls; est._backward_batch must not run."""
    calls = []
    forward = est._forward_batch

    def counted(*args):
        calls.append(1)
        return forward(*args)

    def no_full_backward(*args):
        raise AssertionError("descent ran the parameter-gradient backward")

    monkeypatch.setattr(est, "_forward_batch", counted)
    monkeypatch.setattr(est, "_backward_batch", no_full_backward)
    return calls


def test_descent_matches_reference_with_one_forward_per_plan(
        trained_tiny, world_cfg, task_params, monkeypatch):
    """recover and refine_plan equal, with ==, the loop without forward
    reuse, and run exactly one forward per evaluated plan."""
    cfg = replace(CFG, max_iters=6, max_halvings=3)
    lengths = []
    for params, proprio, z, nominal in _descent_cases(trained_tiny, world_cfg, task_params):
        h = nominal.shape[0]
        for init, coeff, g_extra, o_extra, run in (
                (np.zeros((h, 4)), 1.0,
                 lambda a: 2.0 * cfg.lambda_reg * a,
                 lambda a: cfg.lambda_reg * float(np.sum(a * a)),
                 lambda: sg.recover(params, proprio, z, h, cfg)),
                (nominal, cfg.beta,
                 lambda a: 2.0 * cfg.alpha * (a - nominal),
                 lambda a: cfg.alpha * float(np.sum((a - nominal) ** 2)),
                 lambda: sg.refine_plan(params, proprio, z, nominal, cfg))):
            plan, trace, progress, risk, min_dist, evaluated = reference_descent(
                params, proprio, z, init, coeff, g_extra, o_extra, cfg)
            with monkeypatch.context() as m:
                forwards = _count_forwards(m)
                res = run()
            assert np.array_equal(res.plan, plan)
            assert res.objectives == trace
            assert res.made_progress == progress
            assert res.risk == risk and res.min_dist == min_dist
            assert len(forwards) == evaluated
            lengths.append(len(trace))
    # stalled at once (flat), stalled part way, and ran all max_iters
    assert {1, 2, cfg.max_iters + 1} <= set(lengths) and len(set(lengths)) >= 4
