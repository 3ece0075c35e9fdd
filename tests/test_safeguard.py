"""Safety layer: hysteresis gate automaton (checked against an independent
reference implementation), soft scaling, candidate selection, and the
projected-descent recovery/refinement searches."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reset
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
    # elementwise over an array, each entry with its scalar call's bits
    r = np.array([0.0, 0.7, 0.35, 0.9, 0.123, 0.69999, -0.2, 1.0])
    scales = sg.soft_scale(r, 0.7)
    assert scales.shape == r.shape
    for v, out in zip(r.tolist(), scales.tolist()):
        assert out == sg.soft_scale(v, 0.7) == min(max(1.0 - v / 0.7, 0.0), 1.0)
    with pytest.raises(ValueError):
        sg.soft_scale(0.5, 0.0)


def test_distance_fallback():
    assert sg.distance_fallback(0.05, 0.02) == 1.0
    assert sg.distance_fallback(0.01, 0.02) == pytest.approx(0.5)
    assert sg.distance_fallback(-0.3, 0.02) == 0.0
    d = np.array([0.05, 0.02, 0.01, 0.0, -0.3, 0.0137, 0.019999])
    scales = sg.distance_fallback(d, 0.02)
    assert scales.shape == d.shape
    for v, out in zip(d.tolist(), scales.tolist()):
        assert out == sg.distance_fallback(v, 0.02) == min(max(v / 0.02, 0.0), 1.0)
    with pytest.raises(ValueError):
        sg.distance_fallback(0.1, 0.0)


def _state_features(seed, world_cfg, task_params):
    state, task = reset("crossing_transfer", seed, world_cfg, task_params)
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
        assert alone.index.shape == () and alone.index == grouped.index[e]
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


def recover_rows(params, proprio, z, horizon, cfg):
    """Recover descents from one (14,), (10,) context, as a one-row batch."""
    return sg.descend(params, proprio[None], z[None], np.zeros((1, horizon, 4)),
                      np.ones(1, dtype=bool), cfg)


def test_recover_descends_and_respects_box(trained_tiny, world_cfg, task_params):
    for seed in range(5):
        proprio, z = _state_features(seed, world_cfg, task_params)
        res = recover_rows(trained_tiny, proprio, z, 5, CFG)
        obj = res.objectives[0]
        assert all(b < a for a, b in zip(obj, obj[1:]))
        assert np.all(np.abs(res.plan) <= CFG.a_max + 1e-12)
        assert res.plan.shape == (1, 5, 4)
        # the zero plan is the protective prior: any progress beat it
        zero_risk = est.predict_risk(trained_tiny, proprio, z,
                                     np.zeros((5, 4))).risk
        if res.made_progress[0]:
            assert obj[-1] < obj[0] == pytest.approx(zero_risk)
    with pytest.raises(ValueError, match="anchors"):
        recover_rows(trained_tiny, proprio, z, 0, CFG)


def test_recover_stalls_to_zero_plan_on_flat_risk(world_cfg, task_params):
    params = est.init_params(seed=0)
    for k in params.weights:
        params.weights[k] = np.zeros_like(params.weights[k])
    proprio, z = _state_features(2, world_cfg, task_params)
    res = recover_rows(params, proprio, z, 4, CFG)
    assert not res.made_progress[0]
    np.testing.assert_array_equal(res.plan[0], np.zeros((4, 4)))
    assert len(res.objectives[0]) == 1


def test_refine_never_raises_risk(trained_tiny, world_cfg, task_params):
    """Ten refine rows in one call: each row's risk stays at or below its
    anchor's, from an initial objective of beta times the anchor's risk."""
    rng = np.random.default_rng(3)
    feats = [_state_features(seed, world_cfg, task_params) for seed in range(10)]
    proprio, z = np.stack([p for p, _ in feats]), np.stack([zz for _, zz in feats])
    nominal = rng.uniform(-0.02, 0.02, size=(10, 5, 4))
    res = sg.descend(trained_tiny, proprio, z, nominal, np.zeros(10, dtype=bool),
                     replace(CFG, alpha=1.0, beta=2.0))
    for e in range(10):
        nominal_risk = est.predict_risk(trained_tiny, proprio[e], z[e], nominal[e]).risk
        assert res.risk[e] <= nominal_risk + 1e-12
        assert res.objectives[e][0] == pytest.approx(2.0 * nominal_risk)
        assert all(b < a for a, b in zip(res.objectives[e], res.objectives[e][1:]))
    assert np.all(np.abs(res.plan) <= CFG.a_max + 1e-12)


def test_refine_rejects_out_of_box_nominal(trained_tiny, world_cfg, task_params):
    proprio, z = _state_features(0, world_cfg, task_params)
    anchors = np.zeros((2, 3, 4))
    anchors[1] = 0.5
    for recover in ([False, False], [True, True]):
        with pytest.raises(ValueError, match="action box"):
            sg.descend(trained_tiny, np.stack([proprio] * 2), np.stack([z] * 2), anchors,
                       np.array(recover), CFG)


def test_refine_rejects_non_finite_nominal(trained_tiny, world_cfg, task_params):
    """NaN passes the box check (its comparison is false), so an anchor
    holding one would come back as a NaN plan; it raises instead."""
    proprio, z = _state_features(0, world_cfg, task_params)
    for bad in (np.nan, np.inf, -np.inf):
        anchors = np.zeros((2, 3, 4))
        anchors[1, 1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sg.descend(trained_tiny, np.stack([proprio] * 2), np.stack([z] * 2), anchors,
                       np.zeros(2, dtype=bool), CFG)


def test_descend_rejects_malformed_rows(trained_tiny, world_cfg, task_params):
    """Anchors that are not (E, H, 4) with E, H >= 1, recover flags that are
    not (E,), and contexts that are not (E, 14) and (E, 10) raise."""
    proprio, z = _state_features(0, world_cfg, task_params)
    P, Z = np.stack([proprio] * 2), np.stack([z] * 2)
    flags = np.zeros(2, dtype=bool)
    for anchors, recover in ((np.zeros((3, 4)), flags), (np.zeros((0, 3, 4)), flags[:0]),
                             (np.zeros((2, 3, 5)), flags), (np.zeros((2, 3, 4)), flags[:1]),
                             (np.zeros((2, 3, 4)), np.zeros((2, 1), dtype=bool))):
        with pytest.raises(ValueError, match="anchors"):
            sg.descend(trained_tiny, P, Z, anchors, recover, CFG)
    for ctx in ((proprio, Z), (P, z), (P[:1], Z)):
        with pytest.raises(ValueError, match="got proprio"):
            sg.descend(trained_tiny, *ctx, np.zeros((2, 3, 4)), flags, CFG)


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
        plan_grads = est._plan_grad(params, est._backward_batch(
            params, cache, np.ones(1), np.zeros(1), np.zeros(1))[1])
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


def _corner_anchor(params, proprio, z, h, a_max):
    """A box corner whose logit gradient points out of the box in every
    component, so a refine row anchored there stalls on its first
    iteration: every clipped step lands back on the anchor."""
    anchor = np.zeros((h, 4))
    for _ in range(20):
        g = est.risk_plan_gradient(params, est.predict_risk(params, proprio, z, anchor))
        anchor, prev = -a_max * np.sign(g), anchor
        if np.array_equal(anchor, prev):
            return anchor
    raise AssertionError("no stalling corner found")


def _descent_cases(trained_tiny, world_cfg, task_params, cfg):
    """(params, proprio, z, anchors, recover) descend calls of E = 1, 3 and
    17 rows mixing recover and refine rows: the trained estimator on task
    states, a rough random-weight estimator on random states (long
    descents, and a refine row at a stalling box corner), and a flat
    estimator on which every row stalls on its first iteration."""
    rng = np.random.default_rng(12)
    rough = est.init_params(seed=4)
    for k in rough.weights:
        rough.weights[k] = 3.0 * rough.weights[k] + rng.normal(0.0, 0.3, rough.weights[k].shape)
    rough.temperature = 2.5
    flat = est.init_params(seed=0)
    for k in flat.weights:
        flat.weights[k] = np.zeros_like(flat.weights[k])
    for e in (1, 3, 17):
        h = int(rng.integers(1, 6))
        recover = np.arange(e) % 2 == 1 if e > 1 else np.array([rng.random() < 0.5])
        anchors = rng.uniform(-0.02, 0.02, size=(e, h, 4))
        feats = [_state_features(int(s), world_cfg, task_params) for s in rng.integers(0, 50, e)]
        task_ctx = np.stack([p for p, _ in feats]), np.stack([zz for _, zz in feats])
        for params in (trained_tiny, flat):
            yield params, *task_ctx, anchors, recover
        proprio = rng.normal(size=(e, est.PROPRIO_DIM))
        z = rng.normal(size=(e, est.VISION_DIM))
        anchors = anchors.copy()
        anchors[0] = _corner_anchor(rough, proprio[0], z[0], h, cfg.a_max)
        recover = recover.copy()
        recover[0] = False
        yield rough, proprio, z, anchors, recover


def _count_forwards(monkeypatch):
    """Plan rows of each call of the forward's scoring stage (est._score),
    and context rows of each call of its context stage (est._encode);
    est._backward_batch must not run."""
    calls, encoded = [], []
    score, encode = est._score, est._encode

    def counted(params, ctx, plan, *rest):
        calls.append(int(np.prod(plan.shape[:-2])))
        return score(params, ctx, plan, *rest)

    def counted_encode(params, proprio, z):
        encoded.append(int(np.prod(proprio.shape[:-1])))
        return encode(params, proprio, z)

    def no_full_backward(*args):
        raise AssertionError("descent ran the parameter-gradient backward")

    monkeypatch.setattr(est, "_score", counted)
    monkeypatch.setattr(est, "_encode", counted_encode)
    monkeypatch.setattr(est, "_backward_batch", no_full_backward)
    return calls, encoded


def test_descent_matches_reference_with_one_forward_per_plan(
        trained_tiny, world_cfg, task_params, monkeypatch):
    """Each row of a batched descend call equals, with ==, the loop without
    forward reuse run on that row alone; the call encodes each row's
    context once, and scores one plan row per plan the rows evaluate, in
    one scoring per round."""
    cfg = replace(CFG, max_iters=6, max_halvings=3)
    lengths = []
    for params, proprio, z, anchors, recover in _descent_cases(trained_tiny, world_cfg,
                                                               task_params, cfg):
        with monkeypatch.context() as m:
            forwards, encoded = _count_forwards(m)
            res = sg.descend(params, proprio, z, anchors, recover, cfg)
        evaluated = []
        call_lengths = set()
        for e in range(len(anchors)):
            if recover[e]:
                init, coeff = np.zeros_like(anchors[e]), 1.0
                g_extra = lambda a: 2.0 * cfg.lambda_reg * a
                o_extra = lambda a: cfg.lambda_reg * float(np.sum(a * a))
            else:
                nominal = anchors[e]
                init, coeff = nominal, cfg.beta
                g_extra = lambda a: 2.0 * cfg.alpha * (a - nominal)
                o_extra = lambda a: cfg.alpha * float(np.sum((a - nominal) ** 2))
            plan, trace, progress, risk, min_dist, n_eval = reference_descent(
                params, proprio[e], z[e], init, coeff, g_extra, o_extra, cfg)
            assert np.array_equal(res.plan[e], plan)
            assert res.objectives[e] == trace
            assert res.made_progress[e] == progress
            assert res.risk[e] == risk and res.min_dist[e] == min_dist
            evaluated.append(n_eval)
            call_lengths.add(len(trace))
        assert sum(forwards) == sum(evaluated) and len(forwards) == max(evaluated)
        assert encoded == [len(anchors)]
        lengths.append(call_lengths)
    every = set().union(*lengths)
    # stalled at once, stalled part way, and ran all max_iters
    assert {1, 2, cfg.max_iters + 1} <= every and len(every) >= 4
    # within one call, a row stalled at once while others stopped later
    assert any(1 in ls and len(ls) >= 3 for ls in lengths)
