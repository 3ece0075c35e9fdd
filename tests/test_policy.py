"""Expert and learned policies: plan construction, demonstrations (ungated
`harness.run_episodes` episodes with exploration noise), cloning, the
safety filter, risk-weighted fine-tuning, and estimator post-training."""

import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import assert_records_equal, label_plans, reset
from riskgate import estimator as est
from riskgate import harness as hn
from riskgate import policy as pol
from riskgate import safeguard as sg
from riskgate import world as wd


def demonstrations(jobs, horizon, world_cfg, task_params, explore_noise):
    """The records of expert demonstrations of jobs, as train-policy
    collects them: ungated `run_episodes` with exploration noise, each
    episode's streams from `hn.demo_streams`."""
    setup = hn.EvalSetup(mode="ungated", world_cfg=world_cfg, task_params=task_params,
                         gate_cfg=sg.GateConfig(), horizon=horizon, n_candidates=1, sigma_a=0.0,
                         soft_gate=False, seed=0, explore_noise=explore_noise)
    collectors = [[] for _ in jobs]
    hn.run_episodes(setup, jobs, collectors, hn.demo_streams(jobs))
    return [rec for records in collectors for rec in records]


@pytest.fixture(scope="module")
def demo_records(world_cfg, task_params):
    recs = demonstrations([("crossing_transfer", s) for s in range(6)], 5, world_cfg,
                          task_params, explore_noise=0.005)
    assert any(d.label.y_bin == 1 for d in recs) and any(d.label.y_bin == 0 for d in recs)
    return recs


def test_scripted_expert_matches_proportional_law(world_cfg, task_params):
    state, task = reset("crossing_transfer", 0, world_cfg, task_params)
    plan = pol.roll_plan(pol.expert_law(task, world_cfg.a_max), state, 4, world_cfg)
    assert plan.shape == (4, 4)
    first = np.concatenate([
        np.clip(pol.K_P * (task.goal[0] - state.ee[0]), -0.02, 0.02),
        np.clip(pol.K_P * (task.goal[1] - state.ee[1]), -0.02, 0.02),
    ])
    assert_allclose(plan[0], first, atol=1e-15)
    # row i is the proportional action at the state the plan itself reaches
    cur = state
    for i in range(4):
        assert_allclose(plan[i], pol.expert_law(task, 0.02)(cur), atol=1e-15)
        cur = wd.step(cur, plan[i], world_cfg)
    with pytest.raises(ValueError):
        pol.roll_plan(pol.expert_law(task, world_cfg.a_max), state, 0, world_cfg)


def test_init_policy_shapes_and_determinism():
    p = pol.init_policy(seed=0)
    assert p.w1.shape == (pol.POLICY_IN, pol.POLICY_HIDDEN)
    assert p.w2.shape == (pol.POLICY_HIDDEN, pol.POLICY_OUT)
    assert np.all(p.b1 == 0.0) and np.all(p.b2 == 0.0)
    q = pol.init_policy(seed=0)
    assert_array_equal(p.w1, q.w1)
    assert not np.array_equal(p.w1, pol.init_policy(seed=1).w1)


def test_policy_forward_stays_in_box(world_cfg, task_params):
    params = pol.init_policy(seed=0)
    params.w2 *= 100.0  # drive the pre-squash output far out of range
    state, task = reset("parallel_place", 1, world_cfg, task_params)
    plan = pol.roll_plan(pol.policy_law(params, task), state, 1, world_cfg)
    assert plan.shape == (1, 4)
    assert np.all(np.abs(plan) <= params.a_max)
    assert np.abs(plan).max() > 0.99 * params.a_max
    with pytest.raises(ValueError):
        pol.roll_plan(pol.policy_law(params, task), state, 0, world_cfg)


def network_row(params, state, task):
    """The network's action row at one state, from a (1, 28) input."""
    x = np.concatenate([wd.proprio_feature(state), wd.scene_feature(state, task),
                        task.goal.ravel()])[None, :]
    return pol._policy_forward_batch(params, x)[0][0]


def test_policy_plan_matches_manual_rollout(world_cfg, task_params, monkeypatch):
    """The plan equals, with ==, the rows of the policy rolled forward one
    step per row, and the world is stepped only between rows. A stacked
    state and task over both tasks plan every row in one call, and each
    row equals its own single-state call with ==."""
    params = pol.init_policy(seed=2)
    state, task = reset("crossing_transfer", 3, world_cfg, task_params)
    ref, cur = [], state
    for i in range(5):
        ref.append(network_row(params, cur, task))
        cur = wd.step(cur, ref[-1], world_cfg)
    real_step, calls = wd.step, []

    def counting_step(*args):
        calls.append(1)
        return real_step(*args)

    monkeypatch.setattr(wd, "step", counting_step)
    plan = pol.roll_plan(pol.policy_law(params, task), state, 5, world_cfg)
    assert_array_equal(plan, np.array(ref))
    assert len(calls) == 4

    inits = [reset(wd.TASK_IDS[i % 2], i, world_cfg, task_params) for i in range(6)]
    states, tasks = [s for s, _ in inits], [t for _, t in inits]
    calls.clear()
    plans = pol.roll_plan(pol.policy_law(params, wd.stack(tasks)), wd.stack(states), 5,
                          world_cfg)
    assert plans.shape == (6, 5, 4) and len(calls) == 4
    for row, s, t in zip(plans, states, tasks):
        assert np.array_equal(row, pol.roll_plan(pol.policy_law(params, t), s, 5, world_cfg))


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("horizon", [1, 5])
def test_oracle_pass_plans_the_next_states_as_the_planners_do(world_cfg, task_params, n,
                                                              horizon):
    """The next plans `wd.rollout_and_step` makes with the expert's and the
    cloned policy's row law equal, with ==, `roll_plan` of each law from
    the next states, batched and row by row, over mixed
    holding flags, a row with joints at their limits and explore-noised
    actions."""
    rng = np.random.default_rng(40 + 10 * n + horizon)
    flags = [(True, False), (False, False), (False, True), (True, True), (False, False)][:n]
    inits = [reset(wd.TASK_IDS[i % 2], i, world_cfg, task_params) for i in range(n)]
    states = [wd.make_state(world_cfg, s.q[0], s.q[1], holding_left=left, holding_right=right,
                            t=3 * i) for i, ((s, _), (left, right)) in enumerate(zip(inits, flags))]
    lim = world_cfg.arms.joint_limits
    states[-1] = replace(wd.make_state(world_cfg, [lim[0, 0, 1], -0.4, -0.2],
                                       [lim[1, 0, 0], 0.4, lim[1, 2, 1]]),
                         holding=np.array(flags[-1]))
    state, task = wd.stack(states), wd.stack([t for _, t in inits])
    plans = pol.roll_plan(pol.expert_law(task, world_cfg.a_max), state, horizon, world_cfg)
    actions = np.clip(plans[:, 0] + rng.normal(0.0, 0.005, size=(n, 4)),
                      -world_cfg.a_max, world_cfg.a_max)
    policy = pol.init_policy(seed=3)
    planners = (
        (pol.expert_law(task, world_cfg.a_max),
         lambda s, t: pol.roll_plan(pol.expert_law(t, world_cfg.a_max), s, horizon, world_cfg)),
        (pol.policy_law(policy, task),
         lambda s, t: pol.roll_plan(pol.policy_law(policy, t), s, horizon, world_cfg)))
    for law, planner in planners:
        _, nxt, _, plan = wd.rollout_and_step(state, plans[:, None], actions, world_cfg, law)
        assert plan.shape == (n, horizon, 4)
        assert np.array_equal(plan, planner(nxt, task))
        for i in range(n):
            assert np.array_equal(plan[i], planner(wd.take(nxt, i), wd.take(task, i)))
    # the joint limits clip the last row's next state
    assert np.any(nxt.q[-1] == lim[..., 1]) or np.any(nxt.q[-1] == lim[..., 0])


def test_demonstration_records(demo_records, world_cfg):
    for d in demo_records[:50]:
        assert d.plan.shape == (5, 4)
        assert_array_equal(d.action, d.plan[0])
        assert d.risk == 0.0 and not d.corrected
    # labels are the oracle's verdict on the stored plan from its own state
    rng = np.random.default_rng(0)
    for idx in rng.choice(len(demo_records), size=20, replace=False):
        d = demo_records[idx]
        q = np.arctan2(d.proprio[0:12:2], d.proprio[1:12:2])
        state = wd.make_state(world_cfg, q[:3], q[3:])
        out = label_plans(state, d.plan[None], world_cfg)[0]
        assert d.label.y_bin == out.y_bin
        assert d.label.y_d == pytest.approx(out.y_d, abs=1e-9)


def test_demonstrations_deterministic(world_cfg, task_params):
    a = demonstrations([("parallel_place", 7)], 3, world_cfg, task_params, explore_noise=0.005)
    b = demonstrations([("parallel_place", 7)], 3, world_cfg, task_params, explore_noise=0.005)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert_array_equal(ra.z, rb.z)
        assert_array_equal(ra.plan, rb.plan)


def demos_one_episode_at_a_time(task_id, seeds, horizon, world_cfg, task_params,
                                explore_noise):
    """Reference collector: each episode alone, from the per-state calls.
    Returns the records and how each episode ended."""
    records, endings = [], []
    for seed in seeds:
        state, task = reset(task_id, seed, world_cfg, task_params)
        rng = np.random.default_rng(np.random.SeedSequence([wd.task_index(task_id), seed, 29]))
        goals = task.goal.ravel()
        ending = "budget"
        for _ in range(task_params.max_steps):
            plan = pol.roll_plan(pol.expert_law(task, world_cfg.a_max), state, horizon, world_cfg)
            records.append(pol.DemoRecord(
                proprio=wd.proprio_feature(state),
                z=wd.scene_feature(state, task, world_cfg.noise_sigma, rng),
                goals=goals, action=plan[0].copy(), plan=plan,
                label=label_plans(state, plan[None], world_cfg)[0]))
            executed = np.clip(plan[0] + rng.normal(0.0, explore_noise, size=4),
                               -world_cfg.a_max, world_cfg.a_max)
            state = wd.step(state, executed, world_cfg)
            if wd.min_self_distance(state, world_cfg) < 0.0:
                ending = "collision"
                break
            if wd.success_check(state, task):
                ending = "success"
                break
        endings.append(ending)
    return records, endings


@pytest.mark.parametrize("group", [wd.LOCKSTEP_EPISODES, 3])
def test_lockstep_demonstrations_equal_one_episode_at_a_time(world_cfg, task_params,
                                                             monkeypatch, group):
    """One `run_episodes` call over both tasks' demonstration episodes
    steps them together, in groups of `group`; every record equals the
    per-episode reference's, in job order, with episodes ending by
    collision, success and the step budget at different steps."""
    monkeypatch.setattr(wd, "LOCKSTEP_EPISODES", group)
    params = wd.TaskParams(max_steps=25)
    seeds = [11, 3, 7, 20, 5]
    jobs = [(task_id, seed) for task_id in wd.TASK_IDS for seed in seeds]
    ref, endings = [], set()
    for task_id in wd.TASK_IDS:
        records, ends = demos_one_episode_at_a_time(task_id, seeds, 3, world_cfg, params, 0.01)
        ref += records
        endings.update(ends)
    got = demonstrations(jobs, 3, world_cfg, params, explore_noise=0.01)
    assert_records_equal(got, ref)
    assert endings == {"collision", "success", "budget"}


def test_bc_train_reduces_cloning_error(demo_records):
    cfg = pol.PolicyTrainConfig(epochs=60, seed=0)
    init = pol.init_policy(seed=0)
    fit = pol.bc_train(init, demo_records, cfg)
    x, y = pol._demo_arrays(demo_records)
    before = np.mean((pol._policy_forward_batch(init, x)[0] - y) ** 2)
    after = np.mean((pol._policy_forward_batch(fit, x)[0] - y) ** 2)
    assert after < 0.25 * before
    # determinism: identical run, identical weights; the input is untouched
    fit2 = pol.bc_train(init, demo_records, cfg)
    assert_array_equal(fit.w1, fit2.w1)
    assert_array_equal(init.b2, np.zeros(pol.POLICY_OUT))
    with pytest.raises(ValueError):
        pol.bc_train(init, [], cfg)


def reference_fit_mlp(params, x, y, weights, cfg):
    """Cloning SGD in its per-array form: a velocity per weight array and
    an indexed copy of each batch."""
    params = params.copy()
    scale = 1.0 / params.a_max ** 2
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 17]))
    vel = {name: np.zeros_like(arr) for name, arr in params.weight_items()}
    for _ in range(cfg.epochs):
        order = rng.permutation(x.shape[0])
        for lo in range(0, x.shape[0], cfg.batch_size):
            idx = order[lo: lo + cfg.batch_size]
            xb, yb, wb = x[idx], y[idx], weights[idx]
            out, h, u = pol._policy_forward_batch(params, xb)
            g_out = scale * 2.0 * wb[:, None] * (out - yb) / len(idx)
            g_u = g_out * params.a_max * (1.0 - np.tanh(u) ** 2)
            g_pre = (g_u @ params.w2.T) * (1.0 - h ** 2)
            grads = {"w1": xb.T @ g_pre, "b1": g_pre.sum(axis=0),
                     "w2": h.T @ g_u, "b2": g_u.sum(axis=0)}
            for name, arr in params.weight_items():
                vel[name] = cfg.momentum * vel[name] - cfg.lr * grads[name]
                arr += vel[name]
    return params


def test_fit_mlp_keeps_the_bits_of_the_per_array_loop(demo_records):
    """The flat-vector cloning loop gives every weight the bits of the
    per-array loop, with risk weights and a short last batch, and leaves
    the params it was given as they were."""
    x, y = pol._demo_arrays(demo_records)
    assert len(x) % 64 != 0
    weights = np.exp(-5.0 * np.random.default_rng(3).random(len(x)))
    cfg = pol.PolicyTrainConfig(epochs=4, seed=2)
    init = pol.init_policy(seed=1)
    before = init.copy()
    got = pol._fit_mlp(init, x, y, weights, cfg)
    want = reference_fit_mlp(init, x, y, weights, cfg)
    for (name, a), (_, b), (_, given), (_, kept) in zip(
            got.weight_items(), want.weight_items(), init.weight_items(), before.weight_items()):
        assert_array_equal(a.view(np.uint64), b.view(np.uint64), err_msg=name)
        assert_array_equal(given.view(np.uint64), kept.view(np.uint64), err_msg=name)
        assert not np.shares_memory(a, given), name


def test_safety_filter_scores_and_threshold(demo_records, trained_tiny):
    kept = pol.safety_filter_dataset(demo_records, trained_tiny, tau_down=0.35)
    assert 0 < len(kept) <= len(demo_records)
    by_id = {id(d): d for d in demo_records}
    for k in kept[:30]:
        assert k.risk <= 0.35
        one = est.predict_risk(trained_tiny, k.proprio, k.z, k.plan)
        assert k.risk == pytest.approx(one.risk, abs=1e-9)
        assert id(k) not in by_id  # records are replaced, not mutated
    # inputs keep their unscored risk
    assert all(d.risk == 0.0 for d in demo_records)
    with pytest.raises(ValueError, match="tau_down too strict"):
        pol.safety_filter_dataset(demo_records, trained_tiny, tau_down=1e-12)
    with pytest.raises(ValueError):
        pol.safety_filter_dataset([], trained_tiny, tau_down=0.35)


def test_risk_weighting_downweights_risky_targets():
    """Two conflicting targets for one input: with a harsh kappa the fit
    must land near the low-risk target, not the average."""
    base = pol.DemoRecord(proprio=np.zeros(14), z=np.zeros(10), goals=np.zeros(4),
                          action=np.full(4, 0.015), plan=np.zeros((1, 4)),
                          label=wd.RolloutOutcome(y_bin=0, y_d=0.5, y_ttc=0.5),
                          risk=0.0)
    from dataclasses import replace
    risky = replace(base, action=np.full(4, -0.015), risk=0.9)
    data = [base, risky] * 40
    cfg = pol.PolicyTrainConfig(epochs=200, batch_size=16, seed=0)
    fit = pol.risk_weighted_finetune(pol.init_policy(seed=0), data, cfg, kappa=8.0)
    x, _ = pol._demo_arrays([base])
    out = pol._policy_forward_batch(fit, x)[0][0]
    assert np.all(np.abs(out - base.action) < 0.004)
    assert np.all(np.abs(out - risky.action) > 0.02)
    with pytest.raises(ValueError):
        pol.risk_weighted_finetune(pol.init_policy(0), [], cfg, kappa=8.0)


def test_post_train_estimator_runs_and_calibrates(demo_records, trained_tiny):
    cfg = est.TrainConfig(epochs_per_phase=2, seed=0)
    out = pol.post_train_estimator(trained_tiny, demo_records, cfg)
    assert out is not trained_tiny
    assert 0.25 <= out.temperature <= 4.0
    # weights moved; the input estimator is untouched
    assert not np.array_equal(out.weights["w_risk"], trained_tiny.weights["w_risk"])
    again = pol.post_train_estimator(trained_tiny, demo_records, cfg)
    assert_array_equal(out.weights["w_risk"], again.weights["w_risk"])
    assert out.temperature == again.temperature
    with pytest.raises(ValueError):
        pol.post_train_estimator(trained_tiny, [], cfg)


def test_policy_checkpoint_roundtrip(tmp_path):
    params = pol.init_policy(seed=5)
    path = tmp_path / "pol.json"
    pol.save_policy(params, path, config_digest="d")
    back = pol.load_policy(path)
    for (_, a), (_, b) in zip(params.weight_items(), back.weight_items()):
        assert_array_equal(a, b)
    assert back.a_max == params.a_max

    # checkpoints of the wrong kind are refused both ways
    est.save_params(est.init_params(0), tmp_path / "est.json")
    with pytest.raises(ValueError, match="kind"):
        pol.load_policy(tmp_path / "est.json")
    with pytest.raises(ValueError, match="kind"):
        est.load_params(path)


def test_save_policy_bytes_match_json_dump(tmp_path):
    params = pol.init_policy(seed=5)
    params.b2[:2] = (-0.0, 5e-324)
    pol.save_policy(params, tmp_path / "new.json", config_digest="d")
    payload = {
        "format_version": est.CHECKPOINT_VERSION, "kind": pol.POLICY_CHECKPOINT_KIND,
        "dims": {"input": pol.POLICY_IN, "hidden": pol.POLICY_HIDDEN, "output": pol.POLICY_OUT},
        "shapes": {name: list(arr.shape) for name, arr in params.weight_items()},
        "weights": {name: arr.ravel().tolist() for name, arr in params.weight_items()},
        "a_max": params.a_max, "config_digest": "d",
    }
    with open(tmp_path / "ref.json", "w") as f:
        json.dump(payload, f)
        f.write("\n")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("edit, key", [
    (lambda p: p["weights"]["b2"].__setitem__(0, float("nan")), "b2"),
    (lambda p: (p["weights"].pop("w1"), p["shapes"].pop("w1")), "w1"),
    (lambda p: p["shapes"].update(w2=[4, 32]), "w2"),
    (lambda p: p["weights"]["b1"].append(0.0), "b1"),
    (lambda p: p.update(a_max=0.0), "a_max"),
    (lambda p: p.update(a_max=float("nan")), "a_max"),
])
def test_load_policy_rejects_bad_checkpoints(tmp_path, edit, key):
    path = tmp_path / "pol.json"
    pol.save_policy(pol.init_policy(seed=5), path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=key):
        pol.load_policy(path)
