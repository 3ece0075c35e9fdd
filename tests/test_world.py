"""Dual-arm world: collision oracle, stepping, rollouts, task resets.

The minimum self-distance is re-derived in each test from public geometry
primitives (explicit capsule pair enumeration), so the production routine
is checked against an independent construction.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from riskgate import geometry as gm
from riskgate import world as wd


def enumerate_min_distance(state, cfg, inflation=0.0):
    """Brute-force cross-arm capsule clearance from public primitives."""

    def side_capsules(segs, radii, holding, ee, heading):
        caps = [gm.Capsule2(gm.Segment2(s[0], s[1]), float(r))
                for s, r in zip(segs, radii)]
        if holding:
            tip = ee + cfg.grasp_length * np.array([np.cos(heading), np.sin(heading)])
            caps.append(gm.Capsule2(gm.Segment2(ee, tip), cfg.grasp_radius))
        return caps

    left = side_capsules(state.segs_left, cfg.arm_left.link_radii,
                         state.holding_left, state.ee_left, state.heading_left)
    right = side_capsules(state.segs_right, cfg.arm_right.link_radii,
                          state.holding_right, state.ee_right, state.heading_right)
    return min(gm.capsule_distance(a, b, inflation) for a in left for b in right)


def random_state(rng, cfg, holding=False):
    q_l = rng.uniform(-1.8, 1.8, size=3)
    q_r = rng.uniform(-1.8, 1.8, size=3)
    return wd.make_state(cfg, q_l, q_r, holding_left=holding, holding_right=holding)


def test_min_self_distance_matches_pair_enumeration(world_cfg):
    rng = np.random.default_rng(11)
    for i in range(100):
        state = random_state(rng, world_cfg, holding=bool(i % 2))
        expected = enumerate_min_distance(state, world_cfg)
        assert wd.min_self_distance(state, world_cfg) == pytest.approx(expected, abs=1e-12)


def test_inflation_shifts_clearance_exactly(world_cfg):
    rng = np.random.default_rng(12)
    for _ in range(20):
        state = random_state(rng, world_cfg, holding=True)
        base = wd.min_self_distance(state, world_cfg, inflation=0.0)
        assert wd.min_self_distance(state, world_cfg, inflation=0.01) == pytest.approx(
            base - 0.02, abs=1e-12)


def test_mirror_symmetry(world_cfg):
    # reflecting across the y axis swaps the arms and negates joint angles
    rng = np.random.default_rng(13)
    for _ in range(30):
        q_l = rng.uniform(-1.5, 1.5, size=3)
        q_r = rng.uniform(-1.5, 1.5, size=3)
        state = wd.make_state(world_cfg, q_l, q_r, holding_left=True)
        mirror = wd.make_state(world_cfg, -q_r, -q_l, holding_right=True)
        assert wd.min_self_distance(mirror, world_cfg) == pytest.approx(
            wd.min_self_distance(state, world_cfg), abs=1e-12)


def test_step_kinematics_and_limits(world_cfg):
    state = wd.make_state(world_cfg, [0.6, -0.4, -0.2], [0.6, -0.4, -0.2])
    action = [1.0, 1.0, -1.0, 1.0]  # [dxL, dyL, dxR, dyR]
    nxt = wd.step(state, action, world_cfg)
    assert nxt.t == state.t + 1
    assert np.all(np.abs(nxt.q_left - state.q_left) <= world_cfg.arm_left.joint_velocity_limit + 1e-15)
    # caches stay consistent with the joint vector
    segs, ee, heading = gm.forward_kinematics(world_cfg.arm_left, nxt.q_left)
    assert_allclose(nxt.ee_left, ee, atol=1e-15)
    assert_allclose(nxt.segs_left, segs, atol=1e-15)
    assert nxt.heading_left == pytest.approx(heading)


def test_rollout_matches_manual_resimulation(world_cfg):
    rng = np.random.default_rng(14)
    for _ in range(10):
        state = random_state(rng, world_cfg)
        plan = rng.uniform(-0.02, 0.02, size=(5, 4))
        out = wd.rollout(state, plan, world_cfg)

        cur, y_d, y_bin, y_ttc = state, np.inf, 0, 5 * world_cfg.dt
        for i in range(5):
            cur = wd.step(cur, plan[i], world_cfg)
            d = wd.min_self_distance(cur, world_cfg)
            y_d = min(y_d, d)
            if d < 0:
                y_bin, y_ttc = 1, (i + 1) * world_cfg.dt
                break
        assert out.y_bin == y_bin
        assert out.y_d == pytest.approx(y_d, abs=1e-15)
        assert out.y_ttc == pytest.approx(y_ttc, abs=1e-15)


def test_rollout_censors_ttc_at_horizon(world_cfg):
    state = wd.make_state(world_cfg, [0.6, -0.4, -0.2], [0.6, -0.4, -0.2])
    out = wd.rollout(state, np.zeros((3, 4)), world_cfg)
    assert out.y_bin == 0
    assert out.y_ttc == pytest.approx(3 * world_cfg.dt)


def test_rollout_validates_plan_shape(world_cfg):
    state = wd.make_state(world_cfg, [0.6, -0.4, -0.2], [0.6, -0.4, -0.2])
    with pytest.raises(ValueError):
        wd.rollout(state, np.zeros((0, 4)), world_cfg)
    with pytest.raises(ValueError):
        wd.rollout(state, np.zeros((3, 5)), world_cfg)


def test_task_init_deterministic_and_clear(world_cfg, task_params):
    for tid in wd.TASK_IDS:
        s1, t1 = wd.task_init(tid, 123, world_cfg, task_params)
        s2, t2 = wd.task_init(tid, 123, world_cfg, task_params)
        assert_allclose(s1.q_left, s2.q_left)
        assert_allclose(t1.goal_left, t2.goal_left)
        assert wd.min_self_distance(s1, world_cfg) >= task_params.min_start_clearance
    # crossing sends each EE to the opposite half-plane
    _, task = wd.task_init("crossing_transfer", 5, world_cfg, task_params)
    assert task.goal_left[0] > 0 and task.goal_right[0] < 0
    _, task = wd.task_init("parallel_place", 5, world_cfg, task_params)
    assert task.goal_left[0] < 0 and task.goal_right[0] > 0


def test_task_init_rejects_unreachable_setup(world_cfg):
    with pytest.raises(ValueError):
        wd.task_init("no_such_task", 0, world_cfg)
    strict = wd.TaskParams(min_start_clearance=1.0, max_reset_draws=5)
    with pytest.raises(RuntimeError):
        wd.task_init("crossing_transfer", 0, world_cfg, strict)


def test_success_check(world_cfg, task_params):
    state, task = wd.task_init("parallel_place", 3, world_cfg, task_params)
    assert not wd.success_check(state, task)
    # drive both EEs onto their goals with the oracle-free expert loop
    from riskgate import policy as pol
    cur = state
    for _ in range(task.max_steps):
        plan = pol.scripted_expert(cur, task, 1, world_cfg)
        cur = wd.step(cur, plan[0], world_cfg)
        if wd.success_check(cur, task):
            break
    assert wd.success_check(cur, task)
    assert not wd.success_check(cur, task, collided=True)


def test_scene_and_proprio_features(world_cfg, task_params):
    state, task = wd.task_init("crossing_transfer", 9, world_cfg, task_params)
    z = wd.scene_feature(state, task)
    assert z.shape == (10,)
    assert_allclose(z[:2], state.ee_left)
    assert_allclose(z[4:6], task.goal_left)
    # same stream, same noise
    za = wd.scene_feature(state, task, 0.005, np.random.default_rng(1))
    zb = wd.scene_feature(state, task, 0.005, np.random.default_rng(1))
    assert_allclose(za, zb)
    assert not np.allclose(za, z)
    # noise never lands on the holding flags
    assert za[8] == z[8] and za[9] == z[9]

    p = wd.proprio_feature(state)
    assert p.shape == (14,)
    q = np.concatenate([state.q_left, state.q_right])
    assert_allclose(p[0:12:2], np.sin(q))
    assert_allclose(p[1:12:2], np.cos(q))
