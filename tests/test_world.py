"""Dual-arm world: collision oracle, stepping, rollouts, task resets.

The minimum self-distance is re-derived in each test from one
`segment_pairs_distance` call per capsule pair (explicit capsule pair
enumeration), so the batched production routine is checked against an
independent construction.
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import label_plans, label_rows, plan_clearances, reset
from test_geometry import reference_dls_ik_step, reference_joint_origins
from riskgate import geometry as gm
from riskgate import world as wd


def enumerate_min_distance(state, cfg):
    """Brute-force cross-arm capsule clearance, one pair at a time: the
    distance between the capsule axes less both radii, each capsule grown
    by cfg.inflation."""

    def side_capsules(segs, radii, holding, ee, heading):
        caps = [(s[0], s[1], float(r)) for s, r in zip(segs, radii)]
        if holding:
            tip = ee + cfg.grasp_length * np.array([np.cos(heading), np.sin(heading)])
            caps.append((ee, tip, cfg.grasp_radius))
        return caps

    segs = gm.link_segments(state.origins)
    left, right = (side_capsules(segs[k], arm.link_radii, state.holding[k], state.ee[k],
                                 state.heading[k])
                   for k, arm in enumerate((cfg.arm_left, cfg.arm_right)))
    return min(float(gm.segment_pairs_distance(p0, p1, q0, q1)) - (ra + rb + 2.0 * cfg.inflation)
               for p0, p1, ra in left for q0, q1, rb in right)


def world_with_radii(cfg, left, right, **overrides):
    """cfg with every link of the left arm of radius `left` and of the right
    arm of radius `right`."""
    arms = {name: replace(arm, link_radii=np.full(arm.dof, r))
            for name, arm, r in (("arm_left", cfg.arm_left, left),
                                 ("arm_right", cfg.arm_right, right))}
    return replace(cfg, **arms, **overrides)


def random_state(rng, cfg, holding=False):
    q_l = rng.uniform(-1.8, 1.8, size=3)
    q_r = rng.uniform(-1.8, 1.8, size=3)
    return wd.make_state(cfg, q_l, q_r, holding_left=holding, holding_right=holding)


def lean_in(state):
    """A row law for the oracle pass: each EE moves half way toward the
    other arm's EE, clipped to the action box."""
    ee = state.ee
    return np.clip(0.5 * (ee[..., ::-1, :] - ee), -0.02, 0.02).reshape(*ee.shape[:-2], 4)


def test_min_self_distance_matches_pair_enumeration(world_cfg):
    """Over random states, with and without a grasped object, radii that
    differ per arm, inflation, and zero radii and a zero-size grasped
    object, the clearance equals the pair enumeration; some states overlap
    (clearance < 0)."""
    rng = np.random.default_rng(11)
    cfgs = [world_cfg, replace(world_cfg, inflation=0.05),
            world_with_radii(world_cfg, 0.1, 0.2), world_with_radii(world_cfg, 0.0, 0.05),
            world_with_radii(world_cfg, 0.1, 0.2, inflation=0.05),
            world_with_radii(world_cfg, 0.0, 0.0, grasp_length=0.0, grasp_radius=0.0)]
    overlapping = 0
    for i in range(100):
        state = random_state(rng, world_cfg, holding=bool(i % 2))
        for cfg in cfgs:
            expected = enumerate_min_distance(state, cfg)
            assert wd.min_self_distance(state, cfg) == pytest.approx(expected, abs=1e-12)
        overlapping += wd.min_self_distance(state, world_cfg) < 0.0
    assert 0 < overlapping < 100


def test_inflation_shifts_clearance_exactly(world_cfg):
    """Each capsule grows by the inflation, so the clearance drops by twice
    it; thicker links lower it by the sum of the two radii's growth."""
    rng = np.random.default_rng(12)
    inflated = replace(world_cfg, inflation=0.01)
    thick = world_with_radii(world_cfg, 0.1, 0.2)
    for _ in range(20):
        state = random_state(rng, world_cfg, holding=True)
        base = wd.min_self_distance(state, world_cfg)
        assert wd.min_self_distance(state, inflated) == pytest.approx(base - 0.02, abs=1e-12)
        # the grasped objects keep their radius, so thick links shift the
        # clearance by 0.07 + 0.17 at most
        assert base - 0.24 - 1e-12 <= wd.min_self_distance(state, thick) <= base + 1e-12


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
    assert np.all(np.abs(nxt.q[0] - state.q[0]) <= world_cfg.arm_left.joint_velocity_limit + 1e-15)
    # caches stay consistent with the joint vector
    segs, ee, heading = gm.forward_kinematics(world_cfg.arm_left, nxt.q[0])
    assert_allclose(nxt.ee[0], ee, atol=1e-15)
    assert_allclose(gm.link_segments(nxt.origins[0]), segs, atol=1e-15)
    assert nxt.heading[0] == pytest.approx(heading)


def test_make_state_matches_per_arm_forward_kinematics(world_cfg):
    """`make_state` runs one kinematics call over the arm axis; its link
    segments, EEs and headings equal, bit for bit, each arm's own
    `forward_kinematics`. Either arm outside its joint limits raises."""
    rng = np.random.default_rng(21)
    for _ in range(30):
        q_l, q_r = rng.uniform(-2.75, 2.75, 3), rng.uniform(-2.75, 2.75, 3)
        g = rng.uniform(0.0, 1.0, 2)
        state = wd.make_state(world_cfg, q_l, q_r, *g, holding_right=True, t=4)
        assert state.q.shape == (2, 3) and state.origins.shape == (2, 4, 2)
        assert np.array_equal(state.g, g) and state.t == 4
        assert np.array_equal(state.holding, [False, True]) and state.holding.dtype == bool
        for k, (arm, q) in enumerate(((world_cfg.arm_left, q_l), (world_cfg.arm_right, q_r))):
            segs, ee, heading = gm.forward_kinematics(arm, q)
            assert np.array_equal(state.q[k], q)
            assert np.array_equal(gm.link_segments(state.origins[k]), segs)
            assert np.array_equal(state.ee[k], ee) and state.heading[k] == heading
    ok = [0.6, -0.4, -0.2]
    for q_l, q_r in (([2.9, 0.0, 0.0], ok), (ok, [0.0, -2.81, 0.0])):
        with pytest.raises(gm.JointLimitError):
            wd.make_state(world_cfg, q_l, q_r)
    # a batch of joint vectors: each row that of its own call, the other
    # fields shared by every row
    q = rng.uniform(-2.75, 2.75, (5, 2, 3))
    batch = wd.make_state(world_cfg, q[:, 0], q[:, 1], 0.25, 0.5, holding_left=True, t=7)
    rows = wd.stack([wd.make_state(world_cfg, *row, 0.25, 0.5, holding_left=True, t=7)
                     for row in q])
    for name, value in vars(rows).items():
        got = getattr(batch, name)
        assert np.array_equal(got, value) and got.dtype == value.dtype, name


def test_step_matches_per_arm_reference(world_cfg):
    """`step` equals, bit for bit, each arm advanced alone by the single-arm
    geometry routines: DLS increment, joint-limit clip, forward kinematics.
    The rows include ones the velocity clip and the joint limits cut."""
    rng = np.random.default_rng(17)
    velocity_clipped = limit_clipped = 0
    for _ in range(60):
        state = wd.make_state(world_cfg, rng.uniform(-2.75, 2.75, 3), rng.uniform(-2.75, 2.75, 3))
        action = rng.uniform(-0.3, 0.3, 4)
        nxt = wd.step(state, action, world_cfg)
        for k, arm in enumerate((world_cfg.arm_left, world_cfg.arm_right)):
            q, dx = state.q[k], action[2 * k:2 * k + 2]
            dq = gm.dls_ik_step(arm, gm.joint_origins(arm, q)[0], dx, world_cfg.mu)
            ref_q = np.clip(q + dq, arm.joint_limits[:, 0], arm.joint_limits[:, 1])
            pts, angles = gm.joint_origins(arm, ref_q)
            assert np.array_equal(nxt.q[k], ref_q) and np.array_equal(nxt.origins[k], pts)
            assert np.array_equal(nxt.ee[k], pts[-1]) and nxt.heading[k] == angles[-1]
            velocity_clipped += np.any(np.abs(dq) == arm.joint_velocity_limit)
            limit_clipped += np.any(ref_q != q + dq)
    assert velocity_clipped > 0 and limit_clipped > 0


def test_step_rejects_malformed_action_rows(world_cfg):
    state = wd.make_state(world_cfg, [0.6, -0.4, -0.2], [0.6, -0.4, -0.2])
    for bad in (np.zeros(5), np.zeros(3), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            wd.step(state, bad, world_cfg)


def test_world_config_rejects_arms_of_different_dof():
    left = gm.default_arm()
    right = gm.ArmModel(base_position=(0.25, 0.0), base_orientation=0.0,
                        link_lengths=[0.3, 0.25], link_radii=[0.03, 0.03],
                        joint_limits=[[-2.8, 2.8]] * 2, joint_velocity_limit=0.1)
    with pytest.raises(ValueError, match="DoF"):
        wd.WorldConfig(arm_left=left, arm_right=right)


@pytest.mark.parametrize("key,bad", [
    ("a_max", 0.0), ("a_max", -0.02), ("a_max", np.inf), ("a_max", np.nan),
    ("mu", 0.0), ("mu", np.nan), ("mu", np.inf),
    ("dt", np.inf), ("dt", np.nan), ("dt", 0.0),
    ("inflation", -0.05), ("inflation", np.nan), ("inflation", np.inf),
    ("grasp_length", -0.1), ("grasp_length", np.nan),
    ("grasp_radius", -0.01), ("grasp_radius", np.inf), ("noise_sigma", np.inf)])
def test_world_config_rejects_meaningless_scalars(key, bad):
    """A value that would make every clearance or step meaningless is
    refused where the config is built, naming the key."""
    with pytest.raises(ValueError, match=key):
        wd.default_world(**{key: bad})


@pytest.mark.parametrize("key,bad,match", [
    ("link_lengths", [0.3, np.inf, 0.15], "link lengths"),
    ("link_lengths", [0.3, np.nan, 0.15], "link lengths"),
    ("link_lengths", [0.3, 0.0, 0.15], "link lengths"),
    ("link_radii", [0.03, -0.01, 0.03], "link radii"),
    ("link_radii", [0.03, np.nan, 0.03], "link radii"),
    ("link_radii", [np.inf, 0.03, 0.03], "link radii")])
def test_arm_model_rejects_bad_lengths_and_radii(key, bad, match):
    with pytest.raises(ValueError, match=match):
        replace(gm.default_arm(), **{key: bad})


def clearances(state, plan, cfg):
    """Clearance after every step of the whole plan, past any penetration."""
    out = []
    for row in plan:
        state = wd.step(state, row, cfg)
        out.append(wd.min_self_distance(state, cfg))
    return np.array(out)


def oracle_clearance(state, plans, cfg):
    """(H, N, K) plan clearances of one oracle pass over a batch of N
    states and their (N, K, H, 4) plans, every state executing a zero
    action."""
    return wd.rollout_and_step(state, plans, np.zeros((len(plans), 4)), cfg, lean_in)[0]


def rollout(state, plan, cfg):
    """The oracle pass's label of one plan from one state."""
    d = oracle_clearance(wd.stack([state]), np.asarray(plan)[None, None], cfg)
    return wd.label_rollouts(d[:, 0], cfg.dt).row(0)


def resimulate(state, plan, cfg):
    """Reference label of one plan: step it alone, checking clearance after
    every step, and stop at the first penetration."""
    cur, y_d = state, np.inf
    for i, row in enumerate(plan):
        cur = wd.step(cur, row, cfg)
        d = wd.min_self_distance(cur, cfg)
        y_d = min(y_d, d)
        if d < 0:
            return wd.RolloutOutcome(y_bin=1, y_d=y_d, y_ttc=(i + 1) * cfg.dt)
    return wd.RolloutOutcome(y_bin=0, y_d=y_d, y_ttc=len(plan) * cfg.dt)


def test_rollout_matches_manual_resimulation(world_cfg):
    rng = np.random.default_rng(14)
    for _ in range(10):
        state = random_state(rng, world_cfg)
        plan = rng.uniform(-0.02, 0.02, size=(5, 4))
        assert rollout(state, plan, world_cfg) == resimulate(state, plan, world_cfg)


@pytest.mark.parametrize("intra_and_inflation", [False, True])
def test_rollout_batch_rows_equal_per_row_resimulation(world_cfg, intra_and_inflation):
    """Every plan of one state's K plans in an oracle pass is labeled, bit
    for bit, as the resimulation of that plan alone and as the reference
    loop labels it, across holding sides, intra-arm pairs, inflation,
    rows that collide at different steps and rows that never collide.
    A row that penetrates at step k and goes deeper later is labeled from
    steps <= k only."""
    cfg = world_cfg
    if intra_and_inflation:
        cfg = replace(world_cfg, include_intra_arm=True, inflation=0.01)
    rng = np.random.default_rng(15)
    # both arms lean in; row k closes the gap at its own speed, the last row backs off
    q = np.array([-0.25, 0.0, 0.0])
    speeds = (0.02, 0.01, 0.006, 0.003, -0.02)
    plans = np.array([np.tile([v, 0.0, -v, 0.0], (6, 1)) for v in speeds])
    plans += rng.uniform(-0.002, 0.002, size=plans.shape)
    ttcs = set()
    for holding in ((True, False), (False, True), (True, True), (False, False)):
        state = wd.make_state(cfg, q, -q, holding_left=holding[0], holding_right=holding[1])
        out = label_rows(wd.label_rollouts(
            oracle_clearance(wd.stack([state]), plans[None], cfg)[:, 0], cfg.dt))
        assert out == label_plans(state, plans, cfg)
        assert len(out) == len(plans)
        for row, label in zip(plans, out):
            assert label == resimulate(state, row, cfg)
        assert out[-1].y_bin == 0 and out[0].y_bin == 1
        d = clearances(state, plans[0], cfg)
        k = int(np.argmax(d < 0.0))
        assert d[k + 1:].min() < d[:k + 1].min()  # deeper after the first penetration
        assert out[0].y_d == d[:k + 1].min() and out[0].y_ttc == (k + 1) * cfg.dt
        ttcs.update(o.y_ttc for o in out if o.y_bin)
        assert rollout(state, plans[1], cfg) == out[1]
    assert len(ttcs) >= 3


def test_oracle_runs_joint_origins_once_per_arm_per_step(world_cfg, monkeypatch):
    """One kinematics call moves both arms: `step` computes joint origins
    once, and `rollout_and_step` (its next plan included) once per horizon
    step whatever the N states and K plans per state, with one clearance
    pass."""
    calls = {"joint_origins": 0, "segment_pairs_distance": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(wd, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(wd, name, counting)

    state = wd.make_state(world_cfg, [0.6, -0.4, -0.2], [0.6, -0.4, -0.2])
    calls["joint_origins"] = 0
    wd.step(state, [0.01, 0.0, -0.01, 0.0], world_cfg)
    assert calls["joint_origins"] == 1
    plans = np.random.default_rng(16).uniform(-0.005, 0.005, size=(8, 3, 5, 4))
    for n in (1, 8):
        for k in (1, 3):
            calls.update(joint_origins=0, segment_pairs_distance=0)
            d = wd.rollout_and_step(wd.stack([state] * n), plans[:n, :k], plans[:n, 0, 0],
                                    world_cfg, lean_in)[0]
            assert d.shape == (5, n, k) and (d > 0.0).all()
            assert calls == {"joint_origins": 5, "segment_pairs_distance": 1}


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("horizon", [1, 5])
def test_rollout_and_step_equals_separate_calls(world_cfg, n, horizon):
    """The fused oracle pass, with K = 1 or 3 plans per state, gives with
    == each plan the clearances of the reference `step` /
    `min_self_distance` loop, and the next state of `step`, that state's
    `min_self_distance` and the row law rolled from it one `step` per row,
    with both arms holding, intra-arm pairs and inflation on, and rows
    that penetrate."""
    cfg = replace(world_cfg, include_intra_arm=True, inflation=0.01)
    rng = np.random.default_rng(21)
    states = [random_state(rng, cfg, holding=True) for _ in range(n - 1)]
    q = np.array([-0.25, 0.0, 0.0])
    states.append(wd.make_state(cfg, q, -q, holding_left=True, holding_right=True))
    state = replace(wd.stack(states), t=np.arange(n) + 3)
    plans = rng.uniform(-0.02, 0.02, size=(n, 3, horizon, 4))
    plans[-1, 0] = [0.02, 0.0, -0.02, 0.0]  # both arms lean in and close the gap
    actions = rng.uniform(-0.02, 0.02, size=(n, 4))
    ref = wd.step(state, actions, cfg)
    rows, cur = [lean_in(ref)], ref
    for _ in range(1, horizon):
        cur = wd.step(cur, rows[-1], cfg)
        rows.append(lean_in(cur))
    for k in (1, 3):
        d, nxt, d_next, plan = wd.rollout_and_step(state, plans[:, :k], actions, cfg, lean_in)
        assert_array_equal(plan, np.stack(rows, axis=1))
        for c in range(k):
            assert_array_equal(d[:, :, c], plan_clearances(state, plans[:, c], cfg))
        for f in ("q", "g", "t", "origins", "heading"):
            assert_array_equal(getattr(nxt, f), getattr(ref, f), err_msg=f)
        assert_array_equal(nxt.holding, ref.holding)
        assert_array_equal(d_next, wd.min_self_distance(ref, cfg))
        assert d.shape == (horizon, n, k) and d_next.shape == (n,)
        assert (d < 0.0).any()


def test_rollout_and_step_labels_alone_without_actions_and_law(world_cfg):
    """Without actions and law, the pass returns the plans' clearances
    alone, equal with == to those of the full pass; actions without a
    law, or a law without actions, raise."""
    cfg = replace(world_cfg, include_intra_arm=True, inflation=0.01)
    rng = np.random.default_rng(24)
    state = wd.stack([random_state(rng, cfg, holding=bool(i % 2)) for i in range(4)])
    plans = rng.uniform(-0.02, 0.02, size=(4, 3, 5, 4))
    actions = rng.uniform(-0.02, 0.02, size=(4, 4))
    full = wd.rollout_and_step(state, plans, actions, cfg, lean_in)[0]
    assert_array_equal(wd.rollout_and_step(state, plans, None, cfg), full)
    for only_actions, only_law in ((actions, None), (None, lean_in)):
        with pytest.raises(ValueError, match="actions and law"):
            wd.rollout_and_step(state, plans, only_actions, cfg, only_law)


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_oracle_pass_measures_in_clearance_chunks(world_cfg, monkeypatch, chunk):
    """The oracle pass measures its configurations in clearance calls of at
    most CLEARANCE_CHUNK, in order, and every output is the same, with ==,
    whatever the chunk, with and without actions."""
    cfg = replace(world_cfg, include_intra_arm=True, inflation=0.01)
    rng = np.random.default_rng(27)
    state = wd.stack([random_state(rng, cfg, holding=bool(i % 2)) for i in range(4)])
    plans = rng.uniform(-0.02, 0.02, size=(4, 3, 5, 4))
    actions = rng.uniform(-0.02, 0.02, size=(4, 4))
    ref = (wd.rollout_and_step(state, plans, actions, cfg, lean_in),
           wd.rollout_and_step(state, plans, None, cfg))
    sizes, real = [], wd._clearance

    def recorded(cfg, holding, origins, heading):
        sizes.append(len(origins))
        return real(cfg, holding, origins, heading)

    monkeypatch.setattr(wd, "_clearance", recorded)
    monkeypatch.setattr(wd, "CLEARANCE_CHUNK", chunk)
    d, nxt, d_next, plan = wd.rollout_and_step(state, plans, actions, cfg, lean_in)
    for got, want in ((d, ref[0][0]), (d_next, ref[0][2]), (plan, ref[0][3]),
                      (nxt.q, ref[0][1].q), (nxt.origins, ref[0][1].origins)):
        assert_array_equal(got, want)
    measured = 4 * 3 * 5 + 4  # the plans' configurations and the next states
    assert sizes == [min(chunk, measured - lo) for lo in range(0, measured, chunk)]
    sizes.clear()
    assert_array_equal(wd.rollout_and_step(state, plans, None, cfg), ref[1])
    measured = 4 * 3 * 5
    assert sizes == [min(chunk, measured - lo) for lo in range(0, measured, chunk)]


def test_joint_origins_rebuild_a_states_cached_kinematics(world_cfg, task_params):
    """`joint_origins` of a state's q gives, with ==, the origins and EE
    heading the state caches: for reset states, states that `step` and the
    oracle pass reach (joint limits clipping some of them) in batches of
    several sizes, and rows taken out of those batches. This is what lets
    `label_in_passes` rebuild a start state from q alone."""
    rng = np.random.default_rng(25)
    states = [reset(wd.TASK_IDS[i % 2], i, world_cfg, task_params)[0] for i in range(4)]
    states += [wd.make_state(world_cfg, [2.75, -2.75, 2.75], [-2.75, 2.75, -2.75]),
               wd.make_state(world_cfg, [-2.75, 2.75, 2.75], [2.75, -2.75, -2.75])]
    batch = wd.stack(states)
    reached = [batch]
    for _ in range(4):
        batch = wd.step(batch, rng.uniform(-0.3, 0.3, size=(6, 4)), world_cfg)
        reached.append(batch)
    assert (np.abs(batch.q) == 2.8).any()  # a joint limit clipped
    nxt = wd.rollout_and_step(batch, rng.uniform(-0.02, 0.02, size=(6, 2, 3, 4)),
                              rng.uniform(-0.02, 0.02, size=(6, 4)), world_cfg, lean_in)[1]
    reached += [nxt, wd.take(nxt, np.array([4, 1])), wd.take(batch, 3), *states]
    for state in reached:
        origins, angles = gm.joint_origins(world_cfg.arms, state.q)
        assert_array_equal(origins, state.origins)
        assert_array_equal(angles[..., -1], state.heading)


def test_label_in_passes_equals_each_rows_labels(world_cfg, monkeypatch):
    """`label_in_passes` gives each row's K plans, with ==, the labels of
    the reference loop run from that row's own state, in state row major
    order. Its passes cover whole rows in order, LABEL_CHUNK // (K * H) of
    them (at least one) each, the last pass the rest; no rows give empty
    label arrays and make no pass."""
    cfg = replace(world_cfg, include_intra_arm=True, inflation=0.01)
    rng = np.random.default_rng(26)
    q = np.array([-0.25, 0.0, 0.0])
    states = [wd.make_state(cfg, q + rng.uniform(-0.3, 0.3, 3), -q + rng.uniform(-0.3, 0.3, 3),
                            holding_left=i % 3 == 1, holding_right=i % 4 == 2) for i in range(9)]
    batch = wd.stack(states)
    passes, real_pass = [], wd.rollout_and_step

    def recorded_pass(state, plans, *args):
        lo = sum(passes)
        assert_array_equal(state.q, batch.q[lo:lo + len(plans)])
        assert plans.shape[1:3] == (k, horizon)
        passes.append(len(plans))
        return real_pass(state, plans, *args)

    monkeypatch.setattr(wd, "rollout_and_step", recorded_pass)
    # chunk 7 holds two rows of K * H = 3 configurations, and no row of 15
    for k, horizon, by_chunk in ((3, 5, {1: [1] * 9, 7: [1] * 9, 1000: [9]}),
                                 (1, 3, {1: [1] * 9, 7: [2, 2, 2, 2, 1], 1000: [9]})):
        plans = rng.uniform(-0.02, 0.02, size=(9, k, horizon, 4))
        plans[:, 0] = [0.02, 0.0, -0.02, 0.0]  # both arms lean in and close the gap
        ref = []
        for state, row in zip(states, plans):
            ref += label_plans(state, row, cfg)
        assert any(label.y_bin for label in ref) and not all(label.y_bin for label in ref)
        for chunk, want in by_chunk.items():
            monkeypatch.setattr(wd, "LABEL_CHUNK", chunk)
            passes.clear()
            assert label_rows(wd.label_in_passes(batch.q, batch.holding, plans, cfg)) == ref
            assert passes == want
        passes.clear()
        empty = wd.label_in_passes(batch.q[:0], batch.holding[:0], plans[:0], cfg)
        for name in ("y_bin", "y_d", "y_ttc"):
            assert getattr(empty, name).shape == (0,)
        assert passes == []


def test_batched_world_rows_equal_single_state_calls(world_cfg, task_params):
    """A batch of states and tasks gives, row for row and bit for bit, what
    each state and task gives alone: `step`, `min_self_distance`, the
    features, `success_check` and the expert's plan and next state."""
    from riskgate import policy as pol
    rng = np.random.default_rng(18)
    pairs = [reset(wd.TASK_IDS[i % 2], i, world_cfg, task_params) for i in range(7)]
    pairs.append((pairs[0][0], replace(pairs[0][1], goal=pairs[0][0].ee)))  # already at goal
    states = [random_state(rng, world_cfg) for _ in range(4)] + [s for s, _ in pairs[4:]]
    tasks = [t for _, t in pairs]
    state, task = wd.stack(states), wd.stack(tasks)
    assert state.q.shape == (8, 2, 3) and task.goal.shape == (8, 2, 2)
    actions = rng.uniform(-0.3, 0.3, size=(8, 4))
    nxt = wd.step(state, actions, world_cfg)
    inflated = replace(world_cfg, inflation=0.01)
    d = wd.min_self_distance(state, inflated)
    p = wd.proprio_feature(state)
    z = wd.scene_feature(state, task, 0.005, [np.random.default_rng(i) for i in range(8)])
    ok = wd.success_check(state, task)
    plan = pol.roll_plan(pol.expert_law(task, world_cfg.a_max), state, 4, world_cfg)
    assert plan.shape == (8, 4, 4) and ok.tolist().count(True) == 1
    for i, (s, t) in enumerate(zip(states, tasks)):
        row = wd.take(nxt, i)
        ref = wd.step(s, actions[i], world_cfg)
        for f in ("q", "g", "holding", "t", "origins", "heading", "ee"):
            assert np.array_equal(getattr(row, f), getattr(ref, f)), f
        assert d[i] == wd.min_self_distance(s, inflated)
        assert np.array_equal(p[i], wd.proprio_feature(s))
        assert np.array_equal(z[i], wd.scene_feature(s, t, 0.005, np.random.default_rng(i)))
        assert ok[i] == wd.success_check(s, t)
        assert np.array_equal(plan[i],
                              pol.roll_plan(pol.expert_law(t, world_cfg.a_max), s, 4, world_cfg))
    # a mask keeps the batch axis
    kept = wd.take(task, np.arange(8) % 2 == 0)
    assert kept.goal.shape == (4, 2, 2)
    assert np.array_equal(kept.goal, np.stack([t.goal for t in tasks[::2]]))
    with pytest.raises(ValueError):
        wd.step(state, actions[0], world_cfg)


def test_step_pins_reference_kernels(world_cfg):
    """`step` equals, with ==, the reference DLS step clipped by `np.clip`
    and the reference joint origins, with joints at their limits and
    increments that push past them."""
    arms, rng = world_cfg.arms, np.random.default_rng(22)
    lo, hi = arms.joint_limits[..., 0], arms.joint_limits[..., 1]
    q = rng.uniform(-2.8, 2.8, size=(32, 2, 3))
    q[:12] = np.where(rng.integers(0, 2, size=(12, 2, 3)) == 1, hi, lo)
    state = wd.stack([wd.make_state(world_cfg, *row) for row in q])
    actions = rng.uniform(-0.3, 0.3, size=(32, 4))
    actions[16:] *= 0.01
    nxt = wd.step(state, actions, world_cfg)
    dq = reference_dls_ik_step(arms, reference_joint_origins(arms, q)[0],
                               actions.reshape(32, 2, 2), world_cfg.mu)
    ref_q = np.clip(q + dq, lo, hi)
    ref_pts, ref_angles = reference_joint_origins(arms, ref_q)
    assert_array_equal(nxt.q, ref_q)
    assert_array_equal(nxt.origins, ref_pts)
    assert_array_equal(nxt.heading, ref_angles[..., -1])
    assert (nxt.q == lo).any() and (nxt.q == hi).any() and ((lo < nxt.q) & (nxt.q < hi)).any()


@pytest.mark.parametrize("mixed", [True, False])
def test_batch_mixing_holding_flags_equals_each_rows_own_call(world_cfg, mixed):
    """A batch whose rows hold objects in all four ways (or, unmixed, hold
    nothing) gives each row, with ==, the `min_self_distance` and
    `rollout_and_step` outputs of that row's own call, and, with K = 1 or
    3 plans per state, each plan the clearances of the reference `step` /
    `min_self_distance` loop, with intra-arm pairs and inflation on and
    rows that penetrate."""
    cfg = replace(world_cfg, include_intra_arm=True, inflation=0.01)
    rng = np.random.default_rng(19)
    flags = [(False, False), (True, False), (False, True), (True, True)] * 4
    if not mixed:
        flags = [(False, False)] * len(flags)
    q = np.array([-0.25, 0.0, 0.0])
    states = [wd.make_state(cfg, q + rng.uniform(-0.4, 0.4, 3), -q + rng.uniform(-0.4, 0.4, 3),
                            holding_left=left, holding_right=right) for left, right in flags]
    state = wd.stack(states)
    assert state.holding.shape == (len(flags), 2)
    plans = rng.uniform(-0.02, 0.02, size=(len(flags), 3, 3, 4))
    actions = rng.uniform(-0.02, 0.02, size=(len(flags), 4))
    d = wd.min_self_distance(state, cfg)
    assert (d < 0.0).any() and (d >= 0.0).any()
    for i, s in enumerate(states):
        assert d[i] == wd.min_self_distance(s, cfg)
    for k in (1, 3):
        fused, nxt, d_next, plan = wd.rollout_and_step(state, plans[:, :k], actions, cfg,
                                                       lean_in)
        for c in range(k):
            assert_array_equal(fused[:, :, c], plan_clearances(state, plans[:, c], cfg))
        for i, s in enumerate(states):
            one, one_nxt, one_d, one_plan = wd.rollout_and_step(
                wd.stack([s]), plans[i:i + 1, :k], actions[i:i + 1], cfg, lean_in)
            assert_array_equal(fused[:, i], one[:, 0])
            assert d_next[i] == one_d[0]
            assert_array_equal(plan[i], one_plan[0])
            for f in ("q", "g", "holding", "t", "origins", "heading"):
                assert_array_equal(getattr(wd.take(nxt, i), f), getattr(one_nxt, f)[0],
                                   err_msg=f)


def test_rollout_batch_per_row_states(world_cfg):
    """Plans from their own states in one oracle pass are labeled as each
    plan's own pass."""
    rng = np.random.default_rng(20)
    q = np.array([-0.25, 0.0, 0.0])
    states, plans = [], []
    for i in range(12):
        v = (0.02, 0.006, -0.02, 0.0)[i % 4]
        states.append(wd.make_state(world_cfg, q + rng.uniform(-0.05, 0.05, 3),
                                    -q + rng.uniform(-0.05, 0.05, 3)))
        plans.append(np.tile([v, 0.0, -v, 0.0], (5, 1)) + rng.uniform(-0.002, 0.002, (5, 4)))
    d = oracle_clearance(wd.stack(states), np.array(plans)[:, None], world_cfg)[..., 0]
    out = label_rows(wd.label_rollouts(d, world_cfg.dt))
    assert out == label_plans(wd.stack(states), plans, world_cfg)
    for s, plan, label in zip(states, plans, out):
        assert label == rollout(s, plan, world_cfg)
    assert {o.y_bin for o in out} == {0, 1}


def test_rollout_censors_ttc_at_horizon(world_cfg):
    state = wd.make_state(world_cfg, [0.6, -0.4, -0.2], [0.6, -0.4, -0.2])
    out = rollout(state, np.zeros((3, 4)), world_cfg)
    assert out.y_bin == 0
    assert out.y_ttc == pytest.approx(3 * world_cfg.dt)


def test_rollout_validates_plan_shape(world_cfg):
    """The oracle pass takes (N, K, H, 4) plans with N, K, H >= 1, a batch
    of N states and (N, 4) actions, and raises ValueError on anything
    else."""
    one = wd.make_state(world_cfg, [0.6, -0.4, -0.2], [0.6, -0.4, -0.2])
    state = wd.stack([one] * 2)
    actions = np.zeros((2, 4))
    for shape in ((2, 1, 0, 4), (2, 1, 3, 5), (2, 0, 3, 4), (0, 1, 3, 4), (2, 3, 4),
                  (1, 2, 1, 3, 4)):
        with pytest.raises(ValueError, match="plans must be"):
            wd.rollout_and_step(state, np.zeros(shape), actions, world_cfg, lean_in)
    plans = np.zeros((2, 3, 4, 4))
    for bad_state, bad_actions in ((one, actions), (wd.stack([one] * 3), actions),
                                   (state, actions[:1]), (state, actions[:, :3]),
                                   (state, actions[0])):
        with pytest.raises(ValueError, match="batch of 2 states"):
            wd.rollout_and_step(bad_state, plans, bad_actions, world_cfg, lean_in)
    assert wd.rollout_and_step(state, plans, actions, world_cfg, lean_in)[0].shape == (4, 2, 3)


def test_task_init_deterministic_and_clear(world_cfg, task_params):
    for tid in wd.TASK_IDS:
        s1, t1 = reset(tid, 123, world_cfg, task_params)
        s2, t2 = reset(tid, 123, world_cfg, task_params)
        assert_allclose(s1.q, s2.q)
        assert_allclose(t1.goal, t2.goal)
        assert wd.min_self_distance(s1, world_cfg) >= task_params.min_start_clearance
    # crossing sends each EE to the opposite half-plane
    _, task = reset("crossing_transfer", 5, world_cfg, task_params)
    assert task.goal[0, 0] > 0 and task.goal[1, 0] < 0
    _, task = reset("parallel_place", 5, world_cfg, task_params)
    assert task.goal[0, 0] < 0 and task.goal[1, 0] > 0


def test_task_init_rejects_unreachable_setup(world_cfg):
    with pytest.raises(ValueError):
        reset("no_such_task", 0, world_cfg)
    strict = wd.TaskParams(min_start_clearance=1.0, max_reset_draws=5)
    with pytest.raises(RuntimeError):
        reset("crossing_transfer", 0, world_cfg, strict)


# Start clearances lie in about [0.26, 0.38] m, so this one rejects about
# half of all draws and many jobs take several
PICKY = wd.TaskParams(min_start_clearance=0.355)
# goals jittered this far fall out of reach for about two jobs in five
PICKY_FAR = replace(PICKY, goal_jitter=0.1)


def reference_reset(task_id, seed, cfg, params):
    """One job reset alone, from single-state calls: jittered goals, then
    start joints redrawn until clear. Returns its state, task, stream and
    the draws it took, or (None, None, stream, draws) when it runs out."""
    rng = np.random.default_rng(np.random.SeedSequence([wd.task_index(task_id), seed]))
    j = params.goal_jitter
    goal = np.stack([c + rng.uniform(-j, j, size=2) for c in wd._GOAL_CENTERS[task_id]])
    mean, j = wd._START_Q_MEAN, params.start_q_jitter
    for draw in range(1, params.max_reset_draws + 1):
        q_l = mean + rng.uniform(-j, j, size=mean.shape)
        q_r = mean + rng.uniform(-j, j, size=mean.shape)
        state = wd.make_state(cfg, q_l, q_r)
        if wd.min_self_distance(state, cfg) >= params.min_start_clearance:
            return state, wd.Task(goal=goal, success_tolerance=params.success_tolerance), rng, draw
    return None, None, rng, params.max_reset_draws


def streams_made(monkeypatch):
    """The generators `np.random.default_rng` makes from now on, in order."""
    made, real = [], np.random.default_rng

    def recorded(*args):
        made.append(real(*args))
        return made[-1]
    monkeypatch.setattr(np.random, "default_rng", recorded)
    return made


def test_batched_reset_rows_equal_each_job_reset_alone(world_cfg, monkeypatch):
    """Row i of one `task_init` call over many jobs equals, with ==, job i
    reset alone by single-state calls, and leaves job i's stream where
    that reset leaves it, also for jobs that take several draws."""
    jobs = [(wd.TASK_IDS[i % 2], 3 * i + 1) for i in range(12)]
    made = streams_made(monkeypatch)
    state, task = wd.task_init(jobs, world_cfg, PICKY)
    assert len(made) == len(jobs)
    draws = []
    for i, (task_id, seed) in enumerate(jobs):
        ref_state, ref_task, ref_rng, n = reference_reset(task_id, seed, world_cfg, PICKY)
        draws.append(n)
        for name, ref in (*vars(ref_state).items(), *vars(ref_task).items()):
            got = getattr(wd.take(state if name in vars(ref_state) else task, i), name)
            assert np.array_equal(got, ref) and np.asarray(got).dtype == np.asarray(ref).dtype, name
        assert made[i].random() == ref_rng.random()
    assert min(draws) == 1 and max(draws) > 2


def test_batched_reset_raises_the_first_failing_jobs_error(world_cfg):
    """Among jobs that fail, the first in job order raises its own error,
    naming it, even when a later job fails in an earlier draw round: an
    unknown task id, an unreachable goal, a start outside the joint limits
    or no clear start in max_reset_draws draws."""
    params = replace(PICKY_FAR, max_reset_draws=2)
    unreachable, late, exhausted = [], [], []
    for seed in range(60):
        try:
            wd.task_init([("crossing_transfer", seed)], world_cfg, PICKY_FAR)
        except ValueError:
            unreachable.append(seed)
            continue
        state, _, _, n = reference_reset("crossing_transfer", seed, world_cfg, params)
        if state is None:
            exhausted.append(seed)
        elif n == 2:
            late.append(seed)
    assert unreachable and late and exhausted
    ok, gone, far = (("crossing_transfer", s[0]) for s in (late, exhausted, unreachable))
    unknown = ("no_such_task", 0)
    for jobs, error, what in (
            ([ok, gone, far, unknown], RuntimeError, f"seed={gone[1]}): no clear start in 2 draws"),
            ([ok, far, gone, unknown], ValueError, f"seed={far[1]}): goal"),
            ([ok, unknown, far, gone], ValueError, "seed=0): unknown task id 'no_such_task'")):
        with pytest.raises(error, match=r"task_init\(") as err:
            wd.task_init(jobs, world_cfg, params)
        assert what in str(err.value)
    wd.task_init([ok, ok], world_cfg, params)
    # a start drawn outside the joint limits fails its job
    wide, outside = replace(PICKY, start_q_jitter=2.4), []
    for seed in range(8):
        try:
            reference_reset("parallel_place", seed, world_cfg, wide)
        except gm.JointLimitError:
            outside.append(seed)
    assert outside and outside[0] > 0
    with pytest.raises(gm.JointLimitError, match=rf"seed={outside[0]}\): start joints"):
        wd.task_init([("parallel_place", s) for s in range(8)], world_cfg, wide)


def test_lockstep_resets_a_group_in_one_clearance_call_per_draw_round(world_cfg, monkeypatch):
    """`lockstep` resets each group with one `task_init` call, which
    measures every start still to be drawn in a draw round in one
    clearance call: as many calls per group as its slowest job's draws."""
    monkeypatch.setattr(wd, "LOCKSTEP_EPISODES", 4)
    jobs = [(wd.TASK_IDS[i % 2], 5 * i) for i in range(10)]
    draws = [reference_reset(*job, world_cfg, PICKY)[3] for job in jobs]
    measured, real = [], wd.min_self_distance

    def counted(state, cfg):
        measured.append(len(state.q))
        return real(state, cfg)
    monkeypatch.setattr(wd, "min_self_distance", counted)
    groups = []
    wd.lockstep(jobs, world_cfg, PICKY,
                lambda t, live, state, task, carry: (groups.append(list(live)) or state,
                                                      np.ones(len(live), dtype=bool), None))
    assert groups == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    want = [sum(n > r for n in draws[lo:lo + 4])
            for lo in range(0, len(jobs), 4) for r in range(max(draws[lo:lo + 4]))]
    assert measured == want and max(draws) > 2


def test_success_check(world_cfg, task_params):
    state, task = reset("parallel_place", 3, world_cfg, task_params)
    assert not wd.success_check(state, task)
    # drive both EEs onto their goals with the oracle-free expert loop
    from riskgate import policy as pol
    cur = state
    for _ in range(task_params.max_steps):
        plan = pol.roll_plan(pol.expert_law(task, world_cfg.a_max), cur, 1, world_cfg)
        cur = wd.step(cur, plan[0], world_cfg)
        if wd.success_check(cur, task):
            break
    assert wd.success_check(cur, task)


def test_scene_and_proprio_features(world_cfg, task_params):
    state, task = reset("crossing_transfer", 9, world_cfg, task_params)
    z = wd.scene_feature(state, task)
    assert z.shape == (10,)
    assert_allclose(z[:4], state.ee.ravel())
    assert_allclose(z[4:8], task.goal.ravel())
    # same stream, same noise
    za = wd.scene_feature(state, task, 0.005, np.random.default_rng(1))
    zb = wd.scene_feature(state, task, 0.005, np.random.default_rng(1))
    assert_allclose(za, zb)
    assert not np.allclose(za, z)
    # noise never lands on the holding flags
    assert za[8] == z[8] and za[9] == z[9]

    p = wd.proprio_feature(state)
    assert p.shape == (14,)
    q = state.q.ravel()
    assert_allclose(p[0:12:2], np.sin(q))
    assert_allclose(p[1:12:2], np.cos(q))
