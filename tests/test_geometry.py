"""Geometry primitives against brute-force oracles.

The closed-form segment distance kernel the oracle runs is checked against
dense parameter sampling, the analytic Jacobian that DLS-IK uses against
central finite differences, and the kinematic chain against a hand-rolled
reference.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from riskgate import geometry as gm


def dense_segment_distance(p0, p1, q0, q1, n=1001):
    """Min distance over an n x n grid of the (s, t) parameter square.

    For each grid point on the first segment, the squared distance to the
    second is a convex quadratic in t, so its grid minimum sits at a grid
    index next to the clamped projection. Checking two indices either side
    of it gives the minimum of the full n x n scan, with the same
    arithmetic per grid pair, at a fraction of the cost.
    """
    t = np.linspace(0.0, 1.0, n)
    a = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    b = q0[None, :] + t[:, None] * (q1 - q0)[None, :]
    v = q1 - q0
    proj = np.clip((a - q0) @ v / max(v @ v, np.finfo(float).tiny), 0.0, 1.0)
    near = np.clip(np.rint(proj * (n - 1)).astype(int)[:, None] + np.arange(-2, 3), 0, n - 1)
    d2 = ((a[:, None, :] - b[near]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.min()))


def segment_distance(p0, p1, q0, q1):
    """`segment_pairs_distance` of one pair, as a float."""
    return float(gm.segment_pairs_distance(p0, p1, q0, q1))


def jacobian(arm, q):
    """The end-effector Jacobian `dls_ik_step` uses, at joint vectors q."""
    return gm._origins_jacobian(gm.joint_origins(arm, q)[0])


def test_segment_distance_matches_dense_sampling():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1.0, 1.0, size=(200, 4, 2))
    exact = gm.segment_pairs_distance(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    worst = 0.0
    for d, (p0, p1, q0, q1) in zip(exact, pts):
        assert d == segment_distance(p0, p1, q0, q1)  # a batch row has its own bits
        ref = dense_segment_distance(p0, p1, q0, q1)
        worst = max(worst, abs(d - ref))
        # grid minimum can only overestimate the true minimum
        assert d <= ref + 1e-12
    assert worst < 2e-3


def test_segment_distance_known_values():
    a, b = (0.0, 0.0), (1.0, 0.0)
    assert segment_distance(a, b, (0.0, 1.0), (1.0, 1.0)) == pytest.approx(1.0)
    # crossing segments touch
    assert segment_distance((-1.0, -1.0), (1.0, 1.0),
                            (-1.0, 1.0), (1.0, -1.0)) == pytest.approx(0.0, abs=1e-12)
    # collinear with a gap
    assert segment_distance(a, b, (2.0, 0.0), (3.0, 0.0)) == pytest.approx(1.0)


def test_degenerate_segments_are_points():
    p = (0.3, 0.4)
    assert segment_distance(p, p, (0.0, 0.0), (1.0, 0.0)) == pytest.approx(0.4)
    q = (2.0, 0.0)
    assert segment_distance(p, p, q, q) == pytest.approx(np.hypot(1.7, 0.4))


def test_forward_kinematics_matches_manual_chain():
    arm = gm.default_arm(base_position=(-0.25, 0.0), base_orientation=np.pi / 2)
    q = np.array([0.6, -0.4, -0.2])
    segs, ee, heading = gm.forward_kinematics(arm, q)

    pos = np.array([-0.25, 0.0])
    angle = np.pi / 2
    pts = [pos.copy()]
    for qi, li in zip(q, arm.link_lengths):
        angle += qi
        pos = pos + li * np.array([np.cos(angle), np.sin(angle)])
        pts.append(pos.copy())
    assert_allclose(segs[:, 0], np.array(pts[:-1]), atol=1e-12)
    assert_allclose(segs[:, 1], np.array(pts[1:]), atol=1e-12)
    assert_allclose(ee, pts[-1], atol=1e-12)
    assert heading == pytest.approx(np.pi / 2 + q.sum())


def test_forward_kinematics_validates_input():
    arm = gm.default_arm()
    with pytest.raises(ValueError):
        gm.forward_kinematics(arm, np.zeros(4))
    with pytest.raises(gm.JointLimitError):
        gm.forward_kinematics(arm, np.array([0.0, 0.0, 3.0]))
    # a batch is checked row by row: one bad row fails the whole call
    with pytest.raises(ValueError):
        gm.forward_kinematics(arm, np.zeros((2, 4)))
    with pytest.raises(gm.JointLimitError):
        gm.forward_kinematics(arm, np.array([[0.0, 0.0, 0.0], [0.0, -3.0, 0.0]]))


def test_batched_kinematics_match_per_row():
    """Every kinematics routine takes leading batch axes; each batch row
    equals the unbatched call on that row bit for bit."""
    arm = gm.default_arm(base_position=(0.25, 0.0), base_orientation=np.pi / 2)
    rng = np.random.default_rng(8)
    qs = rng.uniform(-2.5, 2.5, size=(16, 3))
    dxs = rng.uniform(-0.02, 0.02, size=(16, 2))
    pts, angles = gm.joint_origins(arm, qs)
    segs, ee, heading = gm.forward_kinematics(arm, qs)
    J = jacobian(arm, qs)
    dq = gm.dls_ik_step(arm, pts, dxs, mu=0.05)
    assert pts.shape == (16, 4, 2) and J.shape == (16, 2, 3) and dq.shape == (16, 3)
    for i, q in enumerate(qs):
        p1, a1 = gm.joint_origins(arm, q)
        s1, e1, h1 = gm.forward_kinematics(arm, q)
        assert np.array_equal(pts[i], p1) and np.array_equal(angles[i], a1)
        assert np.array_equal(segs[i], s1) and np.array_equal(ee[i], e1) and heading[i] == h1
        assert np.array_equal(J[i], jacobian(arm, q))
        assert np.array_equal(dq[i], gm.dls_ik_step(arm, p1, dxs[i], mu=0.05))


def test_stacked_arms_match_per_arm():
    """Arms stacked by `stack_arms` broadcast over an arm axis; each arm's
    slice equals the single-arm call bit for bit."""
    left = gm.default_arm(base_position=(-0.25, 0.0), base_orientation=np.pi / 2)
    right = gm.default_arm(base_position=(0.3, 0.1), base_orientation=1.0)
    arms = gm.stack_arms(left, right)
    assert arms.dof == 3
    rng = np.random.default_rng(9)
    qs = rng.uniform(-2.5, 2.5, size=(6, 2, 3))
    dxs = rng.uniform(-0.3, 0.3, size=(6, 2, 2))
    pts, angles = gm.joint_origins(arms, qs)
    segs, ee, heading = gm.forward_kinematics(arms, qs)
    dq = gm.dls_ik_step(arms, pts, dxs, mu=0.05)
    assert pts.shape == (6, 2, 4, 2) and dq.shape == (6, 2, 3)
    for k, arm in enumerate((left, right)):
        p1, a1 = gm.joint_origins(arm, qs[:, k])
        s1, e1, h1 = gm.forward_kinematics(arm, qs[:, k])
        assert np.array_equal(pts[:, k], p1) and np.array_equal(angles[:, k], a1)
        assert np.array_equal(segs[:, k], s1) and np.array_equal(ee[:, k], e1)
        assert np.array_equal(heading[:, k], h1)
        assert np.array_equal(dq[:, k], gm.dls_ik_step(arm, p1, dxs[:, k], mu=0.05))
    with pytest.raises(gm.JointLimitError):
        gm.forward_kinematics(arms, np.array([[0.0, 0.0, 0.0], [0.0, 3.0, 0.0]]))


def test_jacobian_matches_finite_differences():
    arm = gm.default_arm(base_orientation=np.pi / 2)
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(12):
        q = rng.uniform(-2.0, 2.0, size=3)
        J = jacobian(arm, q)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            _, ee_p, _ = gm.forward_kinematics(arm, q + e)
            _, ee_m, _ = gm.forward_kinematics(arm, q - e)
            fd = (ee_p - ee_m) / (2 * h)
            assert_allclose(J[:, j], fd, atol=1e-6)


def test_dls_step_tracks_small_increments():
    arm = gm.default_arm()
    rng = np.random.default_rng(3)
    for _ in range(10):
        q = rng.uniform(-1.5, 1.5, size=3)
        dx = rng.uniform(-0.01, 0.01, size=2)
        dq = gm.dls_ik_step(arm, gm.joint_origins(arm, q)[0], dx, mu=0.05)
        assert np.all(np.abs(dq) <= arm.joint_velocity_limit + 1e-15)
        realized = jacobian(arm, q) @ dq
        # damping trades tracking accuracy for stability; small mu, small gap
        assert np.linalg.norm(realized - dx) <= 0.5 * np.linalg.norm(dx) + 1e-9


def test_dls_step_finite_at_singularity():
    arm = gm.default_arm()
    origins, _ = gm.joint_origins(arm, np.zeros(3))
    dq = gm.dls_ik_step(arm, origins, np.array([0.0, 0.05]), mu=0.05)
    assert np.all(np.isfinite(dq))
    with pytest.raises(ValueError):
        gm.dls_ik_step(arm, origins, np.array([0.01, 0.0]), mu=0.0)
