"""Geometry primitives against brute-force oracles.

The closed-form segment distance kernel the oracle runs is checked against
dense parameter sampling, the analytic Jacobian that DLS-IK uses against
central finite differences, and the kinematic chain against a hand-rolled
reference. The `reference_*` kernels keep the straightforward numpy
formulas (einsum dot products, `np.stack`, `np.clip`) that the production
kernels must match bit for bit, so a kernel change that moves any output
bit fails here.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

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


def _reference_point_segment_dist2(p, a, b):
    ab = b - a
    denom = np.einsum("...i,...i", ab, ab)
    t = np.einsum("...i,...i", p - a, ab) / np.where(denom < gm._EPS, 1.0, denom)
    t = np.clip(np.where(denom < gm._EPS, 0.0, t), 0.0, 1.0)
    d = p - (a + t[..., None] * ab)
    return np.einsum("...i,...i", d, d)


def reference_segment_pairs_distance(p0, p1, q0, q1):
    """`segment_pairs_distance` with einsum dot products."""
    u, v, w0 = p1 - p0, q1 - q0, p0 - q0
    a = np.einsum("...i,...i", u, u)
    b = np.einsum("...i,...i", u, v)
    c = np.einsum("...i,...i", v, v)
    d = np.einsum("...i,...i", u, w0)
    e = np.einsum("...i,...i", v, w0)
    det = a * c - b * b
    safe = np.where(det < gm._EPS, 1.0, det)
    s = (b * e - c * d) / safe
    t = (a * e - b * d) / safe
    inside = (det >= gm._EPS) & (s >= 0.0) & (s <= 1.0) & (t >= 0.0) & (t <= 1.0)
    di = (p0 + s[..., None] * u) - (q0 + t[..., None] * v)
    best = np.where(inside, np.einsum("...i,...i", di, di), np.inf)
    for pt, a0, a1 in ((q0, p0, p1), (q1, p0, p1), (p0, q0, q1), (p1, q0, q1)):
        best = np.minimum(best, _reference_point_segment_dist2(pt, a0, a1))
    return np.sqrt(best)


def reference_joint_origins(arm, q):
    """`joint_origins` with the link steps built by `np.stack`."""
    angles = np.asarray(arm.base_orientation)[..., None] + np.cumsum(q, axis=-1)
    steps = arm.link_lengths[..., None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    pts = np.empty((*q.shape[:-1], arm.dof + 1, 2))
    pts[..., 0, :] = arm.base_position
    pts[..., 1:, :] = arm.base_position[..., None, :] + np.cumsum(steps, axis=-2)
    return pts, angles


def reference_dls_ik_step(arm, origins, dx, mu):
    """`dls_ik_step` with the Jacobian built by `np.stack`, a fresh identity
    and `np.clip`."""
    rel = origins[..., -1:, :] - origins[..., :-1, :]
    J = np.stack([-rel[..., 1], rel[..., 0]], axis=-2)
    Jt = np.swapaxes(J, -1, -2)
    dq = (Jt @ np.linalg.solve(J @ Jt + (mu * mu) * np.eye(2), dx[..., None]))[..., 0]
    lim = np.asarray(arm.joint_velocity_limit)[..., None]
    return np.clip(dq, -lim, lim)


def segment_distance(p0, p1, q0, q1):
    """`segment_pairs_distance` of one pair, whose (2,) points are their
    own coordinate planes, as a float."""
    return float(gm.segment_pairs_distance(p0, p1, q0, q1))


def jacobian(arm, q):
    """The end-effector Jacobian `dls_ik_step` uses, at joint vectors q."""
    return gm._origins_jacobian(gm.joint_origins(arm, q)[0])


def planes(pairs):
    """The (2, ...) x and y coordinate planes of (..., 2) points."""
    return np.moveaxis(pairs, -1, 0)


def scalar_segment_distance(p0, p1, q0, q1):
    """One pair's segment distance in Python float arithmetic, operation
    for operation that of `segment_pairs_distance`: the interior
    stationary point when it lies inside the parameter square, and the
    four clamped edge projections."""
    (p0x, p0y), (p1x, p1y), (q0x, q0y), (q1x, q1y) = (map(float, x) for x in (p0, p1, q0, q1))

    def dot(x0, x1, y0, y1):
        return x0 * y0 + x1 * y1

    def edge(px, py, ax, ay, abx, aby, num, length2):
        t = 0.0 if length2 < gm._EPS else min(max(num / length2, 0.0), 1.0)
        dx, dy = px - (ax + t * abx), py - (ay + t * aby)
        return dot(dx, dy, dx, dy)

    ux, uy, vx, vy = p1x - p0x, p1y - p0y, q1x - q0x, q1y - q0y
    wx, wy = p0x - q0x, p0y - q0y
    a, b, c = dot(ux, uy, ux, uy), dot(ux, uy, vx, vy), dot(vx, vy, vx, vy)
    d, e = dot(ux, uy, wx, wy), dot(vx, vy, wx, wy)
    det = a * c - b * b
    safe = 1.0 if det < gm._EPS else det
    s, t = (b * e - c * d) / safe, (a * e - b * d) / safe
    best = math.inf
    if det >= gm._EPS and 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0:
        dx, dy = (p0x + s * ux) - (q0x + t * vx), (p0y + s * uy) - (q0y + t * vy)
        best = dot(dx, dy, dx, dy)
    return math.sqrt(min(best, edge(q0x, q0y, p0x, p0y, ux, uy, -d, a),
                         edge(q1x, q1y, p0x, p0y, ux, uy, dot(q1x - p0x, q1y - p0y, ux, uy), a),
                         edge(p0x, p0y, q0x, q0y, vx, vy, e, c),
                         edge(p1x, p1y, q0x, q0y, vx, vy, dot(p1x - q0x, p1y - q0y, vx, vy), c)))


def test_plane_kernel_equals_scalar_reference():
    """`segment_pairs_distance` on contiguous x and y planes gives every
    pair, with ==, the distance of the per-pair scalar reference: on
    zero-length, parallel, collinear, touching and crossing pairs, and on
    random batches of 1 to 3,000 pairs; a strided view of interleaved
    pairs gives the same bits."""
    rng = np.random.default_rng(45)
    p0, p1 = rng.uniform(-1.0, 1.0, size=(2, 8, 2))
    shift = rng.uniform(-0.5, 0.5, size=(8, 2))
    special = np.concatenate([
        np.stack([p0, p0, p1, p1 + shift], axis=1),                 # first is a point
        np.stack([p0, p1, p1, p1], axis=1),                         # second is a point
        np.stack([p0, p0, p1, p1], axis=1),                         # both are points
        np.stack([p0, p0, p0, p0], axis=1),                         # one point twice
        np.stack([p0, p1, p0 + shift, p1 + shift], axis=1),         # parallel
        np.stack([p0, p1, p1, p0], axis=1),                         # antiparallel, same line
        np.stack([p0, p1, p0 + 2.0 * (p1 - p0), p0 + 3.0 * (p1 - p0)], axis=1),  # collinear gap
        np.stack([p0, p1, p1, p1 + shift], axis=1),                 # touching at an end
        np.stack([p0, p1, 0.5 * (p0 + p1), 0.5 * (p0 + p1) + shift], axis=1),  # end touches side
        np.stack([p0, p1, p0 + shift, p1 - shift], axis=1),         # crossing or near
    ])
    batches = [special] + [rng.uniform(-1.0, 1.0, size=(n, 4, 2)) for n in (1, 2, 17, 300, 3000)]
    for pairs in batches:
        contiguous = np.ascontiguousarray(planes(pairs))  # (2, n, 4)
        got = gm.segment_pairs_distance(*(np.ascontiguousarray(contiguous[..., k])
                                          for k in range(4)))
        assert got.shape == (len(pairs),)
        assert got.tolist() == [scalar_segment_distance(*pair) for pair in pairs]
        assert_array_equal(gm.segment_pairs_distance(*(planes(pairs[:, k]) for k in range(4))),
                           got)
    touching = gm.segment_pairs_distance(*(planes(special[56:72, k]) for k in range(4)))
    assert (touching == 0.0).all()


def test_segment_distance_matches_dense_sampling():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1.0, 1.0, size=(200, 4, 2))
    exact = gm.segment_pairs_distance(*(planes(pts[:, k]) for k in range(4)))
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


def test_segment_distance_pins_reference_bits():
    """`segment_pairs_distance` equals the einsum reference with == on a
    datagen-shaped random batch and on zero-length, parallel, collinear
    and crossing pairs."""
    rng = np.random.default_rng(43)
    pts = rng.uniform(-1.0, 1.0, size=(5, 8, 9, 4, 2))
    p0, p1 = rng.uniform(-1.0, 1.0, size=(2, 12, 2))
    shift = rng.uniform(-0.5, 0.5, size=(12, 2))
    special = np.stack([
        np.stack([p0, p0, p1, p1 + shift], axis=1),                 # first is a point
        np.stack([p0, p0, p1, p1], axis=1),                         # both are points
        np.stack([p0, p1, p0 + shift, p1 + shift], axis=1),         # parallel
        np.stack([p0, p1, p1, p0], axis=1),                         # antiparallel, same line
        np.stack([p0, p1, p0 + 2.0 * (p1 - p0), p0 + 3.0 * (p1 - p0)], axis=1),  # collinear gap
        np.stack([p0, p1, p0 + shift, p1 - shift], axis=1),         # crossing or near
    ])
    for batch in (pts, special, pts[0, 0, 0]):
        got = gm.segment_pairs_distance(*(planes(batch[..., k, :]) for k in range(4)))
        ref = reference_segment_pairs_distance(*(batch[..., k, :] for k in range(4)))
        assert_array_equal(got, ref)


def test_kinematics_pin_reference_bits():
    """`joint_origins` and `dls_ik_step` equal their reference formulas with
    == on stacked arms, joints at their limits, a singular straight arm,
    and increments large enough that the velocity limit clips them."""
    arms = gm.stack_arms(gm.default_arm(base_position=(-0.25, 0.0), base_orientation=np.pi / 2),
                         gm.default_arm(base_position=(0.3, 0.1), base_orientation=1.0))
    rng = np.random.default_rng(44)
    qs = rng.uniform(-2.8, 2.8, size=(40, 2, 3))
    lo, hi = arms.joint_limits[..., 0], arms.joint_limits[..., 1]
    qs[:8] = np.where(rng.integers(0, 2, size=(8, 2, 3)) == 1, hi, lo)  # every joint at a limit
    qs[8:12] = hi
    qs[12] = 0.0  # straight, singular arm
    dxs = rng.uniform(-0.3, 0.3, size=(40, 2, 2))
    dxs[20:] *= 0.01
    lim = arms.joint_velocity_limit[:, None]
    for q, dx in ((qs, dxs), (qs[0], dxs[0])):
        pts, angles = gm.joint_origins(arms, q)
        ref_pts, ref_angles = reference_joint_origins(arms, q)
        assert_array_equal(pts, ref_pts)
        assert_array_equal(angles, ref_angles)
        dq = gm.dls_ik_step(arms, pts, dx, mu=0.05)
        assert_array_equal(dq, reference_dls_ik_step(arms, pts, dx, mu=0.05))
        if q.ndim == 3:
            assert (np.abs(dq) < lim).any() and (dq == lim).any() and (dq == -lim).any()
    one = gm.default_arm()
    q = rng.uniform(-2.8, 2.8, size=(6, 3))
    assert_array_equal(gm.joint_origins(one, q)[0], reference_joint_origins(one, q)[0])
