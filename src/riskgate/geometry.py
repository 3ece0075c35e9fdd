"""Planar kinematics and the segment distance kernel of the capsule oracle.

Everything here is a pure function of its inputs (no hidden state), so the
simulator, the labeling oracle and the gate's batched calls can share these
routines freely. Units are meters and radians throughout.

Points are (..., 2) pairs everywhere but in the segment kernel, which
takes x and y coordinate planes, (2, ...) arrays: the oracle's clearance
pass gathers its capsule endpoints in that layout, so every step of the
kernel runs over whole contiguous planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-12
_EYE2 = np.eye(2)


class JointLimitError(ValueError):
    """A joint angle falls outside its configured [lo, hi] interval."""


@dataclass(frozen=True)
class ArmModel:
    """Geometry and limits of one planar chain.

    Attributes:
        base_position: world position of joint 0 (m).
        base_orientation: world heading of the chain root (rad).
        link_lengths: per-link lengths (m), all finite and > 0.
        link_radii: per-link capsule radii (m), all finite and >= 0.
        joint_limits: per-joint [lo, hi] (rad), lo < hi.
        joint_velocity_limit: per-step joint increment bound (rad/step).
    """

    base_position: np.ndarray
    base_orientation: float
    link_lengths: np.ndarray
    link_radii: np.ndarray
    joint_limits: np.ndarray
    joint_velocity_limit: float

    def __post_init__(self):
        object.__setattr__(self, "base_position", np.asarray(self.base_position, dtype=float))
        object.__setattr__(self, "link_lengths", np.asarray(self.link_lengths, dtype=float))
        object.__setattr__(self, "link_radii", np.asarray(self.link_radii, dtype=float))
        object.__setattr__(self, "joint_limits", np.asarray(self.joint_limits, dtype=float))
        if not np.all(np.isfinite(self.link_lengths) & (self.link_lengths > 0)):
            raise ValueError(f"link lengths must be finite and > 0, got {self.link_lengths}")
        if not np.all(np.isfinite(self.link_radii) & (self.link_radii >= 0)):
            raise ValueError(f"link radii must be finite and >= 0, got {self.link_radii}")
        if np.any(self.joint_limits[..., 0] >= self.joint_limits[..., 1]):
            raise ValueError("joint limits require lo < hi")
        if np.any(np.asarray(self.joint_velocity_limit) <= 0):
            raise ValueError("joint velocity limit must be > 0")

    @property
    def dof(self) -> int:
        return self.link_lengths.shape[-1]


def stack_arms(*arms: ArmModel) -> ArmModel:
    """One ArmModel whose every field carries a leading arm axis.

    `joint_origins`, `forward_kinematics` and `dls_ik_step` broadcast over
    that axis, so one call advances all the arms: q (..., k, n) for k arms.
    The arms must share their DoF.
    """
    return ArmModel(
        base_position=np.stack([arm.base_position for arm in arms]),
        base_orientation=np.array([arm.base_orientation for arm in arms], dtype=float),
        link_lengths=np.stack([arm.link_lengths for arm in arms]),
        link_radii=np.stack([arm.link_radii for arm in arms]),
        joint_limits=np.stack([arm.joint_limits for arm in arms]),
        joint_velocity_limit=np.array([arm.joint_velocity_limit for arm in arms], dtype=float),
    )


def default_arm(base_position=(0.0, 0.0), base_orientation: float = 0.0) -> ArmModel:
    """Tabletop-scale 3-link arm used by the default world configuration."""
    return ArmModel(
        base_position=np.asarray(base_position, dtype=float),
        base_orientation=base_orientation,
        link_lengths=np.array([0.30, 0.25, 0.15]),
        link_radii=np.array([0.03, 0.03, 0.03]),
        joint_limits=np.array([[-2.8, 2.8]] * 3),
        joint_velocity_limit=0.1,
    )


def _dot2(x, y):
    """Dot products of coordinate pairs x and y, each an x plane then a y
    plane (x[0], x[1]). x0*y0 + x1*y1 is the sum `np.einsum("...i,...i")`
    forms over interleaved pairs, so it has einsum's bits, at a fraction of
    its dispatch cost; only a zero may differ in sign, and every distance
    below squares it away."""
    out = x[0] * y[0]
    out += x[1] * y[1]
    return out


def _edge_dist2(p, a, ab, num, small, safe):
    """Squared distance from points p to segments [a, a + ab], all (2, ...)
    coordinate planes, given num = (p - a).ab, small = |ab|^2 < _EPS and
    safe = |ab|^2 where not small and 1 where small: the clamped projection
    of p on the segment, a zero-length segment taken as its point a."""
    t = num / safe
    t = np.clip(np.where(small, 0.0, t), 0.0, 1.0)
    d = p - (a + t * ab)
    return _dot2(d, d)


def segment_pairs_distance(p0, p1, q0, q1) -> np.ndarray:
    """Minimum distances between segment pairs [p0,p1] and [q0,q1].

    Every input holds coordinate planes: a (2, ...) array whose [0] holds
    the x and whose [1] the y coordinates of a batch (...), so each
    operation below runs over whole planes instead of interleaved (..., 2)
    pairs, with the same arithmetic per element; the planes are contiguous
    when the input is. The batch shapes must have one rank and broadcast;
    the result has the broadcast batch shape.

    The minimum over the (s, t) parameter square is attained either at the
    interior stationary point (when it lies inside the square) or on one of
    the four edges, each of which reduces to a clamped point-to-segment
    projection, so taking the min over those five candidates is exact.
    Zero-length segments degrade to points through the same clamping. The
    edges reuse the axes u, v, their squared lengths a, c and the
    projections e = w0.v and -d = (q0 - p0).u; a product's order does not
    change its bits, and the one zero whose sign -d may flip is squared
    away.
    """
    p0, p1, q0, q1 = (np.asarray(x, dtype=float) for x in (p0, p1, q0, q1))
    u = p1 - p0
    v = q1 - q0
    w0 = p0 - q0
    a = _dot2(u, u)
    b = _dot2(u, v)
    c = _dot2(v, v)
    d = _dot2(u, w0)
    e = _dot2(v, w0)
    det = a * c - b * b

    safe = np.where(det < _EPS, 1.0, det)
    s = (b * e - c * d) / safe
    t = (a * e - b * d) / safe
    inside = (det >= _EPS) & (s >= 0.0) & (s <= 1.0) & (t >= 0.0) & (t <= 1.0)
    di = (p0 + s * u) - (q0 + t * v)
    interior = np.where(inside, _dot2(di, di), np.inf)

    small_u, small_v = a < _EPS, c < _EPS
    safe_u, safe_v = np.where(small_u, 1.0, a), np.where(small_v, 1.0, c)
    best = np.minimum(interior, _edge_dist2(q0, p0, u, -d, small_u, safe_u))
    best = np.minimum(best, _edge_dist2(q1, p0, u, _dot2(q1 - p0, u), small_u, safe_u))
    best = np.minimum(best, _edge_dist2(p0, q0, v, e, small_v, safe_v))
    best = np.minimum(best, _edge_dist2(p1, q0, v, _dot2(p1 - q0, v), small_v, safe_v))
    return np.sqrt(best)


def joint_origins(arm: ArmModel, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint origin points (..., n+1, 2) and cumulative link angles (..., n)
    of joint vectors q (..., n).

    For arms stacked by `stack_arms`, q is (..., k, n) with the arm axis
    last but one, and the results carry it too: (..., k, n+1, 2), (..., k, n).
    """
    q = np.asarray(q, dtype=float)
    if q.ndim < 1 or q.shape[-1] != arm.dof:
        raise ValueError(f"expected {arm.dof} joint angles, got shape {q.shape}")
    angles = np.asarray(arm.base_orientation)[..., None] + np.cumsum(q, axis=-1)
    steps = np.empty((*angles.shape, 2))
    np.cos(angles, out=steps[..., 0])
    np.sin(angles, out=steps[..., 1])
    steps *= arm.link_lengths[..., None]
    pts = np.empty((*q.shape[:-1], arm.dof + 1, 2))
    pts[..., 0, :] = arm.base_position
    pts[..., 1:, :] = arm.base_position[..., None, :] + np.cumsum(steps, axis=-2)
    return pts, angles


def link_segments(origins: np.ndarray) -> np.ndarray:
    """(..., n, 2, 2) link segments [p0, p1] between consecutive joint origins."""
    return np.stack([origins[..., :-1, :], origins[..., 1:, :]], axis=-2)


def forward_kinematics(arm: ArmModel, q: np.ndarray):
    """Link segments, end-effector position and heading for joint vectors q (..., n).

    Link i runs from joint i's origin to joint i+1's origin at cumulative
    angle base_orientation + sum(q[:i+1]).

    Returns:
        (link_segments, ee_position, ee_heading) shaped (..., n, 2, 2),
        (..., 2) and (...).

    Raises:
        ValueError: q has the wrong length.
        JointLimitError: some joint angle lies outside its joint limits.
    """
    q = np.asarray(q, dtype=float)
    pts, angles = joint_origins(arm, q)
    check_joint_limits(arm, q)
    return link_segments(pts), pts[..., -1, :].copy(), angles[..., -1]


def check_joint_limits(arm: ArmModel, q: np.ndarray) -> None:
    """Raise JointLimitError if some joint angle of q (..., n), or of q
    (..., k, n) for stacked arms, lies outside its joint limits."""
    if np.any(q < arm.joint_limits[..., 0]) or np.any(q > arm.joint_limits[..., 1]):
        raise JointLimitError(f"joint vector {q} violates limits {arm.joint_limits.tolist()}")


def _origins_jacobian(origins: np.ndarray) -> np.ndarray:
    """Analytic (..., 2, n) end-effector position Jacobian from the joint
    origins (..., n+1, 2): column j is the 90-degree CCW rotation of
    (ee - joint_j_origin)."""
    rel = origins[..., -1:, :] - origins[..., :-1, :]  # (..., n, 2)
    J = np.empty((*rel.shape[:-2], 2, rel.shape[-2]))
    np.negative(rel[..., 1], out=J[..., 0, :])
    J[..., 1, :] = rel[..., 0]
    return J


def dls_ik_step(arm: ArmModel, origins: np.ndarray, dx: np.ndarray, mu: float) -> np.ndarray:
    """Damped-least-squares joint increment realizing EE increment dx.

    origins are the (..., n+1, 2) joint origins of the current joint vector
    (see `joint_origins`) and dx is (..., 2). dq = J^T (J J^T + mu^2 I)^{-1} dx,
    then clipped componentwise to the per-step velocity limit. mu > 0 keeps
    the 2x2 solve well-posed at singular configurations. For arms stacked by
    `stack_arms`, origins are (..., k, n+1, 2), dx is (..., k, 2) and dq
    is (..., k, n).
    """
    if mu <= 0:
        raise ValueError("damping mu must be > 0")
    dx = np.asarray(dx, dtype=float)
    J = _origins_jacobian(origins)
    Jt = np.swapaxes(J, -1, -2)
    A = J @ Jt + (mu * mu) * _EYE2
    dq = (Jt @ np.linalg.solve(A, dx[..., None]))[..., 0]
    lim = np.asarray(arm.joint_velocity_limit)[..., None]
    return np.minimum(np.maximum(dq, -lim), lim)
