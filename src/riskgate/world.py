"""Dual-arm simulated world: state, stepping, self-collision distance, tasks.

The same rollout machinery serves as the labeling oracle for the risk
network and as the execution environment for the control loop, so every
function here is deterministic given its inputs (plus an explicit rng where
noise is part of the contract). States are value-like: `step` returns a new
state and never mutates its argument.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import (ArmModel, default_arm, dls_ik_step, forward_kinematics, joint_origins,
                       link_segments, segment_pairs_distance)

TASK_IDS = ("crossing_transfer", "parallel_place")
A_MAX = 0.02  # per-component EE increment bound, m/step


@dataclass(frozen=True)
class WorldConfig:
    """Arm geometry plus the handful of scalars that define the dynamics."""

    arm_left: ArmModel
    arm_right: ArmModel
    a_max: float = A_MAX
    dt: float = 0.1              # control period, s (10 Hz)
    mu: float = 0.05             # DLS damping, m
    inflation: float = 0.0       # capsule inflation for distance queries, m
    grasp_length: float = 0.10   # grasped-object capsule axis length, m
    grasp_radius: float = 0.02
    include_intra_arm: bool = False
    noise_sigma: float = 0.005   # scene feature position noise, m

    @property
    def dof(self) -> int:
        return self.arm_left.dof + self.arm_right.dof


def default_world(**overrides) -> WorldConfig:
    return WorldConfig(
        arm_left=default_arm(base_position=(-0.25, 0.0), base_orientation=np.pi / 2),
        arm_right=default_arm(base_position=(0.25, 0.0), base_orientation=np.pi / 2),
        **overrides,
    )


@dataclass(frozen=True)
class DualArmState:
    """Joint state of both arms with cached forward kinematics.

    The cached EE poses and link segments always equal the forward
    kinematics of q_left/q_right; use `make_state` (or `step`) so the caches
    are rebuilt on every change.
    """

    q_left: np.ndarray
    q_right: np.ndarray
    g_left: float
    g_right: float
    holding_left: bool
    holding_right: bool
    t: int
    ee_left: np.ndarray
    ee_right: np.ndarray
    heading_left: float
    heading_right: float
    segs_left: np.ndarray   # (n, 2, 2)
    segs_right: np.ndarray


def make_state(
    cfg: WorldConfig,
    q_left,
    q_right,
    g_left: float = 0.0,
    g_right: float = 0.0,
    holding_left: bool = False,
    holding_right: bool = False,
    t: int = 0,
) -> DualArmState:
    """Build a state with fresh kinematic caches (joint limits enforced)."""
    q_left = np.asarray(q_left, dtype=float)
    q_right = np.asarray(q_right, dtype=float)
    segs_l, ee_l, head_l = forward_kinematics(cfg.arm_left, q_left)
    segs_r, ee_r, head_r = forward_kinematics(cfg.arm_right, q_right)
    return DualArmState(
        q_left=q_left, q_right=q_right,
        g_left=float(g_left), g_right=float(g_right),
        holding_left=holding_left, holding_right=holding_right,
        t=t,
        ee_left=ee_l, ee_right=ee_r,
        heading_left=float(head_l), heading_right=float(head_r),
        segs_left=segs_l, segs_right=segs_r,
    )


@dataclass(frozen=True)
class Task:
    id: str
    goal_left: np.ndarray
    goal_right: np.ndarray
    start_q_left: np.ndarray
    start_q_right: np.ndarray
    success_tolerance: float
    max_steps: int


@dataclass(frozen=True)
class RolloutOutcome:
    """Horizon labels of one executed plan.

    y_bin is 1 iff some step penetrated (d_min < 0); y_d is the minimum
    clearance seen over the executed steps; y_ttc is the first collision
    time (1-based step index times dt), censored at H*dt when collision-free.
    """

    y_bin: int
    y_d: float
    y_ttc: float


def _side_capsules(segs, ee, heading, radii, holding: bool, cfg: WorldConfig):
    """Capsule axes (..., k, 2, 2) and radii (k,) of one arm: its links,
    plus the grasped object extending from the EE along the EE heading."""
    if not holding:
        return segs, radii
    tip = ee + cfg.grasp_length * np.stack([np.cos(heading), np.sin(heading)], axis=-1)
    grasp = np.stack([ee, tip], axis=-2)[..., None, :, :]
    return np.concatenate([segs, grasp], axis=-3), np.append(radii, cfg.grasp_radius)


def _clearance(cfg: WorldConfig, holding_left: bool, holding_right: bool,
               left: tuple, right: tuple, inflation: float) -> np.ndarray:
    """Minimum inflated capsule clearance per configuration.

    left and right are each arm's (segs (..., n, 2, 2), ee (..., 2),
    heading (...)); the result has the leading shape (...).
    """
    segs_l, rad_l = _side_capsules(*left, cfg.arm_left.link_radii, holding_left, cfg)
    segs_r, rad_r = _side_capsules(*right, cfg.arm_right.link_radii, holding_right, cfg)
    nl, nr = segs_l.shape[-3], segs_r.shape[-3]
    il, ir = np.repeat(np.arange(nl), nr), np.tile(np.arange(nr), nl)
    best = _pair_clearance(segs_l, rad_l, il, segs_r, rad_r, ir, inflation)

    if cfg.include_intra_arm:
        for segs, rad in ((segs_l, rad_l), (segs_r, rad_r)):
            ii, jj = np.triu_indices(segs.shape[-3], k=2)  # skip adjacent links (shared joint)
            if len(ii):
                best = np.minimum(best, _pair_clearance(segs, rad, ii, segs, rad, jj, inflation))
    return best


def _pair_clearance(segs_a, rad_a, ia, segs_b, rad_b, ib, inflation: float) -> np.ndarray:
    """Minimum inflated clearance over the capsule pairs (ia[k] of a, ib[k] of b)."""
    axis_dist = segment_pairs_distance(segs_a[..., ia, 0, :], segs_a[..., ia, 1, :],
                                       segs_b[..., ib, 0, :], segs_b[..., ib, 1, :])
    return (axis_dist - (rad_a[ia] + rad_b[ib] + 2.0 * inflation)).min(axis=-1)


def min_self_distance(state: DualArmState, cfg: WorldConfig, inflation: float | None = None) -> float:
    """Minimum inflated capsule clearance over all cross-arm pairs.

    Pairs are every left capsule against every right capsule, where each
    side's capsules are its links plus (when holding) the grasped-object
    capsule extending from the EE along the EE heading. Intra-arm pairs
    between non-adjacent links of one arm join the enumeration only when
    cfg.include_intra_arm is set.
    """
    if inflation is None:
        inflation = cfg.inflation
    return float(_clearance(cfg, state.holding_left, state.holding_right,
                            (state.segs_left, state.ee_left, state.heading_left),
                            (state.segs_right, state.ee_right, state.heading_right), inflation))


def _origins(segs: np.ndarray, ee: np.ndarray) -> np.ndarray:
    """Joint origins (..., n+1, 2) recovered from cached link segments and EE."""
    return np.concatenate([segs[..., 0, :], ee[..., None, :]], axis=-2)


def _advance_arm(arm: ArmModel, q, origins, dx, mu: float):
    """One DLS step of joint vectors q (..., n) whose joint origins are
    given, clipped to the joint limits: (new q, its origins, its angles)."""
    dq = dls_ik_step(arm, origins, dx, mu)
    q = np.clip(q + dq, arm.joint_limits[:, 0], arm.joint_limits[:, 1])
    return (q, *joint_origins(arm, q))


def step(state: DualArmState, action, cfg: WorldConfig) -> DualArmState:
    """Advance one control period: DLS increment per arm, clip to limits.

    action is one plan row [dxL, dyL, dxR, dyR] of Cartesian EE increments.
    The Jacobian comes from the state's cached kinematics.
    """
    q_l, pts_l, ang_l = _advance_arm(cfg.arm_left, state.q_left,
                                     _origins(state.segs_left, state.ee_left), action[:2], cfg.mu)
    q_r, pts_r, ang_r = _advance_arm(cfg.arm_right, state.q_right,
                                     _origins(state.segs_right, state.ee_right), action[2:4],
                                     cfg.mu)
    return replace(
        state, q_left=q_l, q_right=q_r, t=state.t + 1,
        ee_left=pts_l[-1], ee_right=pts_r[-1],
        heading_left=float(ang_l[-1]), heading_right=float(ang_r[-1]),
        segs_left=link_segments(pts_l), segs_right=link_segments(pts_r),
    )


def rollout_batch(state: DualArmState, plans, cfg: WorldConfig,
                  inflation: float | None = None) -> list[RolloutOutcome]:
    """Execute N (H, 4) plans from one state; outcome i labels plans[i].

    Every row takes the same per-step arithmetic as `step` followed by
    `min_self_distance`, and stops at its first penetrating step: it leaves
    the live set and its remaining actions are never applied. Raises
    ValueError unless plans is (N, H, 4) with N >= 1 and H >= 1.
    """
    plans = np.asarray(plans, dtype=float)
    if plans.ndim != 3 or plans.shape[2] != 4 or plans.shape[0] < 1 or plans.shape[1] < 1:
        raise ValueError(f"plans must be (N, H, 4) with N, H >= 1, got {plans.shape}")
    if inflation is None:
        inflation = cfg.inflation
    n, horizon = plans.shape[:2]
    y_bin = np.zeros(n, dtype=int)
    y_d = np.full(n, np.inf)
    y_ttc = np.full(n, horizon * cfg.dt)
    live = np.arange(n)

    def rows(a):
        return np.broadcast_to(a, (n, *a.shape))

    q_l, pts_l = rows(state.q_left), rows(_origins(state.segs_left, state.ee_left))
    q_r, pts_r = rows(state.q_right), rows(_origins(state.segs_right, state.ee_right))
    for i in range(horizon):
        q_l, pts_l, ang_l = _advance_arm(cfg.arm_left, q_l, pts_l, plans[live, i, :2], cfg.mu)
        q_r, pts_r, ang_r = _advance_arm(cfg.arm_right, q_r, pts_r, plans[live, i, 2:], cfg.mu)
        d = _clearance(cfg, state.holding_left, state.holding_right,
                       (link_segments(pts_l), pts_l[:, -1], ang_l[:, -1]),
                       (link_segments(pts_r), pts_r[:, -1], ang_r[:, -1]), inflation)
        y_d[live] = np.minimum(y_d[live], d)
        hit = d < 0.0
        if hit.any():
            y_bin[live[hit]] = 1
            y_ttc[live[hit]] = (i + 1) * cfg.dt
            keep = ~hit
            live, q_l, pts_l = live[keep], q_l[keep], pts_l[keep]
            q_r, pts_r = q_r[keep], pts_r[keep]
            if not len(live):
                break
    return [RolloutOutcome(y_bin=int(b), y_d=float(d), y_ttc=float(t))
            for b, d, t in zip(y_bin, y_d, y_ttc)]


def rollout(state: DualArmState, plan, cfg: WorldConfig,
            inflation: float | None = None) -> RolloutOutcome:
    """Label one (H, 4) plan: `rollout_batch` with N = 1.

    Raises ValueError unless the plan is (H, 4) with H >= 1.
    """
    plan = np.asarray(plan, dtype=float)
    if plan.ndim != 2 or plan.shape[1] != 4 or plan.shape[0] < 1:
        raise ValueError(f"plan must be (H, 4) with H >= 1, got {plan.shape}")
    return rollout_batch(state, plan[None], cfg, inflation)[0]


def scene_feature(state: DualArmState, task: Task, noise_sigma: float = 0.0,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Synthetic 10-dim scene descriptor standing in for a vision embedding.

    Layout: [ee_left, ee_right, goal_left, goal_right, holding_left,
    holding_right]; Gaussian noise with the given sigma lands on the eight
    position entries only.
    """
    z = np.concatenate([
        state.ee_left, state.ee_right, task.goal_left, task.goal_right,
        [float(state.holding_left), float(state.holding_right)],
    ])
    if noise_sigma > 0:
        z[:8] += rng.normal(0.0, noise_sigma, size=8)
    return z


def proprio_feature(state: DualArmState) -> np.ndarray:
    """14-dim proprioception: interleaved sin/cos of the 6 joints + grippers."""
    q = np.concatenate([state.q_left, state.q_right])
    enc = np.empty(2 * len(q))
    enc[0::2] = np.sin(q)
    enc[1::2] = np.cos(q)
    return np.concatenate([enc, [state.g_left, state.g_right]])


@dataclass(frozen=True)
class TaskParams:
    """Reset-protocol knobs shared by both task definitions."""

    goal_jitter: float = 0.03
    start_q_mean: tuple = (0.6, -0.4, -0.2)
    start_q_jitter: float = 0.1
    min_start_clearance: float = 0.05
    success_tolerance: float = 0.02
    max_steps: int = 300
    max_reset_draws: int = 100


_GOAL_CENTERS = {
    "crossing_transfer": (np.array([0.35, 0.30]), np.array([-0.35, 0.30])),
    "parallel_place": (np.array([-0.35, 0.35]), np.array([0.35, 0.35])),
}


def task_init(task_id: str, seed: int, cfg: WorldConfig,
              params: TaskParams = TaskParams()) -> tuple[DualArmState, Task]:
    """Seeded reset: jittered goals, then start joints redrawn until clear.

    crossing_transfer sends each EE to the opposite side of the workspace so
    straight goal paths intersect; parallel_place keeps each arm on its own
    side. Start configurations with clearance below min_start_clearance are
    rejected; after max_reset_draws rejections this raises RuntimeError.
    """
    if task_id not in _GOAL_CENTERS:
        raise ValueError(f"unknown task id {task_id!r}; expected one of {TASK_IDS}")
    rng = np.random.default_rng(np.random.SeedSequence([task_index(task_id), int(seed)]))
    center_l, center_r = _GOAL_CENTERS[task_id]
    j = params.goal_jitter
    goal_l = center_l + rng.uniform(-j, j, size=2)
    goal_r = center_r + rng.uniform(-j, j, size=2)
    _check_reachable(goal_l, cfg.arm_left)
    _check_reachable(goal_r, cfg.arm_right)

    mean = np.asarray(params.start_q_mean, dtype=float)
    for _ in range(params.max_reset_draws):
        q_l = mean + rng.uniform(-params.start_q_jitter, params.start_q_jitter, size=mean.shape)
        q_r = mean + rng.uniform(-params.start_q_jitter, params.start_q_jitter, size=mean.shape)
        state = make_state(cfg, q_l, q_r)
        if min_self_distance(state, cfg) >= params.min_start_clearance:
            task = Task(
                id=task_id, goal_left=goal_l, goal_right=goal_r,
                start_q_left=q_l, start_q_right=q_r,
                success_tolerance=params.success_tolerance, max_steps=params.max_steps,
            )
            return state, task
    raise RuntimeError(
        f"task_init({task_id!r}, seed={seed}): no clear start in {params.max_reset_draws} draws"
    )


def task_index(task_id: str) -> int:
    """Position of task_id in TASK_IDS; every per-task seed stream mixes it in."""
    return TASK_IDS.index(task_id)


def _check_reachable(goal: np.ndarray, arm: ArmModel) -> None:
    reach = float(np.sum(arm.link_lengths))
    dist = float(np.linalg.norm(goal - arm.base_position))
    # success needs only |ee - goal| <= tolerance, so a goal slightly past
    # full stretch is still attainable; anything further is a config error
    if dist > reach + 0.015:
        raise ValueError(f"goal {goal} beyond workspace of arm at {arm.base_position}")


def success_check(state: DualArmState, task: Task, collided: bool = False) -> bool:
    """True iff both EEs sit within tolerance of their goals and the episode
    never collided (collision is a terminal failure)."""
    if collided:
        return False
    tol = task.success_tolerance
    return bool(
        np.linalg.norm(state.ee_left - task.goal_left) <= tol
        and np.linalg.norm(state.ee_right - task.goal_right) <= tol
    )
