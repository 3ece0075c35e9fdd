"""Dual-arm simulated world: state, stepping, self-collision distance, tasks.

The same rollout machinery serves as the labeling oracle for the risk
network and as the execution environment for the control loop, so every
function here is deterministic given its inputs (plus an explicit rng where
noise is part of the contract). States are value-like: `step` returns a new
state and never mutates its argument.

A state or task may carry a leading batch axis on every field (`stack`;
`take` selects rows), as `geometry.stack_arms` does for arms; the holding
flags are a field like any other, so one batch may mix them. `step`,
`min_self_distance`, `proprio_feature`, `scene_feature` and
`success_check` then act on every row at once and return arrays over the
batch shape; a single state is the same call without the axis, and its
results have shape (). The kernels give each row the same bits at any
batch size. `lockstep` drives episodes this way: it resets a group of
them in one `task_init` call, whose every draw round measures all the
starts still to be cleared in one clearance call, steps them together
and drops each as it ends, with its rows of what the step body carries
to the next step: the next plans, and for gen-data also the states those
plans' later rows are chosen at, with the clearances measured of them so
far. As gen-data's expert never looks at clearance, its next state is
the oldest of those states, stepped already, so that one kinematics call
per step extends the plan by a row and one clearance call serves H
steps. The plan so carried is, bit for bit, the one the law rolls from
the executed state, as the executed action is its first row.

A state and a task hold both arms on one arm axis of size 2, left arm
first, the axis `geometry.stack_arms` gives `WorldConfig.arms`. Two
kernels do the oracle's work over it. `_advance` moves both arms one
control period in one kinematics call; `_clearance` measures capsule
clearance over any leading batch shape, gathering each capsule pair's
endpoints as the x and y coordinate planes the segment kernel computes
on. Demonstrations and evaluation make one oracle pass per control step,
`rollout_and_step`: it labels K plans per episode, executes each
episode's action and plans the next step. Since a configuration never
depends on clearance, it first advances all H steps of every plan, the
actions beside the plans' first rows in one kinematics call; the
planner's row law, given by the caller, makes its first row at each next
state, and its prediction from there advances in the plans' steps
1..H-1, in the same kinematics calls. Then one clearance pass covers the
plans' and the next states' configurations, and `label_rollouts` turns
the plans' clearances into labels, one array per label field. Since each
row keeps its bits at any batch size, every output equals that of
`step`, `min_self_distance` and the planner called one step at a time.

gen-data's labels never steer its episodes, so it labels them after the
episodes have run: `label_in_passes` runs the same pass without actions
or a law over the recorded start configurations and candidates of one
horizon, whole rows at a time, at most LABEL_CHUNK plan configurations
per pass. Every pass measures its configurations in clearance calls of at
most CLEARANCE_CHUNK, which bounds the kernel's temporaries however large
the pass.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .geometry import (ArmModel, JointLimitError, check_joint_limits, default_arm, dls_ik_step,
                       joint_origins, segment_pairs_distance, stack_arms)

TASK_IDS = ("crossing_transfer", "parallel_place")
A_MAX = 0.02  # per-component EE increment bound, m/step
# Episodes advanced together by `lockstep`. A step's temporaries grow with
# its rows (episodes x plans x horizon in the oracle pass of evaluate and
# the demonstrations); 64 episodes keep peak memory near that of one
# episode at a time and lose little speed to a single batch of every
# episode.
LOCKSTEP_EPISODES = 64
# Plan configurations (a plan row at one of its steps) that one pass of
# `label_in_passes` advances and measures at most, unless one row holds
# more. A pass makes one kinematics call per plan step however many rows
# it holds, and each configuration costs it about 150 bytes of joint
# origins until its clearance is measured; 1024 keeps that near 150 KB.
# `perfbench` `datagen` labels about 2.6k configurations per gen-data, in
# four passes at 1024 and three at 2048, and ran at the same speed with
# either (medians of 6 runs each: 14162 and 14204 labeled plans/s).
LABEL_CHUNK = 1024
# Configurations that one call of the clearance kernel measures at most in
# an oracle pass. The kernel's temporaries take about 2.5 KB per
# configuration, so 256 bounds them near 0.6 MB however large a label pass
# is; on default gen-data the kernel's total time matched that of calls on
# whole 2.6k-configuration passes. A control step of 64 episodes with
# 5-step plans makes two calls.
CLEARANCE_CHUNK = 256


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

    def __post_init__(self):
        if self.arm_left.dof != self.arm_right.dof:
            raise ValueError(
                f"arm_left has {self.arm_left.dof} DoF and arm_right has {self.arm_right.dof}; "
                "both arms step in one kinematics call, so their DoF must be equal")
        for name in ("a_max", "dt", "mu"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("inflation", "grasp_length", "grasp_radius", "noise_sigma"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    @cached_property
    def arms(self) -> ArmModel:
        """Both arms stacked on an arm axis, left then right."""
        return stack_arms(self.arm_left, self.arm_right)


def default_world(**overrides) -> WorldConfig:
    return WorldConfig(
        arm_left=default_arm(base_position=(-0.25, 0.0), base_orientation=np.pi / 2),
        arm_right=default_arm(base_position=(0.25, 0.0), base_orientation=np.pi / 2),
        **overrides,
    )


@dataclass(frozen=True)
class DualArmState:
    """Joint state of both arms with cached forward kinematics.

    Every per-arm value sits on an arm axis of size 2, left arm first, as
    in `WorldConfig.arms`: q (..., 2, n), grippers g (..., 2), holding
    flags (..., 2) (bool), joint origins (..., 2, n+1, 2) and EE headings
    (..., 2). The cached origins and headings always equal the forward
    kinematics of q; use `make_state` (or `step`) so the caches are
    rebuilt on every change. In a batch (`stack`) every field carries a
    leading batch axis.
    """

    q: np.ndarray
    g: np.ndarray
    holding: np.ndarray
    t: int
    origins: np.ndarray
    heading: np.ndarray

    @property
    def ee(self) -> np.ndarray:
        """EE positions (..., 2, 2), left arm first."""
        return self.origins[..., -1, :]


def stack(items):
    """One state or task whose row i is items[i]; every field gains the
    batch axis."""
    first = items[0]
    return replace(first, **{f.name: np.stack([getattr(x, f.name) for x in items])
                             for f in fields(first)})


def take(batch, rows):
    """Rows of a stacked state or task: an index array or mask keeps the
    batch axis, an integer drops it."""
    return replace(batch, **{f.name: getattr(batch, f.name)[rows] for f in fields(batch)})


def lockstep(jobs, cfg: WorldConfig, params: TaskParams, advance) -> None:
    """Run the (task_id, seed) episodes of jobs together, in groups of at
    most LOCKSTEP_EPISODES in job order.

    Each group is reset by one `task_init` call, into one state and task
    stacked in job order. At each step t, `advance(t, live, state, task,
    carry)` gets the job indices of the live rows, in job order, and
    returns the next state, a bool per row and the carry for the next
    step: an array, a state or a tuple of them, each with one row per live
    row (the episode loops carry the next step's plans; gen-data also the
    states its plans' later rows are chosen at and their clearances). Rows
    marked done drop out, from the carry too; carry is None at a group's
    first step. A group ends when no row is live or after params.max_steps
    steps.
    """
    for lo in range(0, len(jobs), LOCKSTEP_EPISODES):
        live = np.arange(lo, min(lo + LOCKSTEP_EPISODES, len(jobs)))
        state, task = task_init([jobs[i] for i in live], cfg, params)
        carry = None
        for t in range(params.max_steps):
            state, done, carry = advance(t, live, state, task, carry)
            if done.all():
                break
            if done.any():
                keep = ~done
                live, state, task = live[keep], take(state, keep), take(task, keep)
                carry = _carried_rows(carry, keep)


def _carried_rows(carry, rows):
    """The rows of a lockstep carry: an array, a state, or a tuple of them."""
    if isinstance(carry, tuple):
        return tuple(_carried_rows(c, rows) for c in carry)
    return carry[rows] if isinstance(carry, np.ndarray) else take(carry, rows)


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
    """Build a state with fresh kinematic caches (joint limits enforced).

    q_left and q_right (..., n) may carry a batch shape; every row then
    gets the same grip, holding flags and t."""
    q = np.stack([np.asarray(q_left, dtype=float), np.asarray(q_right, dtype=float)], axis=-2)
    origins, angles = joint_origins(cfg.arms, q)
    check_joint_limits(cfg.arms, q)
    batch = q.shape[:-2]
    return DualArmState(q=q, g=np.tile(np.array([g_left, g_right], dtype=float), (*batch, 1)),
                        holding=np.tile(np.array([holding_left, holding_right], dtype=bool),
                                        (*batch, 1)),
                        t=np.full(batch, t) if batch else t, origins=origins,
                        heading=angles[..., -1])


@dataclass(frozen=True)
class Task:
    """Goal EE positions (..., 2, 2), left arm first, and the distance
    within which each EE counts as at its goal."""

    goal: np.ndarray
    success_tolerance: float


@dataclass(frozen=True)
class RolloutOutcome:
    """Horizon labels of one executed plan, or of N plans as (N,) arrays
    (`label_rollouts`).

    y_bin is 1 iff some step penetrated (d_min < 0); y_d is the minimum
    clearance over the steps up to and including the first penetrating one
    (all H when collision-free); y_ttc is the first collision time (1-based
    step index times dt), censored at H*dt when collision-free.
    """

    y_bin: int
    y_d: float
    y_ttc: float

    def row(self, i) -> RolloutOutcome:
        """Plan i's labels of a batch, as a Python int and floats."""
        return RolloutOutcome(y_bin=int(self.y_bin[i]), y_d=float(self.y_d[i]),
                              y_ttc=float(self.y_ttc[i]))


def _capsules(cfg: WorldConfig, holding, origins, heading):
    """Chain points (..., 2, k+1, 2) and radii (..., 2, k) of both arms'
    capsules, capsule j running from point j to point j+1.

    The capsules are each arm's links (the points are its joint origins)
    and, when some row holds an object, the grasped object from the EE to a
    tip along its heading, of radius -inf where that arm holds nothing:
    every pair with such a capsule then clears by +inf, so the minimum is
    that of the held capsules alone.
    """
    radii = cfg.arms.link_radii
    if not holding.any():
        return origins, radii
    tip = origins[..., -1, :] + cfg.grasp_length * np.stack([np.cos(heading), np.sin(heading)],
                                                           axis=-1)
    rad = np.empty((*holding.shape, radii.shape[-1] + 1))
    rad[..., :-1] = radii
    rad[..., -1] = np.where(holding, cfg.grasp_radius, -np.inf)
    return np.concatenate([origins, tip[..., None, :]], axis=-2), rad


def _clearance(cfg: WorldConfig, holding, origins, heading) -> np.ndarray:
    """Minimum inflated capsule clearance per configuration.

    origins (..., 2, n+1, 2) and heading (..., 2) are both arms' joint
    origins and EE headings, left arm first, and holding (..., 2) their
    flags over a shape that broadcasts to the leading one; the result has
    the leading shape (...). The pairs' endpoints are gathered as x and y
    coordinate planes, the layout `segment_pairs_distance` computes on.
    """
    points, rad = _capsules(cfg, holding, origins, heading)
    planes = np.moveaxis(points, -1, 0)  # (2, ..., 2, k+1): x, then y
    (pl_l, rad_l), (pl_r, rad_r) = ((planes[..., k, :], rad[..., k, :]) for k in (0, 1))
    m = rad.shape[-1]
    il, ir = np.repeat(np.arange(m), m), np.tile(np.arange(m), m)
    best = _pair_clearance(pl_l, rad_l, il, pl_r, rad_r, ir, cfg.inflation)

    if cfg.include_intra_arm:
        ii, jj = np.triu_indices(m, k=2)  # skip adjacent links (shared joint)
        if len(ii):
            for pl, rad in ((pl_l, rad_l), (pl_r, rad_r)):
                best = np.minimum(best, _pair_clearance(pl, rad, ii, pl, rad, jj, cfg.inflation))
    return best


def _pair_clearance(pl_a, rad_a, ia, pl_b, rad_b, ib, inflation: float) -> np.ndarray:
    """Minimum inflated clearance over the capsule pairs (ia[k] of a, ib[k]
    of b), given each side's chain points as (2, ..., k+1) coordinate
    planes."""
    axis_dist = segment_pairs_distance(pl_a[..., ia], pl_a[..., ia + 1],
                                       pl_b[..., ib], pl_b[..., ib + 1])
    return (axis_dist - (rad_a[..., ia] + rad_b[..., ib] + 2.0 * inflation)).min(axis=-1)


def min_self_distance(state: DualArmState, cfg: WorldConfig):
    """Minimum inflated capsule clearance over all cross-arm pairs, one
    value per row of a batched state (shape () for one state).

    Pairs are every left capsule against every right capsule, where each
    side's capsules are its links plus (when holding) the grasped-object
    capsule extending from the EE along the EE heading. Intra-arm pairs
    between non-adjacent links of one arm join the enumeration only when
    cfg.include_intra_arm is set. Each capsule grows by cfg.inflation.
    """
    return _clearance(cfg, state.holding, state.origins, state.heading)


def _advance(cfg: WorldConfig, q, origins, dx):
    """One DLS step of both arms, clipped to the joint limits.

    q (..., 2, n) are the joint vectors, origins (..., 2, n+1, 2) their
    joint origins and dx (..., 2, 2) the EE increments, left arm first.
    Returns the new q, its joint origins and its cumulative link angles.
    """
    arms = cfg.arms
    q = np.minimum(np.maximum(q + dls_ik_step(arms, origins, dx, cfg.mu),
                              arms.joint_limits[..., 0]), arms.joint_limits[..., 1])
    return (q, *joint_origins(arms, q))


def step(state: DualArmState, action, cfg: WorldConfig) -> DualArmState:
    """Advance one control period: DLS increment per arm, clip to limits.

    action is one plan row [dxL, dyL, dxR, dyR] of Cartesian EE increments
    per state row, shape (..., 4) for a state of batch shape (...); any
    other shape raises ValueError. The Jacobian comes from the state's
    cached kinematics.
    """
    action = np.asarray(action, dtype=float)
    batch = state.q.shape[:-2]
    if action.shape != (*batch, 4):
        raise ValueError(f"action must have shape {(*batch, 4)}, one row per state, "
                         f"got {action.shape}")
    q, origins, ang = _advance(cfg, state.q, state.origins, action.reshape(*batch, 2, 2))
    return replace(state, q=q, t=state.t + 1, origins=origins, heading=ang[..., -1])


def rollout_and_step(state, plans, actions, cfg: WorldConfig, law=None):
    """One oracle pass for a control step of N episodes, which labels K
    plans per episode and plans the next step; or, without actions and
    law, a pass that labels the plans alone.

    state is a batch of N states, plans (N, K, H, 4) holds K plans of H
    rows per state row, actions (N, 4) one action per state row, and law
    maps a batch of N states to their (N, 4) action rows. Returns the
    (H, N, K) clearance after each step of each plan, past any
    penetration; the next state, when state row i executes actions[i];
    its clearance; and the (N, H, 4) plan the law makes from it: the law's
    row at the next state, then its row at the state the rows before it
    lead to, H rows in all (the loop `policy.roll_plan` runs). With actions
    and law None, it returns the plans' clearances alone.

    Step 0 of every plan and the actions advance in one kinematics call,
    with the arithmetic of `step`; each step i >= 1 of every plan and of
    the law's prediction in one more. Then one clearance pass, with the
    arithmetic of `min_self_distance`, covers the plans' configurations,
    each with its state row's holding flags, and the N next states, in
    calls of at most CLEARANCE_CHUNK configurations. Raises ValueError
    unless plans is (N, K, H, 4) with N, K, H >= 1, state a batch of N
    states, and actions (N, 4) and law given together or both None.
    """
    plans = np.asarray(plans, dtype=float)
    if plans.ndim != 4 or plans.shape[3] != 4 or 0 in plans.shape:
        raise ValueError(f"plans must be (N, K, H, 4) with N, K, H >= 1, got {plans.shape}")
    n, k, horizon = plans.shape[:3]
    batch = state.q.shape[:-2]
    if (actions is None) != (law is None):
        raise ValueError("actions and law must be given together, or neither")
    e = 0 if actions is None else n  # executed rows, after the plan rows
    if e:
        actions = np.asarray(actions, dtype=float)
    if batch != (n,) or e and actions.shape != (n, 4):
        raise ValueError(f"plans for {n} states need a batch of {n} states and actions of "
                         f"shape ({n}, 4), got states {batch} and actions "
                         f"{None if actions is None else actions.shape}")
    m = n * k  # plan rows, state row major
    dx = plans.reshape(m, horizon, 2, 2)
    q, pts, step_dx = np.repeat(state.q, k, axis=0), np.repeat(state.origins, k, axis=0), dx[:, 0]
    if e:
        q, pts = np.concatenate([q, state.q]), np.concatenate([pts, state.origins])
        step_dx = np.concatenate([step_dx, actions.reshape(n, 2, 2)])
    q, pts, ang = _advance(cfg, q, pts, step_dx)
    traj, heading, rows = [pts[:m]], [ang[:m, :, -1]], []
    if e:
        executed = cur = replace(state, q=q[m:], t=state.t + 1, origins=pts[m:],
                                 heading=ang[m:, :, -1])
        rows.append(law(cur))
    for i in range(1, horizon):
        step_dx = dx[:, i]
        if e:
            step_dx = np.concatenate([step_dx, rows[-1].reshape(n, 2, 2)])
        q, pts, ang = _advance(cfg, q, pts, step_dx)
        traj.append(pts[:m])
        heading.append(ang[:m, :, -1])
        if e:
            cur = replace(cur, q=q[m:], t=cur.t + 1, origins=pts[m:], heading=ang[m:, :, -1])
            rows.append(law(cur))
    # the plans' configurations, step by step, then the N next states
    holding = np.tile(np.repeat(state.holding, k, axis=0), (horizon, 1))
    measured = len(holding)
    if e:
        holding = np.concatenate([holding, state.holding])
        traj.append(executed.origins)
        heading.append(executed.heading)
    traj, heading = np.concatenate(traj), np.concatenate(heading)  # drops the per-step arrays
    d = np.concatenate([_clearance(cfg, holding[lo:lo + CLEARANCE_CHUNK],
                                   traj[lo:lo + CLEARANCE_CHUNK], heading[lo:lo + CLEARANCE_CHUNK])
                        for lo in range(0, len(holding), CLEARANCE_CHUNK)])
    d_plans = d[:measured].reshape(horizon, n, k)
    if not e:
        return d_plans
    return d_plans, executed, d[measured:], np.stack(rows, axis=1)


def label_rollouts(d, dt: float) -> RolloutOutcome:
    """Labels of N rollouts from their (H, N) step clearances, as one
    RolloutOutcome of (N,) arrays (y_bin as ints).

    Each row is labeled up to and including its first penetrating step, as
    if it stopped there: y_d is the minimum clearance over those steps.
    """
    d = np.asarray(d, dtype=float)
    horizon = len(d)
    hit = d < 0.0
    y_bin = hit.any(axis=0)
    last = np.where(y_bin, hit.argmax(axis=0), horizon - 1)  # last step each row labels
    y_d = np.where(np.arange(horizon)[:, None] <= last, d, np.inf).min(axis=0)
    y_ttc = np.where(y_bin, (last + 1) * dt, horizon * dt)
    return RolloutOutcome(y_bin=y_bin.astype(int), y_d=y_d, y_ttc=y_ttc)


def label_in_passes(q, holding, plans, cfg: WorldConfig) -> RolloutOutcome:
    """Labels of K plans of H rows from each of N start configurations, in
    passes of `rollout_and_step` over whole rows, at most LABEL_CHUNK plan
    configurations each (one row when its K * H alone exceed it).

    q (N, 2, n) and holding (N, 2) are the start states' joint vectors and
    holding flags, plans (N, K, H, 4) their plans, with N >= 0. A pass
    rebuilds its start states' joint origins and EE headings with
    `joint_origins`, which gives the values a state caches; grippers and
    time never enter a label, so they are zero there. Returns one
    RolloutOutcome of (N * K,) arrays, in state row major order: the
    labels `label_rollouts` gives each row's plans.
    """
    plans = np.asarray(plans, dtype=float)
    n, k, horizon = plans.shape[:3]
    per_pass = max(1, LABEL_CHUNK // (k * horizon))
    d = np.empty((horizon, n * k))
    for lo in range(0, n, per_pass):
        hi = min(lo + per_pass, n)
        origins, angles = joint_origins(cfg.arms, q[lo:hi])
        start = DualArmState(q=q[lo:hi], g=np.zeros(holding[lo:hi].shape),
                             holding=holding[lo:hi], t=np.zeros(hi - lo, dtype=int),
                             origins=origins, heading=angles[..., -1])
        d[:, lo * k:hi * k] = rollout_and_step(start, plans[lo:hi], None, cfg).reshape(horizon, -1)
    return label_rollouts(d, cfg.dt)


def scene_feature(state: DualArmState, task: Task, noise_sigma: float = 0.0,
                  rng=None) -> np.ndarray:
    """Synthetic 10-dim scene descriptor standing in for a vision embedding.

    Layout: [ee_left, ee_right, goal_left, goal_right, holding_left,
    holding_right]; Gaussian noise with the given sigma lands on the eight
    position entries only. A batched state and task give one row each, and
    rng is then a sequence of one generator per row.
    """
    batch = state.q.shape[:-2]
    z = np.empty((*batch, 10))
    z[..., 0:4] = state.ee.reshape(*batch, 4)
    z[..., 4:8] = task.goal.reshape(*batch, 4)
    z[..., 8:] = state.holding
    if noise_sigma > 0:
        for row, gen in zip(z.reshape(-1, z.shape[-1]), rng if batch else (rng,), strict=True):
            row[:8] += gen.normal(0.0, noise_sigma, size=8)
    return z


def proprio_feature(state: DualArmState) -> np.ndarray:
    """14-dim proprioception: interleaved sin/cos of the 6 joints + grippers,
    one row per row of a batched state."""
    q = state.q.reshape(*state.q.shape[:-2], -1)
    out = np.empty((*q.shape[:-1], 2 * q.shape[-1] + 2))
    out[..., 0:-2:2] = np.sin(q)
    out[..., 1:-2:2] = np.cos(q)
    out[..., -2:] = state.g
    return out


@dataclass(frozen=True)
class TaskParams:
    """Reset-protocol knobs shared by both task definitions."""

    goal_jitter: float = 0.03
    start_q_jitter: float = 0.1
    min_start_clearance: float = 0.05
    success_tolerance: float = 0.02
    max_steps: int = 300
    max_reset_draws: int = 100

    def __post_init__(self):
        for name, ok, rule in (("goal_jitter", self.goal_jitter >= 0, "finite and >= 0"),
                               ("start_q_jitter", self.start_q_jitter >= 0, "finite and >= 0"),
                               ("success_tolerance", self.success_tolerance > 0,
                                "finite and > 0"),
                               ("min_start_clearance", True, "finite")):
            value = getattr(self, name)
            if not (ok and np.isfinite(value)):
                raise ValueError(f"{name} must be {rule}, got {value}")
        for name in ("max_steps", "max_reset_draws"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


_GOAL_CENTERS = {
    "crossing_transfer": (np.array([0.35, 0.30]), np.array([-0.35, 0.30])),
    "parallel_place": (np.array([-0.35, 0.35]), np.array([0.35, 0.35])),
}
_START_Q_MEAN = np.array([0.6, -0.4, -0.2])  # both arms' start joints, before jitter


def task_init(jobs, cfg: WorldConfig,
              params: TaskParams = TaskParams()) -> tuple[DualArmState, Task]:
    """Seeded resets of the (task_id, seed) jobs, as one state and task
    whose row i is job i's: jittered goals, then start joints redrawn until
    clear.

    crossing_transfer sends each EE to the opposite side of the workspace so
    straight goal paths intersect; parallel_place keeps each arm on its own
    side. Each job draws from a stream of its own, its goals and then its
    starts, so its row and its stream are those of resetting it alone. Each
    draw round draws a start for every job still without a clear one and
    measures them all in one clearance call; a start with clearance below
    min_start_clearance is redrawn. A job fails on an unknown task id or an
    unreachable goal (ValueError), a start outside the joint limits
    (JointLimitError) or max_reset_draws rejections (RuntimeError); the
    first failing job in job order raises its error.
    """
    n = len(jobs)
    rngs, goal, errors = [None] * n, np.empty((n, 2, 2)), {}
    for i, (task_id, seed) in enumerate(jobs):
        try:
            if task_id not in _GOAL_CENTERS:
                raise ValueError(f"unknown task id {task_id!r}; expected one of {TASK_IDS}")
            rng = rngs[i] = np.random.default_rng(
                np.random.SeedSequence([task_index(task_id), int(seed)]))
            j = params.goal_jitter
            goal[i] = [c + rng.uniform(-j, j, size=2) for c in _GOAL_CENTERS[task_id]]
            _check_reachable(goal[i, 0], cfg.arm_left)
            _check_reachable(goal[i, 1], cfg.arm_right)
        except ValueError as e:
            errors[i] = ValueError(f"{_reset_name(jobs[i])}: {e}")
    mean, j, lim = _START_Q_MEAN, params.start_q_jitter, cfg.arms.joint_limits
    q = np.empty((n, 2, len(mean)))
    pending = np.array([i for i in range(n) if i not in errors], dtype=int)
    for _ in range(params.max_reset_draws):
        if not len(pending):
            break
        q[pending] = [[mean + rngs[i].uniform(-j, j, size=mean.shape) for _ in range(2)]
                      for i in pending]
        outside = ((q[pending] < lim[..., 0]) | (q[pending] > lim[..., 1])).any(axis=(1, 2))
        errors.update((i, JointLimitError(f"{_reset_name(jobs[i])}: start joints {q[i].tolist()} "
                                          f"violate limits {lim.tolist()}"))
                      for i in pending[outside])
        pending = pending[~outside]
        start = make_state(cfg, q[pending, 0], q[pending, 1])
        clear = min_self_distance(start, cfg) >= params.min_start_clearance
        pending = pending[~clear]
    errors.update((i, RuntimeError(f"{_reset_name(jobs[i])}: no clear start in "
                                   f"{params.max_reset_draws} draws")) for i in pending)
    if errors:
        raise errors[min(errors)]
    return make_state(cfg, q[:, 0], q[:, 1]), Task(
        goal=goal, success_tolerance=np.full(n, params.success_tolerance))


def _reset_name(job) -> str:
    task_id, seed = job
    return f"task_init({task_id!r}, seed={seed})"


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


def _within(ee, goal, tol):
    # vecdot takes, per row, the dot product `np.linalg.norm` takes of one
    # row, so a row gets the same bits at any batch size (norm with an axis
    # sums the squares and may round differently)
    d = ee - goal
    return np.sqrt(np.vecdot(d, d)) <= tol


def success_check(state: DualArmState, task: Task):
    """True iff both EEs sit within tolerance of their goals: one bool per
    row of a batched state and task (shape () for one)."""
    tol = np.asarray(task.success_tolerance)[..., None]
    return _within(state.ee, task.goal, tol).all(axis=-1)
