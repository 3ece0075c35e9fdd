"""Run-time safety layer around the risk estimator.

Hysteresis gate state machine (RUN / BLOCKED / HALTED with a saturation
watchdog), soft velocity scaling, lowest-risk candidate selection,
projected-gradient recovery toward a low-risk plan, test-time plan
refinement, and a distance-head damping fallback for when recovery stalls.

Recovery and refinement are rows of one batched descent (`descend`), each
row with its own objective, step size and stop, and with the bits of its
search run alone; each row's context is encoded once per call, and every
evaluated plan costs one plan-scoring row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import estimator as est
from .world import A_MAX

RUN = "RUN"
BLOCKED = "BLOCKED"
HALTED = "HALTED"

EXECUTE = "EXECUTE"
BLOCK = "BLOCK"
HALT = "HALT"

_BOX_TOL = 1e-12


@dataclass(frozen=True)
class GateConfig:
    """Gate thresholds plus the recovery and refinement search settings.

    tau_down < tau_up gives the hysteresis band that prevents chattering;
    r_sat/watchdog_window define the halt condition.
    """

    tau_up: float = 0.7
    tau_down: float = 0.35
    k_resume: int = 3          # consecutive safe cycles required to resume
    r_sat: float = 0.99
    watchdog_window: int = 50  # saturated cycles in BLOCKED before HALT
    d0: float = 0.02           # clearance margin for the distance fallback, m
    a_max: float = A_MAX       # per-step action box half-width, m
    lambda_reg: float = 0.1    # recover: weight of the ||A||^2 stay-still prior
    alpha: float = 1.0         # refine: weight of ||A' - nominal||^2
    beta: float = 2.0          # refine: weight of the risk term
    eta: float = 0.05          # descent: initial step size of every iteration
    max_iters: int = 10
    max_halvings: int = 5      # step-size halvings before an iteration gives up

    def __post_init__(self):
        if not (0.0 < self.tau_down < self.tau_up < 1.0):
            raise ValueError("need 0 < tau_down < tau_up < 1")
        if self.k_resume < 1 or self.watchdog_window < 1:
            raise ValueError("k_resume and watchdog_window must be >= 1")
        if not self.r_sat >= self.tau_up:  # NaN fails too
            raise ValueError(f"r_sat must be >= tau_up, got {self.r_sat}")
        for name in ("d0", "a_max"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not (0.0 < self.eta < np.inf):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.max_halvings < 0:
            raise ValueError(f"max_halvings must be >= 0, got {self.max_halvings}")
        for name in ("lambda_reg", "alpha", "beta"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class GateState:
    mode: str = RUN
    safe_count: int = 0
    sat_count: int = 0


def gate_step(gate: GateState, r_hat: float, cfg: GateConfig):
    """One gate transition. Pure function of (gate, r_hat, cfg).

    Returns (new_state, decision). HALTED absorbs every finite input. From
    RUN the gate blocks when r_hat exceeds tau_up; from BLOCKED it resumes
    after k_resume consecutive cycles at or below tau_down, and halts
    after watchdog_window consecutive cycles at or above r_sat. A
    non-finite r_hat compares false with every threshold and would
    execute, so it raises ValueError instead.
    """
    if not math.isfinite(r_hat):
        raise ValueError(f"risk must be finite, got {r_hat}")
    if gate.mode == HALTED:
        return gate, HALT
    if gate.mode == RUN:
        if r_hat > cfg.tau_up:
            return GateState(mode=BLOCKED, safe_count=0, sat_count=0), BLOCK
        return gate, EXECUTE

    safe = gate.safe_count + 1 if r_hat <= cfg.tau_down else 0
    if safe >= cfg.k_resume:
        return GateState(mode=RUN, safe_count=0, sat_count=0), EXECUTE
    sat = gate.sat_count + 1 if r_hat >= cfg.r_sat else 0
    if sat >= cfg.watchdog_window:
        return GateState(mode=HALTED, safe_count=safe, sat_count=sat), HALT
    return GateState(mode=BLOCKED, safe_count=safe, sat_count=sat), BLOCK


def soft_scale(r_hat, tau_up: float) -> np.ndarray:
    """Velocity scale clip(1 - r_hat/tau_up, 0, 1) for executed actions,
    elementwise over an array of risks."""
    if tau_up <= 0:
        raise ValueError("tau_up must be positive")
    return np.clip(1.0 - r_hat / tau_up, 0.0, 1.0)


def distance_fallback(d_hat, d0: float) -> np.ndarray:
    """Damping scale clip(d_hat/d0, 0, 1) from the clearance head,
    elementwise over an array of predicted clearances.

    Applied to the executed action when recovery stalls: actions shrink
    proportionally as predicted clearance falls below the margin d0.
    """
    if d0 <= 0:
        raise ValueError("d0 must be positive")
    return np.clip(d_hat / d0, 0.0, 1.0)


@dataclass
class CandidateChoice:
    """The chosen candidate of each group, as arrays over the group shape
    (shape () for one group)."""

    index: np.ndarray  # (...) int
    plan: np.ndarray   # (..., H, 4)
    risks: np.ndarray  # (..., N) calibrated risk, inf where infeasible


def select_candidate(params: est.EstimatorParams, proprio, z,
                     candidates: np.ndarray, a_max: float) -> CandidateChoice:
    """Pick the lowest-risk feasible candidate plan of each group.

    candidates is (..., N, H, 4) with proprio (..., 14) and z (..., 10)
    over its group shape, () for one group; feasibility means every
    component respects the a_max box. Risks come from one batched
    calibrated forward pass over every group, each group with the bits
    it gets scored alone; ties break toward the lowest index, so the
    nominal plan (index 0) wins unless a jittered alternative is strictly
    better. The choice holds arrays over the group shape. Raises
    ValueError on a malformed shape, an empty group or a group with no
    feasible candidate.
    """
    candidates = np.asarray(candidates, dtype=float)
    if (candidates.ndim < 3 or candidates.shape[-1] != est.ACTION_DIM
            or min(candidates.shape[-3:-1]) < 1):
        raise ValueError(f"candidates must be a (..., N, H, 4) array with N, H >= 1, "
                         f"got shape {candidates.shape}")
    groups = candidates.shape[:-3]
    ctx = [np.asarray(x, dtype=float) for x in (proprio, z)]
    if any(x.ndim < 1 or x.shape[:-1] != groups for x in ctx):
        raise ValueError(f"need proprio and z over the candidates' group shape {groups}, "
                         f"got shapes {ctx[0].shape} and {ctx[1].shape}")
    feasible = np.abs(candidates).max(axis=(-2, -1)) <= a_max + _BOX_TOL
    if not feasible.any(axis=-1).all():
        raise ValueError("no feasible candidate (all violate the action box)")
    # each group's context, broadcast over its candidates
    ctx = [np.broadcast_to(x[..., None, :], (*candidates.shape[:-2], x.shape[-1])) for x in ctx]
    risks = est.predict_risk(params, *ctx, candidates).risk
    risks = np.where(feasible, risks, np.inf)
    idx = np.argmin(risks, axis=-1)
    plan = np.take_along_axis(candidates, idx[..., None, None, None], axis=-3)[..., 0, :, :]
    return CandidateChoice(index=idx, plan=plan, risks=risks)


@dataclass
class DescentResult:
    """Outcome of a projected-gradient descent over E rows of plans.

    objectives holds each row's accepted-iterate objective values (index 0
    is the initial plan), so monotone descent is checkable directly.
    made_progress is False for a row exactly when its very first iteration
    exhausted every backtracking halving, the trigger for the distance
    fallback. risk and min_dist are the estimator's predictions at the
    returned plans.
    """

    plan: np.ndarray           # (E, H, 4)
    objectives: list           # E lists of floats
    made_progress: np.ndarray  # (E,) bool
    risk: np.ndarray           # (E,)
    min_dist: np.ndarray       # (E,)


@dataclass
class _Row:
    """Search state of one descent row."""

    i: int           # row of the descend call
    c: float         # risk weight
    w: float         # proximity weight
    step: float
    tries: int = 0   # rejected steps in the current iteration
    iters: int = -1  # accepted iterations; -1 until the start plan is scored
    obj: float = math.inf  # the accepted plan's objective, risk and clearance
    risk: float = math.nan
    min_dist: float = math.nan


def descend(params: est.EstimatorParams, proprio, z, anchors, recover,
            cfg: GateConfig) -> DescentResult:
    """Projected-gradient plan search for E rows at once.

    anchors is (E, H, 4), proprio (E, 14), z (E, 10) and recover (E,)
    bool. Each row minimizes c * risk(A) + w * ||A - A0||^2 in the a_max box
    from A0: a recover row from the stay-still plan A0 = 0 with c = 1 and
    w = cfg.lambda_reg (at worst the zero plan comes back, made_progress
    False), a refine row from its anchor (the chosen plan) with c = cfg.beta
    and w = cfg.alpha (for beta > 0 its risk never exceeds the anchor's).
    Steps follow the uncalibrated logit's gradient and acceptance compares
    the true objective, so accepted iterates strictly descend. Each
    iteration of a row restarts its step at cfg.eta and halves it on
    rejection; the row stops when an iteration exhausts its halvings or
    after cfg.max_iters iterations. The rows' contexts are encoded once per
    call, and each round scores every running row's next plan against
    them in one plan scoring. Raises ValueError on malformed shapes, or on
    an anchor that is not finite or outside the action box.
    """
    anchors = np.asarray(anchors, dtype=float)
    recover = np.asarray(recover, dtype=bool)
    if (anchors.ndim != 3 or min(anchors.shape) < 1 or anchors.shape[-1] != est.ACTION_DIM
            or recover.shape != anchors.shape[:1]):
        raise ValueError(f"need (E, H, 4) anchors with E, H >= 1 and (E,) recover flags, "
                         f"got shapes {anchors.shape} and {recover.shape}")
    worst = np.abs(anchors).max()
    if not worst <= cfg.a_max + _BOX_TOL:  # NaN fails too
        raise ValueError("anchor plan has non-finite values" if not math.isfinite(worst)
                         else "anchor plan violates the action box")
    anchor = np.where(recover[:, None, None], 0.0, anchors)
    rows = [_Row(i, 1.0, cfg.lambda_reg, cfg.eta) if rec else _Row(i, cfg.beta, cfg.alpha, cfg.eta)
            for i, rec in enumerate(recover.tolist())]
    out = DescentResult(np.empty_like(anchor), [[] for _ in rows], np.zeros(len(rows), dtype=bool),
                        np.empty(len(rows)), np.empty(len(rows)))
    # the running rows with their encoded contexts, anchors, weights,
    # iterates and directions; a zero direction makes the first round score
    # the anchors. The rows are (E, 1) blocks, which numpy's matmul runs one
    # at a time, each with the bits of its single plan.
    run = rows
    ctx = est.encode_context(params, np.asarray(proprio, dtype=float)[:, None],
                             np.asarray(z, dtype=float)[:, None])
    A0, cur, grad = anchor, anchor, np.zeros_like(anchor)
    C = np.array([r.c for r in rows])[:, None, None]
    W2 = np.array([2.0 * r.w for r in rows])[:, None, None]
    while run:
        step = np.array([r.step for r in run])[:, None, None]
        # the box projection: np.clip's values with fewer call layers
        cand = np.minimum(np.maximum(cur - step * grad, -cfg.a_max), cfg.a_max)
        pred = est.score_plans(params, ctx, cand[:, None])
        risks, dists = pred.risk[:, 0].tolist(), pred.min_dist[:, 0].tolist()
        diff = cand - A0
        acc, fresh, keep = [], [], []
        for r, risk, dist, sq in zip(run, risks, dists,
                                     (diff ** 2).sum(axis=(-2, -1)).tolist()):
            obj = r.c * risk + r.w * sq
            acc.append(r.iters < 0 or obj < r.obj)
            if acc[-1]:
                out.objectives[r.i].append(obj)
                r.obj, r.risk, r.min_dist = obj, risk, dist
                r.iters, r.step, r.tries = r.iters + 1, cfg.eta, 0
            else:
                r.step, r.tries = r.step * 0.5, r.tries + 1
            keep.append(r.tries <= cfg.max_halvings and r.iters < cfg.max_iters)
            fresh.append(acc[-1] and keep[-1])  # accepted and going on: a new direction
        if any(acc):
            cur = cand if all(acc) else np.where(np.array(acc)[:, None, None], cand, cur)
        if any(fresh):  # a plan-only backward on the forward that accepted the rows
            g = C * est.risk_plan_gradient(params, pred).reshape(cand.shape) + W2 * diff
            grad = g if all(fresh) else np.where(np.array(fresh)[:, None, None], g, grad)
        if not all(keep):
            for r, plan, going in zip(run, cur, keep):
                if not going:
                    out.plan[r.i], out.risk[r.i], out.min_dist[r.i] = plan, r.risk, r.min_dist
                    out.made_progress[r.i] = r.iters > 0
            run = [r for r, going in zip(run, keep) if going]
            if run:
                ctx = ctx.take(keep)
                A0, C, W2, cur, grad = (a[keep] for a in (A0, C, W2, cur, grad))
    return out
