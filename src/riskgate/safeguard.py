"""Run-time safety layer around the risk estimator.

Hysteresis gate state machine (RUN / BLOCKED / HALTED with a saturation
watchdog), soft velocity scaling, lowest-risk candidate selection,
projected-gradient recovery toward a low-risk plan, test-time plan
refinement, and a distance-head damping fallback for when recovery stalls.

Descent runs one B=1 forward per evaluated plan: the accepted iterate's
prediction keeps its forward cache, and the step direction comes from a
plan-only backward on that cache.
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
        if self.r_sat < self.tau_up:
            raise ValueError("r_sat must be >= tau_up")
        if self.d0 <= 0 or self.a_max <= 0:
            raise ValueError("d0 and a_max must be positive")
        if not (0.0 < self.eta < np.inf):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.max_halvings < 0:
            raise ValueError(f"max_halvings must be >= 0, got {self.max_halvings}")
        for name in ("lambda_reg", "alpha", "beta"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


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


def soft_scale(r_hat: float, tau_up: float) -> float:
    """Velocity scale clip(1 - r_hat/tau_up, 0, 1) for executed actions."""
    if tau_up <= 0:
        raise ValueError("tau_up must be positive")
    return float(np.clip(1.0 - r_hat / tau_up, 0.0, 1.0))


def distance_fallback(d_hat: float, d0: float) -> float:
    """Damping scale clip(d_hat/d0, 0, 1) from the clearance head.

    Applied to the executed action when recovery stalls: actions shrink
    proportionally as predicted clearance falls below the margin d0.
    """
    if d0 <= 0:
        raise ValueError("d0 must be positive")
    return float(np.clip(d_hat / d0, 0.0, 1.0))


@dataclass
class CandidateChoice:
    """The chosen candidate of one group, or of each group when the
    candidates carry a leading group shape."""

    index: int | np.ndarray  # int, or an int array of the group shape
    plan: np.ndarray         # (..., H, 4)
    risks: np.ndarray        # (..., N) calibrated risk, inf where infeasible


def select_candidate(params: est.EstimatorParams, proprio, z,
                     candidates: np.ndarray, a_max: float) -> CandidateChoice:
    """Pick the lowest-risk feasible candidate plan of each group.

    candidates is (N, H, 4), or (..., N, H, 4) with proprio (..., 14) and
    z (..., 10) over the same group shape; feasibility means every
    component respects the a_max box. Risks come from one batched
    calibrated forward pass over every group, each group with the bits
    it gets scored alone; ties break toward the lowest index, so the
    nominal plan (index 0) wins unless a jittered alternative is strictly
    better. Raises ValueError on a malformed shape, an empty group or a
    group with no feasible candidate.
    """
    candidates = np.asarray(candidates, dtype=float)
    if (candidates.ndim < 3 or candidates.shape[-1] != est.ACTION_DIM
            or min(candidates.shape[-3:-1]) < 1):
        raise ValueError(f"candidates must be a (..., N, H, 4) array with N, H >= 1, "
                         f"got shape {candidates.shape}")
    feasible = np.abs(candidates).max(axis=(-2, -1)) <= a_max + _BOX_TOL
    if not feasible.any(axis=-1).all():
        raise ValueError("no feasible candidate (all violate the action box)")
    risks, _, _, _ = est.predict_risk_batch(params, proprio, z, candidates)
    risks = np.where(feasible, risks, np.inf)
    idx = np.argmin(risks, axis=-1)
    plan = np.take_along_axis(candidates, idx[..., None, None, None], axis=-3)[..., 0, :, :]
    return CandidateChoice(index=int(idx) if idx.ndim == 0 else idx, plan=plan, risks=risks)


@dataclass
class DescentResult:
    """Outcome of a projected-gradient plan optimization.

    objectives holds the accepted-iterate objective values (index 0 is the
    initial plan), so monotone descent is checkable directly. made_progress
    is False exactly when the very first iteration exhausted every
    backtracking halving, the trigger for the distance fallback. min_dist
    is the clearance head's prediction at the returned plan.
    """

    plan: np.ndarray   # (H, 4)
    objectives: list
    made_progress: bool
    risk: float
    min_dist: float


def _projected_descent(params, proprio, z, init: np.ndarray, risk_coeff,
                       grad_extra, obj_extra, cfg: GateConfig):
    """Shared descent loop for recover and refine_plan.

    Objective: risk_coeff * calibrated_risk + obj_extra(plan). The step
    direction differentiates the uncalibrated risk logit instead of the
    calibrated probability (same descent directions, the temperature is a
    positive monotone map), while acceptance compares the true objective,
    so accepted iterates strictly descend. Each iteration restarts the
    step size and halves it on rejection; an iteration that exhausts all
    halvings ends the search. Every evaluated plan costs one forward; the
    gradient backpropagates from the accepted plan's forward cache.
    """
    a_max = cfg.a_max
    plan = np.clip(np.asarray(init, dtype=float), -a_max, a_max)

    def objective(arr, risk):
        return risk_coeff * risk + obj_extra(arr)

    pred = est.predict_risk(params, proprio, z, plan)
    obj = objective(plan, pred.risk)
    trace = [obj]
    made_progress = False
    for _ in range(cfg.max_iters):
        g = risk_coeff * est.risk_plan_gradient(params, pred) + grad_extra(plan)
        step = cfg.eta
        accepted = False
        for _ in range(cfg.max_halvings + 1):
            cand = np.clip(plan - step * g, -a_max, a_max)
            cand_pred = est.predict_risk(params, proprio, z, cand)
            cand_obj = objective(cand, cand_pred.risk)
            if cand_obj < obj:
                plan, obj, pred = cand, cand_obj, cand_pred
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        made_progress = True
        trace.append(obj)
    return DescentResult(plan=plan, objectives=trace,
                         made_progress=made_progress, risk=pred.risk,
                         min_dist=pred.min_dist)


def recover(params: est.EstimatorParams, proprio, z, horizon: int,
            cfg: GateConfig) -> DescentResult:
    """Search for a low-risk escape plan from a blocked state.

    Minimizes risk plus cfg.lambda_reg * ||A||^2 starting from the stay-still
    (zero) plan, so doing nothing is the protective prior and any accepted
    step strictly improves on it. Worst case returns the zero plan with
    made_progress False.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    init = np.zeros((horizon, est.ACTION_DIM))
    return _projected_descent(
        params, proprio, z, init, risk_coeff=1.0,
        grad_extra=lambda arr: 2.0 * cfg.lambda_reg * arr,
        obj_extra=lambda arr: cfg.lambda_reg * float(np.sum(arr * arr)),
        cfg=cfg)


def refine_plan(params: est.EstimatorParams, proprio, z, nominal,
                cfg: GateConfig) -> DescentResult:
    """Locally deform a nominal plan toward lower predicted risk.

    Minimizes cfg.alpha * ||A' - nominal||^2 + cfg.beta * risk(A') from
    A' = nominal. Because the initial objective is beta * risk(nominal) and
    acceptance is strict descent, the refined plan's risk never exceeds the
    nominal's whenever beta > 0. The caller executes only the first action.
    Raises ValueError on a nominal with a non-finite value or outside the
    action box.
    """
    nom = np.asarray(nominal, dtype=float)
    if not np.isfinite(nom).all():
        raise ValueError("nominal plan has non-finite values")
    if np.abs(nom).max() > cfg.a_max + _BOX_TOL:
        raise ValueError("nominal plan violates the action box")
    return _projected_descent(
        params, proprio, z, nom, risk_coeff=cfg.beta,
        grad_extra=lambda arr: 2.0 * cfg.alpha * (arr - nom),
        obj_extra=lambda arr: cfg.alpha * float(np.sum((arr - nom) ** 2)),
        cfg=cfg)
