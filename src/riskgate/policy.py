"""Stand-in policies and their training loops.

A deterministic scripted expert emits short-horizon plans by simulating a
proportional task-space law (goal-seeking, collision-blind). A small MLP
policy clones it from demonstrations, optionally with per-sample risk
weights on a safety-filtered dataset. Records of gated rollouts post-train
the risk estimator. The demonstrations and the gated rollouts are both
episodes of `harness.run_episodes` (the demonstrations ungated, with
exploration noise), which collects their `DemoRecord`s.

Both planners are a row law (`expert_law`, `policy_law`: a state's action
row) rolled forward kinematically by one loop, `roll_plan`, which returns
the plan (and, if asked, the states its later rows are chosen at). The
two episode loops (gen-data's and `harness.run_episodes`) plan by
themselves only at a lockstep group's first step; after that,
`run_episodes` takes the plan `world.rollout_and_step` rolls from each
executed state within its oracle pass, and gen-data extends its carried
plan by the law's row at the state the plan's last row leads to, which
it carries beside the plan with the other states its rows are chosen at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import estimator as est
from . import world as wd

K_P = 0.5  # proportional gain of the scripted expert

POLICY_IN = est.PROPRIO_DIM + est.VISION_DIM + 4  # proprio + scene + goals
POLICY_HIDDEN = 32
POLICY_OUT = 4


def expert_law(task: wd.Task, a_max: float):
    """The scripted expert's row law on task: a function from a state, or a
    batch of states on task's batch axis, to its action rows (..., 4),
    dx = clip(k_p (goal - ee), box) per arm, left arm first.

    Deliberately blind to the other arm: this is the unsafe baseline.
    """
    def law(state: wd.DualArmState) -> np.ndarray:
        dx = np.clip(K_P * (task.goal - state.ee), -a_max, a_max)
        return dx.reshape(*dx.shape[:-2], 4)
    return law


def roll_plan(law, state: wd.DualArmState, horizon: int, cfg: wd.WorldConfig,
              with_states: bool = False):
    """The (..., H, 4) plan of a row law rolled forward from state.

    Row i is the law's row at the state the rows before it lead to, so
    later actions react to where the earlier ones will have moved each
    arm. It steps no further than the state its last row is chosen at;
    with_states returns (plan, states) instead, states[i - 1] the state
    row i is chosen at (i = 1..H-1), from which a caller can extend the
    plan by a row.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rows, states = [law(state)], []
    for _ in range(1, horizon):
        state = wd.step(state, rows[-1], cfg)
        rows.append(law(state))
        states.append(state)
    plan = np.stack(rows, axis=-2)
    return (plan, tuple(states)) if with_states else plan


@dataclass
class PolicyParams:
    """Two-layer MLP, 28 -> 32 tanh -> 4, output squashed by a_max * tanh."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    a_max: float

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.w1.copy(), self.b1.copy(), self.w2.copy(),
                            self.b2.copy(), self.a_max)

    def weight_items(self):
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]


def init_policy(seed: int = 0, a_max: float = wd.A_MAX) -> PolicyParams:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 13]))
    lim1 = np.sqrt(6.0 / (POLICY_IN + POLICY_HIDDEN))
    lim2 = np.sqrt(6.0 / (POLICY_HIDDEN + POLICY_OUT))
    return PolicyParams(
        w1=rng.uniform(-lim1, lim1, size=(POLICY_IN, POLICY_HIDDEN)),
        b1=np.zeros(POLICY_HIDDEN),
        w2=rng.uniform(-lim2, lim2, size=(POLICY_HIDDEN, POLICY_OUT)),
        b2=np.zeros(POLICY_OUT),
        a_max=a_max,
    )


def _policy_forward_batch(params: PolicyParams, x: np.ndarray):
    h = np.tanh(x @ params.w1 + params.b1)
    u = h @ params.w2 + params.b2
    out = params.a_max * np.tanh(u)
    return out, h, u


def policy_features(proprio, z, goals) -> np.ndarray:
    return np.concatenate([np.asarray(proprio, dtype=float),
                           np.asarray(z, dtype=float),
                           np.asarray(goals, dtype=float)], axis=-1)


def policy_law(params: PolicyParams, task: wd.Task):
    """The cloned policy's row law on task: a function from a state, or a
    batch of states on task's batch axis, to its action rows (..., 4)
    [dxL, dyL, dxR, dyR]; the tanh squash keeps every row inside the
    a_max box.

    Noise-free scene features: this is the policy's internal prediction,
    not a sensor pass. Each row's features go through the network as a
    (1, 28) block of its own, and numpy's matmul makes one call per
    leading block, so each row gets the bits of planning it alone.
    """
    goals = task.goal.reshape(*task.goal.shape[:-2], 4)

    def law(state: wd.DualArmState) -> np.ndarray:
        x = policy_features(wd.proprio_feature(state), wd.scene_feature(state, task), goals)
        return _policy_forward_batch(params, x[..., None, :])[0][..., 0, :]
    return law


@dataclass(frozen=True)
class DemoRecord:
    """One state on an expert (or gated) rollout with its oracle plan label.

    risk is the estimator's score of the stored plan, 0 until a filter or
    collection pass fills it in; corrected marks actions supplied by the
    recovery controller rather than the expert.
    """

    proprio: np.ndarray
    z: np.ndarray
    goals: np.ndarray
    action: np.ndarray
    plan: np.ndarray
    label: wd.RolloutOutcome
    risk: float = 0.0
    corrected: bool = False


@dataclass
class PolicyTrainConfig:
    lr: float = 1e-2
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        for name in ("lr", "momentum", "batch_size", "epochs"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")


def _demo_arrays(demos):
    x = np.array([policy_features(d.proprio, d.z, d.goals) for d in demos])
    y = np.array([d.action for d in demos], dtype=float)
    return x, y


def _fit_mlp(params: PolicyParams, x, y, weights, cfg: PolicyTrainConfig) -> PolicyParams:
    """Weighted squared-error SGD with momentum; exact analytic gradients.

    The error is measured in box-normalized units (divided by a_max), which
    leaves the minimizer unchanged but keeps gradient magnitudes independent
    of the physical action scale. As in `est.train`, the weights, velocity
    and gradient are each one flat vector (the returned arrays are views
    into it), and each epoch gathers the data once in shuffled order and
    slices its batches.
    """
    flat, views = est.flat_weights(dict(params.weight_items()))
    params = PolicyParams(**views, a_max=params.a_max)
    vel = np.zeros_like(flat)
    g = np.empty_like(flat)
    n = x.shape[0]
    scale = 1.0 / params.a_max ** 2
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 17]))
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        x_ep, y_ep, w_ep = x[order], y[order], weights[order]
        for lo in range(0, n, cfg.batch_size):
            hi = lo + cfg.batch_size
            xb, yb, wb = x_ep[lo:hi], y_ep[lo:hi], w_ep[lo:hi]
            out, h, u = _policy_forward_batch(params, xb)
            err = out - yb
            loss = float(np.mean(wb * np.sum(err * err, axis=1))) * scale
            if not np.isfinite(loss):
                raise RuntimeError(f"policy training diverged: loss={loss}")
            g_out = scale * 2.0 * wb[:, None] * err / len(xb)
            g_u = g_out * params.a_max * (1.0 - np.tanh(u) ** 2)
            g_h = g_u @ params.w2.T
            g_pre = g_h * (1.0 - h ** 2)
            grads = {"w1": xb.T @ g_pre, "b1": g_pre.sum(axis=0),
                     "w2": h.T @ g_u, "b2": g_u.sum(axis=0)}
            np.concatenate([grads[name].ravel() for name in views], out=g)
            g *= cfg.lr
            vel *= cfg.momentum
            vel -= g
            flat += vel
    return params


def bc_train(params: PolicyParams, demonstrations, cfg: PolicyTrainConfig) -> PolicyParams:
    """Plain behavior cloning: unit-weight squared error against the expert."""
    if not demonstrations:
        raise ValueError("no demonstrations")
    x, y = _demo_arrays(demonstrations)
    return _fit_mlp(params, x, y, np.ones(len(demonstrations)), cfg)


def safety_filter_dataset(demonstrations, est_params: est.EstimatorParams,
                          tau_down: float) -> list:
    """Keep records whose stored plan the estimator scores at or below tau_down.

    Returns new records with the risk field frozen to the score used for
    the decision. Raises if nothing survives (threshold too strict).
    """
    if not demonstrations:
        raise ValueError("no demonstrations")
    risk = est.risk_batch(est_params, est.stack_batch(demonstrations))
    kept = [replace(d, risk=float(r)) for d, r in zip(demonstrations, risk)
            if r <= tau_down]
    if not kept:
        raise ValueError("safety filter removed every record; tau_down too strict")
    return kept


def risk_weighted_finetune(params: PolicyParams, d_safe, cfg: PolicyTrainConfig,
                           kappa: float) -> PolicyParams:
    """Cloning with per-sample weight exp(-kappa * risk).

    Risks are the ones frozen on the records at filter time, so the
    objective is a fixed weighted regression, deterministic given the seed.
    """
    if not d_safe:
        raise ValueError("empty fine-tuning dataset")
    x, y = _demo_arrays(d_safe)
    weights = np.exp(-kappa * np.array([d.risk for d in d_safe], dtype=float))
    return _fit_mlp(params, x, y, weights, cfg)


POST_TRAIN_HELDOUT_FRAC = 0.2


def post_train_estimator(est_params: est.EstimatorParams, records,
                         cfg: est.TrainConfig) -> est.EstimatorParams:
    """Continue estimator training on gated-rollout records, then recalibrate.

    A fresh held-out split (seeded shuffle, POST_TRAIN_HELDOUT_FRAC of the
    records) backs the temperature fit, so the calibration NLL can only
    match or improve on T = 1.
    """
    if not records:
        raise ValueError("no gated-rollout records")
    batch = est.stack_batch(records)
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 19]))
    order = rng.permutation(len(batch))
    n_held = max(1, int(round(POST_TRAIN_HELDOUT_FRAC * len(batch))))
    heldout = batch.take(order[:n_held])
    train_part = batch.take(order[n_held:])
    params = est.train([train_part], cfg, params=est_params)
    est.calibrate_temperature(params, heldout)
    return params


POLICY_CHECKPOINT_KIND = "policy"
_DIMS = {"input": POLICY_IN, "hidden": POLICY_HIDDEN, "output": POLICY_OUT}
_SPECS = [("w1", (POLICY_IN, POLICY_HIDDEN)), ("b1", (POLICY_HIDDEN,)),
          ("w2", (POLICY_HIDDEN, POLICY_OUT)), ("b2", (POLICY_OUT,))]


def save_policy(params: PolicyParams, path, config_digest: str = "") -> None:
    est.write_checkpoint(path, POLICY_CHECKPOINT_KIND, _DIMS, dict(params.weight_items()),
                         a_max=params.a_max, config_digest=config_digest)


def load_policy(path) -> PolicyParams:
    """Read a policy checkpoint; raises ValueError starting with the path
    on anything `est.read_checkpoint` rejects: dims other than the
    policy's, an a_max that is not a finite number > 0, a config_digest
    that is not a string, or a bad weight."""
    arrs, fields = est.read_checkpoint(
        path, POLICY_CHECKPOINT_KIND,
        (lambda v: v == _DIMS and all(type(n) is int for n in v.values()), f"the policy's {_DIMS}"),
        lambda dims: _SPECS)
    return PolicyParams(**arrs, a_max=float(fields["a_max"]))
