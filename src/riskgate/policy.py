"""Stand-in policies and their training loops.

A deterministic scripted expert emits short-horizon plans by simulating a
proportional task-space law (goal-seeking, collision-blind). A small MLP
policy clones it from demonstrations, optionally with per-sample risk
weights on a safety-filtered dataset. Records of gated rollouts post-train
the risk estimator. The demonstrations and the gated rollouts are both
episodes of `harness.run_episodes` (the demonstrations ungated, with
exploration noise), which records their steps as columns (`Records`).

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


@dataclass
class Records:
    """Rollout steps as columns, one row per executed step in (episode,
    step) order: batch holds the proprio, scene feature, plan and the
    plan's oracle labels (one horizon, mask None, y_bin as float); goals
    and the commanded action are (N, 4); corrected marks the recovery
    actions, the gate's BLOCK decisions."""

    batch: est.SampleBatch
    goals: np.ndarray
    action: np.ndarray
    corrected: np.ndarray

    def __len__(self) -> int:
        return len(self.batch)

    def take(self, rows) -> "Records":
        """The records rows selects, in its order."""
        return Records(self.batch.take(rows), self.goals[rows], self.action[rows],
                       self.corrected[rows])

    @staticmethod
    def concat(parts) -> "Records":
        """The records of parts, one after another; all of one horizon."""
        def cat(items, name):
            return np.concatenate([getattr(item, name) for item in items])

        b = [p.batch for p in parts]
        batch = est.SampleBatch(cat(b, "proprio"), cat(b, "z"), cat(b, "plan"), None,
                                cat(b, "y_bin"), cat(b, "y_d"), cat(b, "y_ttc"))
        return Records(batch, cat(parts, "goals"), cat(parts, "action"), cat(parts, "corrected"))


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


def _fit_mlp(params: PolicyParams, records: Records, weights,
             cfg: PolicyTrainConfig) -> PolicyParams:
    """Weighted squared-error `est.sgd` of the commanded actions on the
    `policy_features` of records; exact analytic gradients. The returned
    arrays are views into `est.sgd`'s flat vector.

    The error is measured in box-normalized units (divided by a_max), which
    leaves the minimizer unchanged but keeps gradient magnitudes independent
    of the physical action scale.
    """
    b = records.batch
    scale = 1.0 / params.a_max ** 2

    def step(p: PolicyParams, xb, yb, wb):
        out, h, u = _policy_forward_batch(p, xb)
        err = out - yb
        loss = float(np.mean(wb * np.sum(err * err, axis=1))) * scale
        g_out = scale * 2.0 * wb[:, None] * err / len(xb)
        g_u = g_out * p.a_max * (1.0 - np.tanh(u) ** 2)
        g_pre = (g_u @ p.w2.T) * (1.0 - h ** 2)
        return loss, {"w1": xb.T @ g_pre, "b1": g_pre.sum(axis=0),
                      "w2": h.T @ g_u, "b2": g_u.sum(axis=0)}

    return est.sgd(dict(params.weight_items()), lambda views: replace(params, **views), step,
                   [(policy_features(b.proprio, b.z, records.goals), records.action, weights)],
                   cfg.lr, cfg.momentum, cfg.batch_size, cfg.epochs,
                   np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 17])))


def bc_train(params: PolicyParams, demonstrations: Records,
             cfg: PolicyTrainConfig) -> PolicyParams:
    """Plain behavior cloning: unit-weight squared error against the expert."""
    if not demonstrations:
        raise ValueError("no demonstrations")
    return _fit_mlp(params, demonstrations, np.ones(len(demonstrations)), cfg)


def safety_filter_dataset(records: Records, est_params: est.EstimatorParams,
                          tau_down: float) -> tuple[Records, np.ndarray]:
    """(the records whose plan the estimator scores at or below tau_down,
    their scores), from one `est.risk_batch`. Raises if nothing survives
    (threshold too strict)."""
    if not records:
        raise ValueError("no demonstrations")
    risk = est.risk_batch(est_params, records.batch)
    kept = np.flatnonzero(risk <= tau_down)
    if not kept.size:
        raise ValueError("safety filter removed every record; tau_down too strict")
    return records.take(kept), risk[kept]


def risk_weighted_finetune(params: PolicyParams, d_safe: Records, risk, cfg: PolicyTrainConfig,
                           kappa: float) -> PolicyParams:
    """Cloning with per-sample weight exp(-kappa * risk).

    risk holds each record's score from the safety filter, so the
    objective is a fixed weighted regression, deterministic given the seed.
    """
    if not d_safe:
        raise ValueError("empty fine-tuning dataset")
    return _fit_mlp(params, d_safe, np.exp(-kappa * risk), cfg)


POST_TRAIN_HELDOUT_FRAC = 0.2


def post_train_estimator(est_params: est.EstimatorParams, records: Records,
                         cfg: est.TrainConfig) -> est.EstimatorParams:
    """Continue estimator training on gated-rollout records, then recalibrate.

    A fresh held-out split (seeded shuffle, POST_TRAIN_HELDOUT_FRAC of the
    records) backs the temperature fit, so the calibration NLL can only
    match or improve on T = 1.
    """
    if not records:
        raise ValueError("no gated-rollout records")
    batch = records.batch
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 19]))
    order = rng.permutation(len(batch))
    n_held = max(1, int(round(POST_TRAIN_HELDOUT_FRAC * len(batch))))
    if n_held >= len(batch):
        raise ValueError(f"post-train holds out all {len(batch)} gated-rollout records for "
                         f"calibration, leaving none to train on")
    heldout = batch.take(order[:n_held])
    params = est.train([batch.take(order[n_held:])], cfg, params=est_params)
    params.temperature = est.calibrate_temperature(est.logit_batch(params, heldout),
                                                   heldout.y_bin)
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
