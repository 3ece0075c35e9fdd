"""Self-collision risk network: forward pass, exact gradients, training,
temperature calibration.

The network fuses an action-token stream (one token per plan step, with
sinusoidal positional encodings) and a two-token context stream (proprio,
scene feature) through single-head cross-attention, then mean-pools and
feeds a small tanh trunk with three linear heads: collision-risk logit,
minimum-clearance regression, and time-to-collision (softplus, capped).

Gradients are analytic and hand-written. One backward chain runs from the
heads along the plan path; training adds the parameter gradients on top of
it and never forms the plan gradient, while projected-gradient recovery
and refinement run the plan-only chain on the forward cache a prediction
already carries, so descent pays one plan scoring per evaluated plan and
no parameter-gradient work.

Everything runs in float64 numpy, batch-first, with one forward for every
use. The forward has two stages: a context encoding (`encode_context`:
proprio and scene tokens, keys and values) and a plan scoring
(`score_plans`); `predict_risk` runs both, and a caller that scores many
plans against one context, as descent does round after round, encodes it
once. The forward, predict_risk and risk_plan_gradient take any leading
batch shape: numpy's matmul makes one call per leading block, so scoring E
groups of N plans as (E, N, H, 4) gives each group the bits of its own
(N, H, 4) call, and E descent rows scored as (E, 1, H, 4) each get the
bits of a single (H, 4) plan. Only a batch that mixes horizons carries a
step mask, and only the forward reads it: scoring the mixed-horizon
held-out set. Training takes one-horizon batches, so the backward has no
mask; a batch without one gives the bits of an all-ones mask.

Both networks' checkpoints go through one writer, `write_checkpoint`, and
one checked reader, `read_checkpoint`, with a per-kind field rule table.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

ACTION_DIM = 4
PROPRIO_DIM = 14
VISION_DIM = 10
POS_ENC_DIM = 8
D_MODEL = 32
TTC_CAP = 1.0  # horizon cap on predicted time-to-collision, s (H_max * dt)

CHECKPOINT_VERSION = 1


@dataclass
class RiskPrediction:
    """Network outputs: calibrated risk, raw logit, clearance, TTC (s),
    each an array over the plans' leading shape (shape () for one plan).

    cache is the forward pass's activations when the prediction came from
    predict_risk (None otherwise); risk_plan_gradient backpropagates from
    it without a second forward.
    """

    risk: np.ndarray
    logit: np.ndarray
    min_dist: np.ndarray
    ttc: np.ndarray
    cache: dict | None = field(default=None, compare=False, repr=False)


@dataclass
class TrainConfig:
    lr: float = 1e-2
    momentum: float = 0.9
    batch_size: int = 64
    epochs_per_phase: int = 10
    lambda_bce: float = 1.0
    lambda_d: float = 1.0
    lambda_ttc: float = 0.5
    w_pos: float = 3.0          # positive-class (missed-collision) upweight
    gamma_early: float = 0.5    # per-second decay: earlier collisions weigh more
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.gamma_early <= 1.0):
            raise ValueError("gamma_early must lie in (0, 1]")
        for name in ("lr", "momentum", "batch_size", "epochs_per_phase", "w_pos"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in ("lambda_bce", "lambda_d", "lambda_ttc"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


# (name, shape builder) for every learnable array, in fixed order
def _weight_specs(d: int):
    return [
        ("w_action", (ACTION_DIM + POS_ENC_DIM, d)), ("b_action", (d,)),
        ("w_proprio", (PROPRIO_DIM, d)), ("b_proprio", (d,)),
        ("w_vision", (VISION_DIM, d)), ("b_vision", (d,)),
        ("w_query", (d, d)), ("b_query", (d,)),
        ("w_key", (d, d)), ("b_key", (d,)),
        ("w_value", (d, d)), ("b_value", (d,)),
        ("w_trunk1", (d, d)), ("b_trunk1", (d,)),
        ("w_trunk2", (d, d)), ("b_trunk2", (d,)),
        ("w_risk", (d,)), ("b_risk", ()),
        ("w_dist", (d,)), ("b_dist", ()),
        ("w_ttc", (d,)), ("b_ttc", ()),
    ]


@dataclass
class EstimatorParams:
    """All learnable arrays plus the calibration temperature.

    Treated as immutable once training finishes; any number of workers may
    run inference on a shared instance. config_digest names the dataset
    config the weights were trained on ("" when unknown); checkpoints carry
    it through calibration and post-training.
    """

    weights: dict[str, np.ndarray]
    temperature: float = 1.0
    d_model: int = D_MODEL
    ttc_cap: float = TTC_CAP
    config_digest: str = ""

    def copy(self) -> "EstimatorParams":
        return replace(self, weights={k: v.copy() for k, v in self.weights.items()})

    def count(self) -> int:
        return int(sum(v.size for v in self.weights.values())) + 1  # + temperature


def init_params(seed: int = 0) -> EstimatorParams:
    """Glorot-uniform weights, zero biases; deterministic given seed."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 7]))
    weights = {}
    for name, shape in _weight_specs(D_MODEL):
        if name.startswith("b_"):
            weights[name] = np.zeros(shape)
        else:
            fan_in = shape[0]
            fan_out = shape[1] if len(shape) > 1 else 1
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            weights[name] = rng.uniform(-lim, lim, size=shape)
    return EstimatorParams(weights=weights)


@functools.lru_cache(maxsize=None)
def positional_encoding(horizon: int) -> np.ndarray:
    """(horizon, POS_ENC_DIM) interleaved (sin, cos) pairs; pe(0) = (0, 1,
    0, 1, ...).

    Every forward pass needs it, so one read-only array is kept per
    horizon.
    """
    dim = POS_ENC_DIM
    pe = np.empty((horizon, dim))
    pos = np.arange(horizon)[:, None]
    freqs = 1.0 / np.power(10000.0, 2.0 * np.arange(dim // 2) / dim)
    pe[:, 0::2] = np.sin(pos * freqs)
    pe[:, 1::2] = np.cos(pos * freqs)
    pe.flags.writeable = False
    return pe


@dataclass
class SampleBatch:
    """The arrays of a set of labeled samples.

    plan is (B, H, 4). When the samples' plans differ in length, shorter
    plans are right-padded with zero rows to the longest, H, and mask marks
    the real steps; when they all have H steps, mask is None. Only the
    forward takes a padded batch (`risk_batch`, `heldout_nll`,
    `calibrate_temperature`); `train` and `grad` raise on one.
    """

    proprio: np.ndarray      # (B, 14)
    z: np.ndarray            # (B, 10)
    plan: np.ndarray         # (B, H, 4)
    mask: np.ndarray | None  # (B, H), 1.0 for real steps; None when all are
    y_bin: np.ndarray        # (B,)
    y_d: np.ndarray          # (B,)
    y_ttc: np.ndarray        # (B,)

    def __len__(self) -> int:
        return self.proprio.shape[0]

    def take(self, idx) -> "SampleBatch":
        """The rows idx selects: copies for an index array, views for a slice."""
        return SampleBatch(self.proprio[idx], self.z[idx], self.plan[idx],
                           None if self.mask is None else self.mask[idx],
                           self.y_bin[idx], self.y_d[idx], self.y_ttc[idx])


def stack_batch(samples) -> SampleBatch:
    """One SampleBatch of objects with proprio, z, plan and label (y_bin,
    y_d, y_ttc) attributes; padded and masked only if the plans differ in
    length."""
    plans = [np.asarray(s.plan, dtype=float).reshape(-1, ACTION_DIM) for s in samples]
    h_pad = max(p.shape[0] for p in plans)
    n = len(samples)
    plan = np.zeros((n, h_pad, ACTION_DIM))
    mask = np.zeros((n, h_pad))
    for i, p in enumerate(plans):
        plan[i, : p.shape[0]] = p
        mask[i, : p.shape[0]] = 1.0
    return SampleBatch(
        proprio=np.array([s.proprio for s in samples], dtype=float),
        z=np.array([s.z for s in samples], dtype=float),
        plan=plan, mask=None if mask.all() else mask,
        y_bin=np.array([s.label.y_bin for s in samples], dtype=float),
        y_d=np.array([s.label.y_d for s in samples], dtype=float),
        y_ttc=np.array([s.label.y_ttc for s in samples], dtype=float),
    )


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    # exp(min(x, -x)) is exp(-x) where x >= 0 and exp(x) elsewhere (NaN
    # passes through with its sign): it never overflows
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class EncodedContext:
    """The context stage of a forward over a leading shape (...): the
    inputs, both context tokens and their keys and values. Made by
    `encode_context`; `score_plans` scores plans of the same leading shape
    against it, so a caller that scores many plans per context encodes
    each context once."""

    proprio: np.ndarray  # (..., 14)
    z: np.ndarray        # (..., 10)
    ctx_p: np.ndarray    # (..., d)
    ctx_v: np.ndarray    # (..., d)
    C: np.ndarray        # (..., 2, d) the two context tokens
    K: np.ndarray        # (..., 2, d)
    V: np.ndarray        # (..., 2, d)

    def take(self, rows) -> "EncodedContext":
        """The rows of the first leading axis that rows selects."""
        return EncodedContext(*(getattr(self, f.name)[rows] for f in fields(self)))


def _encode(params: EstimatorParams, proprio, z) -> EncodedContext:
    """The context stage: proprio (..., 14) and z (..., 10) to their tokens,
    keys and values. Each matmul runs once per leading block, as in
    `_score`."""
    w = params.weights
    d = params.d_model
    ctx_p = proprio @ w["w_proprio"]                                     # (...,d)
    ctx_p += w["b_proprio"]
    np.tanh(ctx_p, out=ctx_p)
    ctx_v = z @ w["w_vision"]                                            # (...,d)
    ctx_v += w["b_vision"]
    np.tanh(ctx_v, out=ctx_v)
    C = np.empty((*ctx_p.shape[:-1], 2, d))                              # (...,2,d)
    C[..., 0, :] = ctx_p
    C[..., 1, :] = ctx_v
    K = C @ w["w_key"]                                                   # (...,2,d)
    K += w["b_key"]
    V = C @ w["w_value"]                                                 # (...,2,d)
    V += w["b_value"]
    return EncodedContext(proprio, z, ctx_p, ctx_v, C, K, V)


def _score(params: EstimatorParams, ctx: EncodedContext, plan, mask=None):
    """The plan stage of a forward over any leading batch shape: plans
    (..., H, 4) against the encoded contexts of the same leading shape;
    returns (logit, dist, ttc, cache), the cache holding both stages'
    activations.

    mask (..., H) marks the real steps of right-padded plans; None means
    every step is real. Each matmul runs once per leading block of its
    core shape, so a row's bits depend only on the shape of its last
    batch axis, never on how many blocks lead it.
    """
    w = params.weights
    d = params.d_model
    H = plan.shape[-2]

    U = np.empty((*plan.shape[:-1], ACTION_DIM + POS_ENC_DIM))
    U[..., :ACTION_DIM] = plan
    U[..., ACTION_DIM:] = positional_encoding(H)
    act = U @ w["w_action"]                                              # (...,H,d)
    act += w["b_action"]
    np.tanh(act, out=act)

    Q = act @ w["w_query"]                                               # (...,H,d)
    Q += w["b_query"]
    attn = Q @ ctx.K.mT                                                  # (...,H,2)
    attn /= math.sqrt(d)
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    R = attn @ ctx.V                                                     # (...,H,d)
    R += act
    if mask is None:
        pooled = R.sum(axis=-2)
        pooled /= H
    else:
        pooled = (mask[..., None] * R).sum(axis=-2)
        pooled /= mask.sum(axis=-1)[..., None]

    t1 = pooled @ w["w_trunk1"]
    t1 += w["b_trunk1"]
    np.tanh(t1, out=t1)
    t2 = t1 @ w["w_trunk2"]
    t2 += w["b_trunk2"]
    np.tanh(t2, out=t2)
    logit = t2 @ w["w_risk"] + w["b_risk"]
    dist = t2 @ w["w_dist"] + w["b_dist"]
    ttc_raw = t2 @ w["w_ttc"] + w["b_ttc"]
    ttc_sp = _softplus(ttc_raw)
    ttc = np.minimum(ttc_sp, params.ttc_cap)

    cache = dict(vars(ctx), U=U, act=act, Q=Q, attn=attn, pooled=pooled, t1=t1, t2=t2,
                 ttc_raw=ttc_raw, ttc_sp=ttc_sp)
    return logit, dist, ttc, cache


def _forward_batch(params: EstimatorParams, proprio, z, plan, mask=None):
    """Both stages of the forward: `_score` of plan against the encoding of
    (proprio, z), over any leading batch shape."""
    return _score(params, _encode(params, proprio, z), plan, mask)


def _plan_backward(params: EstimatorParams, cache, g_t2):
    """Backprop of any scalar with upstream g_t2 (..., d) at the trunk
    output along the plan path, up to the action layer's pre-activation.

    Returns taps, the upstream gradient at each layer the plan path
    crosses: `_plan_grad` forms the plan gradient from them, and
    _backward_batch the parameter gradients. The context branch (key,
    value, proprio, vision) feeds no plan gradient and is skipped. The
    cache is of an unmasked forward: every step is real.
    """
    w = params.weights
    d = params.d_model
    c = cache

    a2 = g_t2 * (1.0 - c["t2"] ** 2)
    g_t1 = a2 @ w["w_trunk2"].T
    a1 = g_t1 * (1.0 - c["t1"] ** 2)
    g_pooled = a1 @ w["w_trunk1"].T

    H = c["act"].shape[-2]
    g_R = np.repeat((1.0 / H) * g_pooled[..., None, :], H, axis=-2)
    g_O = g_R  # attention branch; the residual branch passes g_R to act

    g_attn = g_O @ c["V"].mT                                               # (...,H,2)
    attn = c["attn"]
    g_scores = attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True))
    g_scores /= math.sqrt(d)
    g_Q = g_scores @ c["K"]
    g_act = g_R + g_Q @ w["w_query"].T

    g_act_pre = g_act * (1.0 - c["act"] ** 2)
    return dict(a2=a2, a1=a1, g_O=g_O, g_scores=g_scores, g_Q=g_Q, g_act_pre=g_act_pre)


def _plan_grad(params: EstimatorParams, taps) -> np.ndarray:
    """The (..., H, 4) plan gradient of `_plan_backward`'s taps."""
    return (taps["g_act_pre"] @ params.weights["w_action"].T)[..., :ACTION_DIM]


def _trunk_upstream(params: EstimatorParams, cache, g_logit, g_dist, g_ttc):
    """(g_t2, g_raw): the upstream at the trunk output of the three heads'
    upstream (g_logit, g_dist, g_ttc), and the one at the raw TTC head."""
    w = params.weights
    g_raw = g_ttc * (cache["ttc_sp"] < params.ttc_cap) * _sigmoid(cache["ttc_raw"])
    g_t2 = (g_logit[..., None] * w["w_risk"] + g_dist[..., None] * w["w_dist"]
            + g_raw[..., None] * w["w_ttc"])
    return g_t2, g_raw


def _backward_batch(params: EstimatorParams, cache, g_logit, g_dist, g_ttc):
    """Exact gradients of any scalar with upstream (g_logit, g_dist, g_ttc).

    Returns (param_grads, taps) where param_grads mirrors params.weights
    and taps are the plan path's (`_plan_backward`), from which
    `_plan_grad` forms the (B, H, 4) plan gradient when a caller wants it
    (training does not).
    """
    w = params.weights
    c = cache
    g_t2, g_raw = _trunk_upstream(params, cache, g_logit, g_dist, g_ttc)
    t = _plan_backward(params, cache, g_t2)
    g = {}

    g["w_risk"] = c["t2"].T @ g_logit
    g["b_risk"] = np.asarray(g_logit.sum())
    g["w_dist"] = c["t2"].T @ g_dist
    g["b_dist"] = np.asarray(g_dist.sum())
    g["w_ttc"] = c["t2"].T @ g_raw
    g["b_ttc"] = np.asarray(g_raw.sum())
    g["w_trunk2"] = c["t1"].T @ t["a2"]
    g["b_trunk2"] = t["a2"].sum(axis=0)
    g["w_trunk1"] = c["pooled"].T @ t["a1"]
    g["b_trunk1"] = t["a1"].sum(axis=0)

    g_V = c["attn"].transpose(0, 2, 1) @ t["g_O"]                          # (B,2,d)
    g_K = t["g_scores"].transpose(0, 2, 1) @ c["Q"]
    g["w_query"] = np.einsum("bhd,bhe->de", c["act"], t["g_Q"])
    g["b_query"] = t["g_Q"].sum(axis=(0, 1))
    # one einsum for both: it sums each output element over (b, c) on its
    # own, so each half has the bits of its own einsum
    w_kv = np.einsum("bcd,bce->de", c["C"], np.concatenate([g_K, g_V], axis=-1))
    g["w_key"], g["w_value"] = w_kv[:, :params.d_model], w_kv[:, params.d_model:]
    g["b_key"] = g_K.sum(axis=(0, 1))
    g_C = g_K @ w["w_key"].T
    g["b_value"] = g_V.sum(axis=(0, 1))
    g_C = g_C + g_V @ w["w_value"].T

    a_p = g_C[:, 0, :] * (1.0 - c["ctx_p"] ** 2)
    g["w_proprio"] = c["proprio"].T @ a_p
    g["b_proprio"] = a_p.sum(axis=0)
    a_v = g_C[:, 1, :] * (1.0 - c["ctx_v"] ** 2)
    g["w_vision"] = c["z"].T @ a_v
    g["b_vision"] = a_v.sum(axis=0)

    g["w_action"] = np.einsum("bhu,bhd->ud", c["U"], t["g_act_pre"])
    g["b_action"] = t["g_act_pre"].sum(axis=(0, 1))
    return g, t


def _checked_inputs(proprio, z, plans):
    """(proprio, z, plans) as float arrays; raises ValueError naming the
    shapes unless plans is (..., H, 4) with H >= 1, and proprio and z are
    (..., 14) and (..., 10) over its leading shape."""
    proprio = np.asarray(proprio, dtype=float)
    z = np.asarray(z, dtype=float)
    plans = np.asarray(plans, dtype=float)
    lead = plans.shape[:-2]
    if (plans.ndim < 2 or plans.shape[-1] != ACTION_DIM or plans.shape[-2] < 1
            or proprio.shape != (*lead, PROPRIO_DIM) or z.shape != (*lead, VISION_DIM)):
        raise ValueError(f"need plans (..., H, 4) with H >= 1, proprio (..., {PROPRIO_DIM}) and "
                         f"z (..., {VISION_DIM}) over the plans' leading shape; got plans "
                         f"{plans.shape}, proprio {proprio.shape}, z {z.shape}")
    return proprio, z, plans


def predict_risk(params: EstimatorParams, proprio, z, plan) -> RiskPrediction:
    """Calibrated prediction: stored temperature applied to the risk logit.

    plan is (..., H, 4) and proprio, z are (..., 14), (..., 10) over its
    leading shape; raises ValueError on any other shape. The outputs are
    arrays of the leading shape, () for one (H, 4) plan, each block of the
    last leading axis with the bits it gets scored alone. min_dist and ttc
    are unaffected by the temperature, and risk ordering over any fixed
    batch is invariant to it (monotone transform). The result carries its
    forward cache for risk_plan_gradient. It is `score_plans` of plan
    against `encode_context` of (proprio, z), with the same bits.
    """
    proprio, z, plan = _checked_inputs(proprio, z, plan)
    return _predict(params, _encode(params, proprio, z), plan)


def encode_context(params: EstimatorParams, proprio, z) -> EncodedContext:
    """The context stage of the forward for proprio (..., 14) and z (..., 10)
    over one leading shape; raises ValueError naming the shapes on any
    other."""
    proprio = np.asarray(proprio, dtype=float)
    z = np.asarray(z, dtype=float)
    if (proprio.ndim < 1 or proprio.shape[-1] != PROPRIO_DIM
            or z.shape != (*proprio.shape[:-1], VISION_DIM)):
        raise ValueError(f"need proprio (..., {PROPRIO_DIM}) and z (..., {VISION_DIM}) over "
                         f"one leading shape; got proprio {proprio.shape}, z {z.shape}")
    return _encode(params, proprio, z)


def score_plans(params: EstimatorParams, ctx: EncodedContext, plan) -> RiskPrediction:
    """`predict_risk` of plans (..., H, 4) whose contexts `encode_context`
    already encoded over the same leading shape (...), with its bits;
    raises ValueError naming the shapes on any other plan shape."""
    plan = np.asarray(plan, dtype=float)
    lead = ctx.proprio.shape[:-1]
    if (plan.ndim < 2 or plan.shape[-1] != ACTION_DIM or plan.shape[-2] < 1
            or plan.shape[:-2] != lead):
        raise ValueError(f"need plans (..., H, 4) with H >= 1 over the context's leading shape "
                         f"{lead}, got {plan.shape}")
    return _predict(params, ctx, plan)


def _predict(params: EstimatorParams, ctx: EncodedContext, plan) -> RiskPrediction:
    logit, dist, ttc, cache = _score(params, ctx, plan)
    return RiskPrediction(_sigmoid(logit / params.temperature), logit, dist, ttc, cache)


def risk_batch(params: EstimatorParams, batch: SampleBatch) -> np.ndarray:
    """Calibrated risk sigmoid(logit / T) of every sample in a padded batch."""
    logit, _, _, _ = _forward_batch(params, batch.proprio, batch.z, batch.plan, batch.mask)
    return _sigmoid(logit / params.temperature)


def risk_plan_gradient(params: EstimatorParams, pred: RiskPrediction) -> np.ndarray:
    """d logit / d plan at the plans predict_risk scored into pred, in
    their (..., H, 4) shape.

    Runs the plan-only backward on pred's forward cache, no forward, with
    the logit head's weights as the trunk upstream (the distance and TTC
    heads get none, so their terms are skipped). The gradient is of the
    uncalibrated risk logit, which shares its descent directions with the
    calibrated probability (temperature is a positive monotone
    reparameterization).
    """
    w_risk = params.weights["w_risk"]
    return _plan_grad(params, _plan_backward(
        params, pred.cache, np.broadcast_to(w_risk, (*np.shape(pred.logit), *w_risk.shape))))


def _bce_from_logit(logit, y):
    # stable: max(l,0) - l*y + log(1 + exp(-|l|))
    return np.maximum(logit, 0.0) - logit * y + np.log1p(np.exp(-np.abs(logit)))


def _sample_weights(y_bin, y_ttc, cfg: TrainConfig):
    w_cls = np.where(y_bin > 0.5, cfg.w_pos, 1.0)
    w_early = np.where(y_bin > 0.5, np.power(cfg.gamma_early, y_ttc), 1.0)
    return w_cls * w_early


def loss(pred: RiskPrediction, label, cfg: TrainConfig):
    """Composite loss for one sample: (total, parts).

    parts carries the unweighted-by-lambda pieces, so
    total = lambda_bce * parts['bce'] + lambda_d * parts['dist']
          + lambda_ttc * parts['ttc'] exactly. The BCE part already includes
    the positive-class and early-collision weights; the TTC part is masked
    to collision samples (censored negatives carry no TTC signal). BCE is
    evaluated on the uncalibrated probability.
    """
    if not all(np.isfinite([pred.logit, pred.min_dist, pred.ttc])):
        raise ValueError("non-finite prediction")
    y_bin = float(getattr(label, "y_bin"))
    y_d = float(getattr(label, "y_d"))
    y_ttc = float(getattr(label, "y_ttc"))
    wgt = float(_sample_weights(np.array([y_bin]), np.array([y_ttc]), cfg)[0])
    parts = {
        "bce": wgt * float(_bce_from_logit(np.array([pred.logit]), np.array([y_bin]))[0]),
        "dist": (pred.min_dist - y_d) ** 2,
        "ttc": y_bin * abs(pred.ttc - y_ttc),
    }
    total = cfg.lambda_bce * parts["bce"] + cfg.lambda_d * parts["dist"] + cfg.lambda_ttc * parts["ttc"]
    return total, parts


def _batch_loss_and_grads(params: EstimatorParams, batch: SampleBatch, wgt, cfg: TrainConfig):
    """Mean loss over a one-horizon batch, its exact parameter gradients and
    the plan path's taps (`_backward_batch`); wgt is the batch's
    `_sample_weights`."""
    logit, dist, ttc, cache = _forward_batch(params, batch.proprio, batch.z, batch.plan)
    n = len(batch)
    y = batch.y_bin
    bce = wgt * _bce_from_logit(logit, y)
    dist_term = (dist - batch.y_d) ** 2
    ttc_term = y * np.abs(ttc - batch.y_ttc)
    total = float(np.mean(cfg.lambda_bce * bce + cfg.lambda_d * dist_term
                          + cfg.lambda_ttc * ttc_term))

    g_logit = cfg.lambda_bce * wgt * (_sigmoid(logit) - y) / n
    g_dist = cfg.lambda_d * 2.0 * (dist - batch.y_d) / n
    g_ttc = cfg.lambda_ttc * y * np.sign(ttc - batch.y_ttc) / n
    param_grads, taps = _backward_batch(params, cache, g_logit, g_dist, g_ttc)
    return total, param_grads, taps


def grad(params: EstimatorParams, batch: SampleBatch, cfg: TrainConfig):
    """Exact gradients of the mean loss of a one-horizon batch.

    Returns (param_grads, plan_grads): a dict congruent to params.weights
    and a (B, H, 4) array of per-sample plan-input gradients. Raises
    ValueError on an empty or a padded batch.
    """
    if len(batch) == 0 or batch.mask is not None:
        raise ValueError("grad takes a non-empty batch of one horizon")
    wgt = _sample_weights(batch.y_bin, batch.y_ttc, cfg)
    _, param_grads, taps = _batch_loss_and_grads(params, batch, wgt, cfg)
    return param_grads, _plan_grad(params, taps)


def flat_weights(weights: dict) -> tuple[np.ndarray, dict]:
    """A copy of weights as one flat vector, and views into it with the
    names and shapes of weights, in their order."""
    flat = np.concatenate([arr.ravel() for arr in weights.values()])
    views, lo = {}, 0
    for name, arr in weights.items():
        views[name] = flat[lo: lo + arr.size].reshape(arr.shape)
        lo += arr.size
    return flat, views


def train(dataset_phases, cfg: TrainConfig,
          params: EstimatorParams | None = None) -> EstimatorParams:
    """SGD with momentum over curriculum phases in increasing-horizon order.

    Each phase is a one-horizon SampleBatch, as every phase that gen-data
    or post-train makes; a padded phase raises ValueError before any
    training. Phases run in increasing order of their plans' horizon.
    Shuffle order is fixed by cfg.seed, so identical inputs give identical
    weights. Raises RuntimeError if the loss goes non-finite. The params
    given are left as they are.

    The weights, their velocity and the gradient are each one flat vector
    (the returned weights are views into it), so the momentum update is a
    few elementwise ops on the whole vector. Each epoch gathers its phase
    once, in shuffled order, and takes every batch as a slice of it.
    """
    if any(b.mask is not None for b in dataset_phases):
        raise ValueError("train takes one-horizon phases; a phase mixes plan horizons")
    phases = sorted(dataset_phases, key=lambda b: b.plan.shape[1])
    if params is None:
        params = init_params(cfg.seed)
    flat, weights = flat_weights(params.weights)
    params = replace(params, weights=weights)
    velocity = np.zeros_like(flat)
    g = np.empty_like(flat)
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 11]))

    for batch_all in phases:
        n = len(batch_all)
        if n == 0:
            continue
        wgt_all = _sample_weights(batch_all.y_bin, batch_all.y_ttc, cfg)
        for _ in range(cfg.epochs_per_phase):
            order = rng.permutation(n)
            epoch, wgt = batch_all.take(order), wgt_all[order]
            for lo in range(0, n, cfg.batch_size):
                hi = lo + cfg.batch_size
                total, grads, _ = _batch_loss_and_grads(params, epoch.take(slice(lo, hi)),
                                                        wgt[lo:hi], cfg)
                if not np.isfinite(total):
                    raise RuntimeError(f"training diverged: loss={total}")
                # v = m*v - lr*g, then w = w + v: elementwise, so per weight the bits
                # of updating each array on its own
                np.concatenate([grads[k].ravel() for k in params.weights], out=g)
                g *= cfg.lr
                velocity *= cfg.momentum
                velocity -= g
                flat += velocity
    return params


def heldout_nll(params: EstimatorParams, batch: SampleBatch, temperature: float) -> float:
    """Mean BCE of sigmoid(logit / T) against y_bin (no class weights)."""
    logit, _, _, _ = _forward_batch(params, batch.proprio, batch.z, batch.plan, batch.mask)
    return float(np.mean(_bce_from_logit(logit / temperature, batch.y_bin)))


def calibrate_temperature(params: EstimatorParams, heldout: SampleBatch) -> float:
    """Fit the temperature on held-out data by golden-section search.

    Minimizes held-out NLL over T in [0.25, 4] in 40 steps; the result
    never exceeds the NLL at T=1 (T=1 wins any tie), so calibration cannot
    hurt. Stores T on params and returns it. Raises ValueError on a
    single-class held-out set.
    """
    y = heldout.y_bin
    if not (np.any(y > 0.5) and np.any(y < 0.5)):
        raise ValueError("held-out set must contain both classes")
    logit, _, _, _ = _forward_batch(params, heldout.proprio, heldout.z,
                                    heldout.plan, heldout.mask)

    def nll(t):
        return float(np.mean(_bce_from_logit(logit / t, y)))

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.25, 4.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = nll(c), nll(d)
    for _ in range(40):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = nll(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = nll(d)
    t_star = (a + b) / 2.0
    if nll(1.0) <= nll(t_star):
        t_star = 1.0
    params.temperature = float(t_star)
    return params.temperature




def _positive(v) -> bool:
    return type(v) in (int, float) and 0 < v < math.inf  # bools and NaN fail


_POSITIVE, _STRING = (_positive, "a finite number > 0"), (lambda v: type(v) is str, "a string")
# per checkpoint kind: the fields written after the weights, in order, each
# with its rule and the rule's description
CHECKPOINT_FIELDS = {
    "risk_estimator": {"temperature": _POSITIVE, "ttc_cap": _POSITIVE, "config_digest": _STRING},
    "policy": {"a_max": _POSITIVE, "config_digest": _STRING},
}


def write_checkpoint(path, kind: str, dims: dict, weights: dict, **fields) -> None:
    """Write a checkpoint on one line: a JSON object of format_version,
    kind, dims, the weights' shapes and flat values, then the kind's
    `CHECKPOINT_FIELDS`."""
    payload = {"format_version": CHECKPOINT_VERSION, "kind": kind, "dims": dims,
               "shapes": {k: list(v.shape) for k, v in weights.items()},
               "weights": {k: v.ravel().tolist() for k, v in weights.items()}, **fields}
    with open(path, "w") as f:
        f.write(json.dumps(payload) + "\n")


def read_checkpoint(path, kind: str, dims_rule, specs) -> tuple[dict, dict]:
    """(weights, fields) of a checkpoint of this kind: the weights in the
    (name, shape) order of specs(dims), and fields holding dims and the
    kind's `CHECKPOINT_FIELDS`.

    Raises ValueError, starting with the path, naming the first fault: not
    a JSON object, a version other than CHECKPOINT_VERSION, another kind,
    top-level keys other than those written, dims or a field that breaks
    its (rule, description), or a weight that is missing, extra, misshapen
    or not finite.
    """
    rules = {"dims": dims_rule, **CHECKPOINT_FIELDS[kind]}
    try:
        with open(path) as f:
            payload = json.load(f)
        if not isinstance(payload, dict):
            raise ValueError(f"not a checkpoint: a JSON {type(payload).__name__}")
        version = payload.get("format_version")
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        if payload.get("kind") != kind:
            raise ValueError(f"not a {kind} checkpoint: kind={payload.get('kind')!r}")
        keys = {"format_version", "kind", "shapes", "weights", *rules}
        if payload.keys() != keys:
            raise ValueError(f"checkpoint keys {sorted(payload)}, not {sorted(keys)}")
        for key, (ok, rule) in rules.items():
            if not ok(payload[key]):
                raise ValueError(f"checkpoint {key} must be {rule}, got {payload[key]!r}")
        weights = _checkpoint_weights(payload["weights"], payload["shapes"],
                                      specs(payload["dims"]))
    except ValueError as e:
        why = f"not JSON: {e}" if isinstance(e, json.JSONDecodeError) else e
        raise ValueError(f"{path}: {why}") from None
    return weights, {key: payload[key] for key in rules}


def _checkpoint_weights(weights, shapes, specs) -> dict:
    """The arrays of a checkpoint's weights and shapes, checked against
    (name, shape) specs, in their order: exactly the specs' names, each
    with its spec's shape and every value finite. Raises ValueError naming
    the first bad weight."""
    if not isinstance(weights, dict) or not isinstance(shapes, dict):
        raise ValueError("checkpoint weights and shapes must be objects")
    expected = {name: list(shape) for name, shape in specs}
    for name in {**weights, **expected}:
        if name not in weights or name not in expected:
            raise ValueError(f"checkpoint {'lacks' if name in expected else 'has unknown'} "
                             f"weight {name!r}")
        if shapes.get(name) != expected[name]:
            raise ValueError(f"weight {name!r} has shape {shapes.get(name)!r}, "
                             f"expected {expected[name]}")
    out = {}
    for name, shape in specs:
        try:
            arr = np.array(weights[name], dtype=float)
        except (TypeError, ValueError):
            arr = None
        if arr is None or arr.shape != (math.prod(shape),):
            raise ValueError(f"weight {name!r} must be a list of {math.prod(shape)} numbers")
        if not np.isfinite(arr).all():
            raise ValueError(f"weight {name!r} has non-finite values")
        out[name] = arr.reshape(shape)
    return out


# the estimator's input widths, which its checkpoint's dims record after d_model
_INPUT_DIMS = {"action": ACTION_DIM, "proprio": PROPRIO_DIM, "vision": VISION_DIM,
               "pos_enc": POS_ENC_DIM}


def save_params(params: EstimatorParams, path) -> None:
    write_checkpoint(path, "risk_estimator", {"d_model": params.d_model, **_INPUT_DIMS},
                     params.weights, temperature=params.temperature, ttc_cap=params.ttc_cap,
                     config_digest=params.config_digest)


def load_params(path) -> EstimatorParams:
    """Read an estimator checkpoint; raises ValueError starting with the
    path on anything `read_checkpoint` rejects, dims other than an int
    d_model >= 1 and the estimator's input widths included."""
    dims_rule = (lambda v: type(v) is dict and v.keys() == {"d_model", *_INPUT_DIMS}
                 and all(type(n) is int for n in v.values()) and v["d_model"] >= 1
                 and all(v[k] == n for k, n in _INPUT_DIMS.items()),
                 f"an int d_model >= 1 and the estimator's {_INPUT_DIMS}")
    weights, f = read_checkpoint(path, "risk_estimator", dims_rule,
                                 lambda dims: _weight_specs(dims["d_model"]))
    return EstimatorParams(weights=weights, temperature=float(f["temperature"]),
                           d_model=f["dims"]["d_model"], ttc_cap=float(f["ttc_cap"]),
                           config_digest=f["config_digest"])
