"""Evaluation metrics: ROC threshold tuning, AUC, calibration error,
inference latency percentiles."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import estimator as est
from .world import A_MAX


def roc_points(scores: np.ndarray, labels: np.ndarray):
    """ROC curve (FPR, TPR) swept over the unique score thresholds.

    A sample is predicted positive iff score > threshold. Points run from
    (1, 1) at threshold -inf to (0, 0) past the max score, sorted by FPR
    ascending for trapezoidal integration.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float) > 0.5
    n_pos = int(labels.sum())
    n_neg = int((~labels).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need both classes for a ROC curve")
    order = np.argsort(scores)[::-1]
    sorted_scores = scores[order]
    sorted_pos = labels[order].astype(float)
    # threshold just below each distinct score value, descending
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    cut = np.concatenate([distinct, [len(scores) - 1]])
    tp = np.cumsum(sorted_pos)[cut]
    fp = (cut + 1) - tp
    tpr = np.concatenate([[0.0], tp / n_pos])
    fpr = np.concatenate([[0.0], fp / n_neg])
    thresholds = np.concatenate([[np.inf], sorted_scores[cut]])
    return fpr, tpr, thresholds


def auc_trapezoid(scores, labels) -> float:
    fpr, tpr, _ = roc_points(scores, labels)
    return float(np.trapezoid(tpr, fpr))


@dataclass
class RocResult:
    tau_up: float
    tau_down: float
    auc: float
    fnr_at_tau: float
    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray


def roc_tune(params: est.EstimatorParams, heldout: est.SampleBatch,
             fn_target: float) -> RocResult:
    """Tune the gate thresholds from held-out calibrated risks.

    Sweeps the unique scores as thresholds (predict positive iff r > tau).
    FNR rises with the threshold, so the useful choice honoring the
    false-negative budget is the largest threshold with FNR <= fn_target:
    anything smaller blocks more while buying nothing on missed collisions.
    tau_down is fixed at half tau_up.
    """
    risks = est.risk_batch(params, heldout)
    y = np.asarray(heldout.y_bin, dtype=float) > 0.5
    if not (y.any() and (~y).any()):
        raise ValueError("held-out set must contain both classes")
    pos_scores = np.sort(risks[y])
    n_pos = len(pos_scores)
    candidates = np.unique(risks)
    # FNR(tau) = fraction of positives with score <= tau
    fnr = np.searchsorted(pos_scores, candidates, side="right") / n_pos
    ok = np.nonzero(fnr <= fn_target)[0]
    if len(ok) == 0:
        # even the smallest threshold misses too many; take it anyway
        idx = 0
    else:
        idx = ok[-1]
    tau_up = float(candidates[idx])
    tau_up = min(max(tau_up, 1e-6), 1.0 - 1e-6)
    fpr, tpr, thresholds = roc_points(risks, heldout.y_bin)
    return RocResult(tau_up=tau_up, tau_down=0.5 * tau_up,
                     auc=float(np.trapezoid(tpr, fpr)),
                     fnr_at_tau=float(fnr[idx]), fpr=fpr, tpr=tpr,
                     thresholds=thresholds)


@dataclass
class CalibrationReport:
    ece: float
    table: list  # rows: {lo, hi, count, confidence, accuracy}


def compute_calibration(risks, labels) -> CalibrationReport:
    """Expected calibration error over 10 equal-width risk bins.

    ECE = sum over non-empty bins of (count/total) * |accuracy - confidence|.
    """
    risks = np.asarray(risks, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if len(risks) == 0:
        raise ValueError("empty evaluation set")
    n_bins = 10
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    idx = np.clip(np.digitize(risks, edges[1:-1]), 0, n_bins - 1)
    ece = 0.0
    table = []
    for b in range(n_bins):
        in_bin = idx == b
        count = int(in_bin.sum())
        if count == 0:
            continue
        conf = float(risks[in_bin].mean())
        acc = float(labels[in_bin].mean())
        ece += (count / len(risks)) * abs(acc - conf)
        table.append({"lo": float(edges[b]), "hi": float(edges[b + 1]),
                      "count": count, "confidence": conf, "accuracy": acc})
    return CalibrationReport(ece=float(ece), table=table)


@dataclass
class LatencyReport:
    p50_us: float
    p95_us: float
    max_us: float
    calls: int


def measure_latency(params: est.EstimatorParams, horizon: int,
                    trials: int, warmup: int) -> LatencyReport:
    """Wall-clock batch-1 predict_risk percentiles.

    Inputs cycle through a fixed pool so timings measure inference, not
    input generation; warm-up calls are excluded from the statistics.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0, 23]))
    pool = [(rng.normal(size=est.PROPRIO_DIM), rng.normal(size=est.VISION_DIM),
             rng.uniform(-A_MAX, A_MAX, size=(horizon, est.ACTION_DIM)))
            for _ in range(16)]
    for i in range(warmup):
        p, z, a = pool[i % len(pool)]
        est.predict_risk(params, p, z, a)
    times_us = np.empty(trials)
    for i in range(trials):
        p, z, a = pool[i % len(pool)]
        t0 = time.perf_counter()
        est.predict_risk(params, p, z, a)
        times_us[i] = (time.perf_counter() - t0) * 1e6
    return LatencyReport(p50_us=float(np.percentile(times_us, 50)),
                         p95_us=float(np.percentile(times_us, 95)),
                         max_us=float(times_us.max()), calls=trials)
