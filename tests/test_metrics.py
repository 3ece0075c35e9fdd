"""Metrics: ROC sweep against brute-force counting, AUC against the
Mann-Whitney pair statistic, threshold tuning, calibration error, latency."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from riskgate import estimator as est
from riskgate import metrics as mt


def test_roc_points_textbook_case():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([0, 0, 1, 1])
    fpr, tpr, thr = mt.roc_points(scores, labels)
    assert_allclose(fpr, [0.0, 0.0, 0.5, 0.5, 1.0])
    assert_allclose(tpr, [0.0, 0.5, 0.5, 1.0, 1.0])
    assert thr[0] == np.inf
    assert_allclose(thr[1:], [0.8, 0.4, 0.35, 0.1])
    assert mt.auc_trapezoid(scores, labels) == pytest.approx(0.75)


def test_roc_points_match_brute_force_counts():
    rng = np.random.default_rng(0)
    scores = np.round(rng.uniform(size=300), 2)  # force plenty of ties
    labels = rng.integers(0, 2, size=300)
    fpr, tpr, thr = mt.roc_points(scores, labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    for f, t, c in zip(fpr, tpr, thr):
        # reported thresholds are inclusive: positive iff score >= tau
        assert t == pytest.approx(np.mean(pos >= c) if np.isfinite(c) else 0.0)
        assert f == pytest.approx(np.mean(neg >= c) if np.isfinite(c) else 0.0)
    assert np.all(np.diff(fpr) >= 0)


def test_auc_equals_pairwise_statistic():
    rng = np.random.default_rng(1)
    scores = np.round(rng.normal(size=200), 1)
    labels = rng.integers(0, 2, size=200)
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    mann_whitney = np.mean((pos > neg) + 0.5 * (pos == neg))
    assert mt.auc_trapezoid(scores, labels) == pytest.approx(mann_whitney, abs=1e-12)


def test_auc_extremes():
    assert mt.auc_trapezoid([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert mt.auc_trapezoid([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
    with pytest.raises(ValueError):
        mt.roc_points([0.5, 0.6], [1, 1])


def test_roc_tune_picks_largest_threshold_within_budget(trained_tiny, tiny_data):
    held = tiny_data["heldout"]
    res = mt.roc_tune(trained_tiny, held, fn_target=0.05)
    assert res.tau_down == pytest.approx(0.5 * res.tau_up)
    assert 0.0 < res.tau_down < res.tau_up < 1.0
    assert res.fnr_at_tau <= 0.05 or res.tau_up <= 1e-6

    risks = est.risk_batch(trained_tiny, held)
    pos = risks[held.y_bin > 0.5]
    ok = [t for t in np.unique(risks) if np.mean(pos <= t) <= 0.05]
    expected = max(ok) if ok else np.unique(risks)[0]
    assert res.tau_up == pytest.approx(min(max(expected, 1e-6), 1 - 1e-6))
    assert res.auc == pytest.approx(mt.auc_trapezoid(risks, held.y_bin))


def test_roc_tune_impossible_budget_falls_back_to_min(trained_tiny, tiny_data):
    held = tiny_data["heldout"]
    res = mt.roc_tune(trained_tiny, held, fn_target=0.0)
    risks = est.risk_batch(trained_tiny, held)
    pos = risks[held.y_bin > 0.5]
    if np.min(pos) > np.min(risks):  # some threshold catches every positive
        assert res.fnr_at_tau == 0.0
    else:
        assert res.tau_up == pytest.approx(max(np.unique(risks)[0], 1e-6))


def test_calibration_hand_case():
    rep = mt.compute_calibration([0.05, 0.15, 0.95], [0, 1, 1])
    assert rep.ece == pytest.approx((0.05 + 0.85 + 0.05) / 3)
    assert [r["count"] for r in rep.table] == [1, 1, 1]
    assert rep.table[0]["lo"] == 0.0 and rep.table[-1]["hi"] == 1.0

    perfect = mt.compute_calibration([0.25] * 4, [1, 0, 0, 0])
    assert perfect.ece == pytest.approx(0.0)

    edge = mt.compute_calibration([1.0], [1])  # top edge lands in the last bin
    assert edge.table[0]["hi"] == 1.0 and edge.ece == pytest.approx(0.0)

    with pytest.raises(ValueError):
        mt.compute_calibration([], [])


def test_calibration_weighted_average():
    rng = np.random.default_rng(2)
    risks = rng.uniform(size=500)
    labels = rng.integers(0, 2, size=500)
    rep = mt.compute_calibration(risks, labels)
    total = sum(r["count"] for r in rep.table)
    assert total == 500
    manual = sum(r["count"] / 500 * abs(r["accuracy"] - r["confidence"])
                 for r in rep.table)
    assert rep.ece == pytest.approx(manual)


def test_measure_latency_smoke(trained_tiny):
    rep = mt.measure_latency(trained_tiny, horizon=5, trials=50, warmup=5)
    assert rep.calls == 50
    assert 0.0 < rep.p50_us <= rep.p95_us <= rep.max_us
