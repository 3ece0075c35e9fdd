"""Episode harness: log round-trips, metric arithmetic, gate wiring, and
the exact equivalence of gated and ungated execution when the estimator
never fires."""

import json
import os

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from riskgate import config as cf
from riskgate import estimator as est
from riskgate import harness as hn
from riskgate import safeguard as sg
from riskgate import world as wd


def inert_estimator(logit_bias):
    """Constant-output estimator: zero weights except a fixed risk bias.

    Zero weights make every candidate score bitwise-identical, so argmin
    selection keeps the nominal plan and has exactly zero behavioral effect.
    """
    params = est.init_params(seed=0)
    for k in params.weights:
        params.weights[k] = np.zeros_like(params.weights[k])
    params.weights["b_risk"] = np.array(float(logit_bias))
    return params


def make_setup(world_cfg, task_params, mode="ungated", est_params=None,
               gate_cfg=None, soft_gate=False, horizon=3):
    return hn.EvalSetup(
        mode=mode, world_cfg=world_cfg, task_params=task_params,
        gate_cfg=gate_cfg or sg.GateConfig(), horizon=horizon, n_candidates=4,
        sigma_a=0.01, soft_gate=soft_gate, seed=0, est_params=est_params)


def test_episode_log_roundtrip(world_cfg, task_params, tmp_path):
    setup = make_setup(world_cfg, task_params)
    log = hn.run_episode(setup, "parallel_place", 5)
    assert log.n_steps == len(log.steps) > 0
    path = tmp_path / "ep.jsonl"
    hn.write_episode_log(log, path)
    back = hn.read_episode_log(path)
    assert back == log


def test_read_episode_log_validation(world_cfg, task_params, tmp_path):
    setup = make_setup(world_cfg, task_params)
    log = hn.run_episode(setup, "parallel_place", 6)
    path = tmp_path / "ep.jsonl"
    hn.write_episode_log(log, path)
    lines = path.read_text().splitlines()

    no_term = tmp_path / "a.jsonl"
    no_term.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        hn.read_episode_log(no_term)

    bad_head = tmp_path / "b.jsonl"
    bad_head.write_text("\n".join([json.dumps({"kind": "nope"})] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match="not an episode log"):
        hn.read_episode_log(bad_head)

    term = json.loads(lines[-1])
    term["steps"] += 1
    bad_count = tmp_path / "c.jsonl"
    bad_count.write_text("\n".join(lines[:-1] + [json.dumps(term)]) + "\n")
    with pytest.raises(ValueError, match="count"):
        hn.read_episode_log(bad_count)


def test_ungated_episode_deterministic(world_cfg, task_params):
    setup = make_setup(world_cfg, task_params)
    a = hn.run_episode(setup, "crossing_transfer", 11)
    b = hn.run_episode(setup, "crossing_transfer", 11)
    assert a.success == b.success and a.collided == b.collided
    assert [s.state_digest for s in a.steps] == [s.state_digest for s in b.steps]
    assert [s.action for s in a.steps] == [s.action for s in b.steps]


def test_gated_equals_ungated_when_gate_never_fires(world_cfg, task_params):
    """With a constant near-zero risk and hard gating, the gated run must
    reproduce the ungated trajectory bit for bit."""
    plain = make_setup(world_cfg, task_params, mode="ungated")
    gated = make_setup(world_cfg, task_params, mode="gated",
                       est_params=inert_estimator(-30.0), soft_gate=False)
    for task_id, seed in (("crossing_transfer", 0), ("parallel_place", 1)):
        a = hn.run_episode(plain, task_id, seed)
        b = hn.run_episode(gated, task_id, seed)
        assert [s.state_digest for s in a.steps] == [s.state_digest for s in b.steps]
        assert [s.action for s in a.steps] == [s.action for s in b.steps]
        assert (a.success, a.collided) == (b.success, b.collided)
        assert b.blocked_steps == 0
        assert all(s.r_hat is not None and s.r_hat < 1e-12 for s in b.steps)
        assert all(s.r_hat is None for s in a.steps)


def test_soft_gate_scales_executed_action(world_cfg, task_params):
    hard = make_setup(world_cfg, task_params, mode="gated",
                      est_params=inert_estimator(-2.0), soft_gate=False)
    soft = make_setup(world_cfg, task_params, mode="gated",
                      est_params=inert_estimator(-2.0), soft_gate=True)
    a = hn.run_episode(hard, "parallel_place", 2)
    b = hn.run_episode(soft, "parallel_place", 2)
    r = a.steps[0].r_hat
    scale = sg.soft_scale(r, hard.gate_cfg.tau_up)
    assert 0.0 < scale < 1.0
    assert_array_equal(np.array(b.steps[0].action),
                       np.array(a.steps[0].action) * scale)


def test_watchdog_halts_saturated_blocked_episode(world_cfg, task_params):
    gate_cfg = sg.GateConfig(watchdog_window=5)
    setup = make_setup(world_cfg, task_params, mode="gated",
                       est_params=inert_estimator(30.0), gate_cfg=gate_cfg)
    log = hn.run_episode(setup, "crossing_transfer", 3)
    decisions = [s.decision for s in log.steps]
    assert decisions == [sg.BLOCK] * 5 + [sg.HALT]
    assert log.blocked_steps == 5
    assert log.recoveries == 1
    assert not log.success and not log.collided
    assert log.steps[-1].gate_mode == sg.HALTED
    assert log.steps[-1].action == [0.0, 0.0, 0.0, 0.0]
    # recovery cannot progress on flat risk, so the fallback freezes motion
    assert log.steps[1].action == [0.0, 0.0, 0.0, 0.0]


def test_collector_records_and_corrected_flags(world_cfg, task_params):
    records = []
    setup = make_setup(world_cfg, task_params, mode="gated",
                       est_params=inert_estimator(-30.0))
    log = hn.run_episode(setup, "parallel_place", 4, collector=records)
    assert len(records) == log.n_steps
    for rec, step in zip(records, log.steps):
        assert not rec.corrected
        assert rec.risk == step.r_hat
        assert_array_equal(rec.action, np.array(step.action))
        assert rec.plan.shape == (setup.horizon, 4)
        assert rec.label.y_bin == step.plan_y_bin

    blocked = []
    halt_setup = make_setup(world_cfg, task_params, mode="gated",
                            est_params=inert_estimator(30.0),
                            gate_cfg=sg.GateConfig(watchdog_window=5))
    hn.run_episode(halt_setup, "crossing_transfer", 3, collector=blocked)
    assert len(blocked) == 5  # the HALT step is never a training record
    assert all(r.corrected for r in blocked)


def synthetic_log(task_id, seed, collided, success, steps, blocked=0):
    recs = [hn.StepRecord(t=i, state_digest="x", r_hat=None, d_min=0.1,
                          gate_mode="RUN", decision="EXECUTE",
                          action=[0.0] * 4, latency_us=1.0, plan_y_bin=0)
            for i in range(steps)]
    return hn.EpisodeLog(task_id=task_id, seed=seed, mode="ungated", steps=recs,
                         success=success, collided=collided, n_steps=steps,
                         blocked_steps=blocked)


def test_aggregate_metrics_arithmetic():
    logs = [synthetic_log("crossing_transfer", 0, True, False, 10, blocked=2),
            synthetic_log("crossing_transfer", 1, False, True, 30),
            synthetic_log("parallel_place", 2, False, True, 20)]
    rep = hn.aggregate_metrics(logs, sg.GateConfig(), "ungated", seed=0)
    ct = rep.per_task["crossing_transfer"]
    assert ct["episodes"] == 2
    assert ct["collision_rate"] == 0.5
    assert ct["success_rate"] == 0.5
    assert ct["mean_steps"] == 20.0
    assert ct["blocked_fraction"] == pytest.approx(2 / 40)
    assert rep.per_task["parallel_place"]["success_rate"] == 1.0
    assert rep.episodes == 3
    assert rep.estimator is None  # ungated runs carry no estimator block
    # order independence
    rep2 = hn.aggregate_metrics(list(reversed(logs)), sg.GateConfig(), "ungated", 0)
    assert rep2.to_dict() == rep.to_dict()


def test_aggregate_metrics_estimator_block(world_cfg, task_params):
    setup = make_setup(world_cfg, task_params, mode="gated",
                       est_params=inert_estimator(-2.0))
    logs = [hn.run_episode(setup, "crossing_transfer", s) for s in (0, 1)]
    rep = hn.aggregate_metrics(logs, setup.gate_cfg, "gated", seed=0)
    assert rep.estimator is not None
    assert rep.estimator["n_scored_steps"] == sum(lg.n_steps for lg in logs)
    assert rep.estimator["ece"] is not None
    labels = [s.plan_y_bin for lg in logs for s in lg.steps]
    if 0 < sum(labels) < len(labels):
        assert 0.0 <= rep.estimator["auc"] <= 1.0
    else:
        assert rep.estimator["auc"] is None  # degenerate labels give no AUC


def test_resolve_gate_config(tmp_path):
    cfg = cf.config_from_dict({"gate": {"thresholds_path": ""}})
    static = hn.resolve_gate_config(cfg)
    assert static.tau_up == cfg.gate.tau_up

    path = tmp_path / "thr.json"
    path.write_text(json.dumps({"tau_up": 0.61, "tau_down": 0.305}))
    cfg = cf.config_from_dict({"gate": {"thresholds_path": str(path)}})
    tuned = hn.resolve_gate_config(cfg)
    assert tuned.tau_up == 0.61 and tuned.tau_down == 0.305

    cfg = cf.config_from_dict({"gate": {"thresholds_path": str(tmp_path / "no.json")}})
    with pytest.raises(cf.ConfigError, match="not found"):
        hn.resolve_gate_config(cfg)


def test_prepare_setup_checkpoint_requirements(tmp_path):
    cfg = cf.config_from_dict({
        "estimator": {"checkpoint_path": str(tmp_path / "missing.json")},
        "gate": {"thresholds_path": ""},
    })
    assert hn.prepare_setup(cfg, "ungated").est_params is None
    with pytest.raises(cf.ConfigError, match="estimator checkpoint"):
        hn.prepare_setup(cfg, "gated")
    with pytest.raises(cf.ConfigError, match="unknown mode"):
        hn.prepare_setup(cfg, "turbo")

    est.save_params(inert_estimator(-1.0), tmp_path / "est.json")
    cfg = cf.config_from_dict({
        "estimator": {"checkpoint_path": str(tmp_path / "est.json")},
        "gate": {"thresholds_path": ""},
        "policy": {"finetuned_path": str(tmp_path / "missing_pol.json")},
    })
    assert hn.prepare_setup(cfg, "gated").est_params is not None
    with pytest.raises(cf.ConfigError, match="policy checkpoint"):
        hn.prepare_setup(cfg, "gated+finetuned")


def test_report_from_logs_rebuilds_evaluate_report(world_cfg, task_params, tmp_path):
    cfg = cf.config_from_dict({
        "tasks": {"episodes_per_task": 2},
        "eval": {"mode": "ungated", "logs_dir": str(tmp_path / "logs"),
                 "report_path": str(tmp_path / "report.json")},
    })
    live = hn.evaluate(cfg, "ungated")
    rebuilt = hn.report_from_logs(cfg)
    assert rebuilt.per_task == live.per_task
    assert rebuilt.episodes == live.episodes
    assert json.load(open(cfg.eval.report_path))["per_task"] == live.per_task

    # a log of a different mode in the directory is an error
    stray = synthetic_log("crossing_transfer", 99, False, False, 1)
    stray.mode = "gated"
    hn.write_episode_log(stray, os.path.join(cfg.eval.logs_dir, "ep_stray.jsonl"))
    with pytest.raises(ValueError, match="mix modes"):
        hn.report_from_logs(cfg)


def test_episode_seeds_pair_across_modes():
    a = hn.episode_seed(0, "crossing_transfer", 0)
    b = hn.episode_seed(0, "crossing_transfer", 1)
    c = hn.episode_seed(0, "parallel_place", 0)
    d = hn.episode_seed(1, "crossing_transfer", 0)
    assert len({a, b, c, d}) == 4
    assert a == hn.episode_seed(0, "crossing_transfer", 0)
