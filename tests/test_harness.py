"""Episode harness: log round-trips, metric arithmetic, gate wiring, the
exact equivalence of gated and ungated execution when the estimator never
fires, and of lockstep episodes with episodes run one at a time."""

import hashlib
import json
import os
from dataclasses import asdict, replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import assert_records_equal, label_plans, record_columns, reset
from riskgate import config as cf
from riskgate import datasetgen as dg
from riskgate import estimator as est
from riskgate import harness as hn
from riskgate import policy as pol
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
               gate_cfg=None, soft_gate=False, horizon=3, policy_params=None):
    return hn.EvalSetup(
        mode=mode, world_cfg=world_cfg, task_params=task_params,
        gate_cfg=gate_cfg or sg.GateConfig(), horizon=horizon, n_candidates=4,
        sigma_a=0.01, soft_gate=soft_gate, seed=0, est_params=est_params,
        policy_params=policy_params)


def test_episode_log_roundtrip(world_cfg, task_params, tmp_path):
    setup = make_setup(world_cfg, task_params)
    log = hn.run_episodes(setup, [("parallel_place", 5)])[0]
    assert log.n_steps == len(log.steps) > 0
    path = tmp_path / "ep.jsonl"
    hn.write_episode_log(log, path)
    back = hn.read_episode_log(path)
    assert back == log


def test_episode_log_bytes_match_asdict_writer(world_cfg, task_params, tmp_path):
    """`write_episode_log` writes what the asdict-based writer wrote, byte
    for byte, on a gated episode whose collision step gives way to a
    halted step with edge values, and `read_episode_log` reads the same
    records back."""
    setup = make_setup(world_cfg, task_params, mode="gated", est_params=inert_estimator(-1.0))
    log = hn.run_episodes(setup, [("crossing_transfer", 3)])[0]
    assert log.collided
    log.steps[-1] = hn.StepRecord(t=len(log.steps) - 1, state_digest="f" * 16, r_hat=None,
                                  d_min=-0.0, gate_mode=sg.HALTED, decision=sg.HALT,
                                  action=[5e-324, -0.0, 1e16, 0.1 + 0.2],
                                  latency_us=1e-7, plan_y_bin=1)
    log.collided = False
    path = tmp_path / "ep.jsonl"
    hn.write_episode_log(log, path)
    head = {"kind": "episode", "format_version": hn.LOG_FORMAT_VERSION,
            "task_id": log.task_id, "seed": log.seed, "mode": log.mode}
    term = {"kind": "terminal", "success": log.success, "collided": log.collided,
            "steps": log.n_steps, "blocked_steps": log.blocked_steps,
            "recoveries": log.recoveries}
    ref = [head] + [{"kind": "step", **asdict(s)} for s in log.steps] + [term]
    assert path.read_text() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in ref)
    assert hn.read_episode_log(path) == log


def test_read_episode_log_validation(world_cfg, task_params, tmp_path):
    setup = make_setup(world_cfg, task_params)
    log = hn.run_episodes(setup, [("parallel_place", 6)])[0]
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
    a = hn.run_episodes(setup, [("crossing_transfer", 11)])[0]
    b = hn.run_episodes(setup, [("crossing_transfer", 11)])[0]
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
        a = hn.run_episodes(plain, [(task_id, seed)])[0]
        b = hn.run_episodes(gated, [(task_id, seed)])[0]
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
    a = hn.run_episodes(hard, [("parallel_place", 2)])[0]
    b = hn.run_episodes(soft, [("parallel_place", 2)])[0]
    r = a.steps[0].r_hat
    scale = sg.soft_scale(r, hard.gate_cfg.tau_up)
    assert 0.0 < scale < 1.0
    assert_array_equal(np.array(b.steps[0].action),
                       np.array(a.steps[0].action) * scale)


def test_watchdog_halts_saturated_blocked_episode(world_cfg, task_params):
    gate_cfg = sg.GateConfig(watchdog_window=5)
    setup = make_setup(world_cfg, task_params, mode="gated",
                       est_params=inert_estimator(30.0), gate_cfg=gate_cfg)
    log = hn.run_episodes(setup, [("crossing_transfer", 3)])[0]
    decisions = [s.decision for s in log.steps]
    assert decisions == [sg.BLOCK] * 5 + [sg.HALT]
    assert log.blocked_steps == 5
    assert log.recoveries == 1
    assert not log.success and not log.collided
    assert log.steps[-1].gate_mode == sg.HALTED
    assert log.steps[-1].action == [0.0, 0.0, 0.0, 0.0]
    # recovery cannot progress on flat risk, so the fallback freezes motion
    assert log.steps[1].action == [0.0, 0.0, 0.0, 0.0]


def test_halted_rows_log_their_own_clearance(world_cfg, task_params, monkeypatch):
    """Episodes that HALT in the same step log, with ==, the clearance of
    their own current state, which the step's oracle pass measures: no
    clearance call runs after the episodes' resets."""
    setup = make_setup(world_cfg, task_params, mode="gated",
                       est_params=inert_estimator(30.0), gate_cfg=sg.GateConfig(watchdog_window=5))
    jobs = [("crossing_transfer", 3), ("parallel_place", 4), ("crossing_transfer", 5)]
    states, calls = [], []
    real_pass, real_clearance = wd.rollout_and_step, wd.min_self_distance

    def recorded_pass(state, *args):
        states.append(state)
        calls.append("pass")
        return real_pass(state, *args)

    def recorded_clearance(state, cfg):
        calls.append("clearance")
        return real_clearance(state, cfg)

    monkeypatch.setattr(wd, "rollout_and_step", recorded_pass)
    monkeypatch.setattr(wd, "min_self_distance", recorded_clearance)
    logs = hn.run_episodes(setup, jobs)
    monkeypatch.undo()
    assert [lg.steps[-1].decision for lg in logs] == [sg.HALT] * 3
    assert {lg.n_steps for lg in logs} == {6}
    first_pass = calls.index("pass")
    assert "clearance" in calls[:first_pass] and "clearance" not in calls[first_pass:]
    state = states[5]
    assert len(state.q) == len(jobs)
    for j, lg in enumerate(logs):
        assert lg.steps[-1].d_min == wd.min_self_distance(wd.take(state, j), world_cfg)


@pytest.mark.parametrize("horizon", [1, 3, 5])
@pytest.mark.parametrize("cloned", [False, True])
def test_gated_steps_plan_within_the_oracle_pass(world_cfg, task_params, monkeypatch,
                                                 horizon, cloned):
    """From a lockstep group's second step on, a gated step makes H
    `dls_ik_step` and H `joint_origins` calls, those of its one oracle
    pass, which also plans the next step; only the first step plans by
    itself, with H - 1 more. Either planner, the expert or the cloned
    policy."""
    setup = make_setup(world_cfg, task_params, mode="gated", est_params=inert_estimator(-30.0),
                       horizon=horizon, policy_params=pol.init_policy(seed=2) if cloned else None)
    calls = {"dls_ik_step": 0, "joint_origins": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(wd, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(wd, name, counting)
    marks, select = [], sg.select_candidate

    def marked(*args):
        marks.append(dict(calls))
        return select(*args)

    monkeypatch.setattr(sg, "select_candidate", marked)
    logs = hn.run_episodes(setup, [("parallel_place", 4), ("crossing_transfer", 5)])
    assert len(marks) == max(lg.n_steps for lg in logs) > 3
    assert marks[0]["dls_ik_step"] == horizon - 1
    for before, after in zip(marks, marks[1:]):
        assert {k: after[k] - before[k] for k in calls} == {k: horizon for k in calls}


def test_collector_records_and_corrected_flags(world_cfg, task_params):
    """With record, run_episodes returns, instead of the logs, one row per
    executed step of them: the commanded action (here the executed one),
    the plan and its label; corrected holds the BLOCK decisions, and a
    HALT step adds no row."""
    setup = make_setup(world_cfg, task_params, mode="gated",
                       est_params=inert_estimator(-30.0))
    (log,) = hn.run_episodes(setup, [("parallel_place", 4)])
    records = hn.run_episodes(setup, [("parallel_place", 4)], record=True)
    assert len(records) == log.n_steps and not records.corrected.any()
    assert_array_equal(records.action, [step.action for step in log.steps])
    assert records.batch.plan.shape == (log.n_steps, setup.horizon, 4)
    assert_array_equal(records.batch.y_bin, [step.plan_y_bin for step in log.steps])

    halt_setup = make_setup(world_cfg, task_params, mode="gated",
                            est_params=inert_estimator(30.0),
                            gate_cfg=sg.GateConfig(watchdog_window=5))
    (log,) = hn.run_episodes(halt_setup, [("crossing_transfer", 3)])
    blocked = hn.run_episodes(halt_setup, [("crossing_transfer", 3)], record=True)
    assert [step.decision for step in log.steps] == [sg.BLOCK] * 5 + [sg.HALT]
    assert len(blocked) == 5 and blocked.corrected.all()


def test_record_mode_builds_no_log(world_cfg, task_params, monkeypatch):
    """With record, run_episodes never digests a state or makes a
    `StepRecord`, in any mode; without record, every step does both."""
    def refuse(*args, **kwargs):
        raise AssertionError("built a log")

    monkeypatch.setattr(hn, "_state_digests", refuse)
    monkeypatch.setattr(hn, "StepRecord", refuse)
    jobs = [("crossing_transfer", 3), ("parallel_place", 4)]
    for mode in cf.MODES:
        setup = make_setup(world_cfg, task_params, mode=mode,
                           est_params=None if mode == "ungated" else inert_estimator(-30.0),
                           policy_params=pol.init_policy(seed=2)
                           if mode == "gated+finetuned" else None)
        assert len(hn.run_episodes(setup, jobs, record=True)) > 0, mode
        with pytest.raises(AssertionError, match="built a log"):
            hn.run_episodes(setup, jobs)


class NoDraws:
    """A stream that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from an untouched stream ({name})")


def without_latency(log):
    return replace(log, steps=[replace(s, latency_us=0.0) for s in log.steps])


def test_exploration_noise_is_drawn_only_when_set(world_cfg, task_params):
    """Ungated at explore_noise 0, no episode touches its jitter stream, and
    the default streams are the (setup.seed, task, seed, 101 or 102)
    layout. Above 0, each step draws the noise from the jitter stream,
    executes and logs the commanded action plus the noise, clipped to the
    box, and records the commanded action."""
    setup = make_setup(world_cfg, task_params)
    jobs = [("crossing_transfer", 11), ("parallel_place", 4)]

    def layout():
        return [[np.random.default_rng(np.random.SeedSequence(
                    [setup.seed, wd.task_index(tid), seed, k])) for k in (101, 102)]
                for tid, seed in jobs]

    untouched = [(noise, NoDraws()) for noise, _ in layout()]
    assert [without_latency(lg) for lg in hn.run_episodes(setup, jobs, streams=untouched)] == \
        [without_latency(lg) for lg in hn.run_episodes(setup, jobs)]
    noisy = replace(setup, explore_noise=0.01)
    with pytest.raises(AssertionError, match="drew from an untouched stream"):
        hn.run_episodes(noisy, jobs, streams=[(noise, NoDraws()) for noise, _ in layout()])
    logs, records = hn.run_episodes(noisy, jobs), hn.run_episodes(noisy, jobs, record=True)
    assert len(records) == sum(log.n_steps for log in logs)
    assert_array_equal(records.action, records.batch.plan[:, 0])
    a_max, lo = world_cfg.a_max, 0
    for log, (_, jitter) in zip(logs, layout()):
        assert log.n_steps > 1
        actions, lo = records.action[lo:lo + log.n_steps], lo + log.n_steps
        for step, action in zip(log.steps, actions):
            noise = jitter.normal(0.0, 0.01, size=4)
            assert step.action == np.clip(action + noise, -a_max, a_max).tolist()
        assert any(step.action != action.tolist() for step, action in zip(log.steps, actions))


def test_gated_modes_refuse_noise_and_halt_rows_execute_zeros(world_cfg, task_params,
                                                              monkeypatch):
    """A gated setup with explore_noise > 0 raises before any step runs; a
    HALT row executes, and logs, the zero action."""
    setup = make_setup(world_cfg, task_params, mode="gated", est_params=inert_estimator(30.0),
                       gate_cfg=sg.GateConfig(watchdog_window=5))
    executed, real_pass = [], wd.rollout_and_step

    def recorded(state, plans, actions, *args):
        executed.append(actions.copy())
        return real_pass(state, plans, actions, *args)

    monkeypatch.setattr(wd, "rollout_and_step", recorded)
    for mode in ("gated", "gated+refine", "gated+finetuned"):
        with pytest.raises(ValueError, match="explore_noise applies to ungated episodes only"):
            hn.run_episodes(replace(setup, mode=mode, explore_noise=0.01),
                            [("crossing_transfer", 3)])
    assert executed == []
    log = hn.run_episodes(setup, [("crossing_transfer", 3)])[0]
    assert log.steps[-1].decision == sg.HALT and len(executed) == log.n_steps
    assert_array_equal(executed[-1], np.zeros((1, 4)))
    assert log.steps[-1].action == [0.0] * 4


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
    logs = hn.run_episodes(setup, [("crossing_transfer", s) for s in (0, 1)])
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


def one_episode_at_a_time(setup, task_id, seed, collector):
    """Reference episode: the closed loop of one episode alone, from the
    per-state public calls. Returns its log and how it ended, and appends
    to collector the reference row (`assert_records_equal`) of each step
    that does not HALT."""
    wcfg, gate_cfg = setup.world_cfg, setup.gate_cfg
    state, task = reset(task_id, seed, wcfg, setup.task_params)
    noise, jitter = (np.random.default_rng(np.random.SeedSequence(
        [setup.seed, wd.task_index(task_id), seed, k])) for k in (101, 102))
    goals = task.goal.ravel()
    if setup.policy_params is None:
        law = pol.expert_law(task, wcfg.a_max)
    else:
        law = pol.policy_law(setup.policy_params, task)
    gate = sg.GateState()
    log = hn.EpisodeLog(task_id=task_id, seed=seed, mode=setup.mode, steps=[])
    ending = "budget"
    for t in range(setup.task_params.max_steps):
        digest = hashlib.sha256(np.concatenate(
            [state.q[0], state.q[1], [state.g[0], state.g[1], float(state.t)]]
        ).tobytes()).hexdigest()[:16]
        proprio = wd.proprio_feature(state)
        z = wd.scene_feature(state, task, wcfg.noise_sigma, noise)
        nominal = pol.roll_plan(law, state, setup.horizon, wcfg)
        r_hat, decision, plan, action = None, sg.EXECUTE, nominal, nominal[0].copy()
        if setup.mode != "ungated":
            cands = dg.sample_candidates(nominal, setup.n_candidates, setup.sigma_a, jitter,
                                         wcfg.a_max)
            choice = sg.select_candidate(setup.est_params, proprio, z, cands, wcfg.a_max)
            r_hat = float(choice.risks[choice.index])
            before = gate.mode
            gate, decision = sg.gate_step(gate, r_hat, gate_cfg)
            log.recoveries += before == sg.RUN and gate.mode == sg.BLOCKED
            if decision == sg.EXECUTE:
                plan = choice.plan
                if setup.mode == "gated+refine":
                    plan = sg.descend(setup.est_params, proprio[None], z[None], plan[None],
                                      np.zeros(1, dtype=bool), gate_cfg).plan[0]
                action = plan[0].copy()
                if setup.soft_gate:
                    action *= sg.soft_scale(r_hat, gate_cfg.tau_up)
            elif decision == sg.BLOCK:
                log.blocked_steps += 1
                rec = sg.descend(setup.est_params, proprio[None], z[None],
                                 np.zeros((1, setup.horizon, 4)), np.ones(1, dtype=bool),
                                 gate_cfg)
                plan = rec.plan[0]
                action = plan[0].copy()
                if not rec.made_progress[0]:
                    action *= sg.distance_fallback(rec.min_dist[0], gate_cfg.d0)
        label = label_plans(state, plan[None], wcfg)[0]
        if decision == sg.HALT:
            log.steps.append(hn.StepRecord(
                t=t, state_digest=digest, r_hat=r_hat,
                d_min=wd.min_self_distance(state, wcfg), gate_mode=gate.mode,
                decision=decision, action=[0.0] * 4, latency_us=0.0,
                plan_y_bin=label.y_bin))
            ending = "halt"
            break
        collector.append(dict(proprio=proprio, z=z, goals=goals, action=action, plan=plan,
                              label=label, corrected=decision == sg.BLOCK))
        state = wd.step(state, action, wcfg)
        d_min = wd.min_self_distance(state, wcfg)
        log.steps.append(hn.StepRecord(
            t=t, state_digest=digest, r_hat=r_hat, d_min=d_min, gate_mode=gate.mode,
            decision=decision, action=action.tolist(), latency_us=0.0,
            plan_y_bin=label.y_bin))
        if d_min < 0.0:
            log.collided, ending = True, "collision"
            break
        if wd.success_check(state, task):
            log.success, ending = True, "success"
            break
    if not log.collided:
        log.success = log.success or bool(wd.success_check(state, task))
    log.n_steps = len(log.steps)
    return log, ending


LOCKSTEP_JOBS = [("crossing_transfer", s) for s in (0, 1, 2, 3)] + \
    [("parallel_place", s) for s in (0, 1, 2, 3)]


@pytest.fixture(scope="module")
def lockstep_cases(world_cfg, trained_tiny):
    """Setups of all four modes, gated+refine with thresholds low enough
    that episodes block while others refine, and the watchdog halt case,
    each with its per-episode reference logs, records and endings over
    LOCKSTEP_JOBS."""
    params = wd.TaskParams(max_steps=30)
    gate_cfg = sg.GateConfig(tau_up=0.6, tau_down=0.3)
    setups = {mode: make_setup(world_cfg, params, mode=mode, gate_cfg=gate_cfg,
                               est_params=None if mode == "ungated" else trained_tiny,
                               soft_gate=True, horizon=5,
                               policy_params=pol.init_policy(seed=2)
                               if mode == "gated+finetuned" else None)
              for mode in cf.MODES}
    setups["refine+recover"] = make_setup(
        world_cfg, params, mode="gated+refine", gate_cfg=sg.GateConfig(tau_up=0.1, tau_down=0.05),
        est_params=trained_tiny, soft_gate=True, horizon=5)
    setups["halt"] = make_setup(world_cfg, params, mode="gated",
                                est_params=inert_estimator(30.0),
                                gate_cfg=sg.GateConfig(watchdog_window=5))
    cases = {}
    for name, setup in setups.items():
        ref = []
        for task_id, seed in LOCKSTEP_JOBS:
            records = []
            log, ending = one_episode_at_a_time(setup, task_id, seed, records)
            ref.append((log, records, ending))
        cases[name] = (setup, ref)
    return cases


@pytest.mark.parametrize("group", [wd.LOCKSTEP_EPISODES, 3])
def test_lockstep_equals_one_episode_at_a_time(lockstep_cases, monkeypatch, group):
    """`run_episodes` steps its episodes together, in groups of `group`.
    In every mode each log, without its latency, equals, with ==, that of
    the episode run alone, and the records are the episodes' reference
    rows in (job, step) order; over both tasks, episodes end by collision,
    success, the step budget and a watchdog HALT, and in gated+refine one
    descend call recovers one episode while it refines another (the
    low-threshold case)."""
    monkeypatch.setattr(wd, "LOCKSTEP_EPISODES", group)
    endings = {}
    for name, (setup, ref) in lockstep_cases.items():
        flags = []
        descend = sg.descend

        def recorded(*args):
            flags.append(np.array(args[4]))
            return descend(*args)

        with monkeypatch.context() as m:
            m.setattr(sg, "descend", recorded)
            logs = hn.run_episodes(setup, LOCKSTEP_JOBS)
            records = hn.run_episodes(setup, LOCKSTEP_JOBS, record=True)
        if name == "refine+recover":
            assert any(f.any() and not f.all() for f in flags)
        assert len(logs) == len(ref)
        assert_records_equal(records, [row for _, rows, _ in ref for row in rows])
        for log, (ref_log, _, ending) in zip(logs, ref):
            assert all(s.latency_us > 0.0 for s in log.steps)
            assert without_latency(log) == ref_log
            endings.setdefault(ending, set()).add((name, log.task_id))
    assert set(endings) == {"collision", "success", "budget", "halt"}, endings
    assert {task_id for cases in endings.values() for _, task_id in cases} == set(wd.TASK_IDS)


def test_records_of_one_job_are_its_rows_of_a_multi_job_run(lockstep_cases):
    """The records of a run of many jobs are, job after job, the records
    of each job run alone: a row per step that does not HALT, corrected
    exactly where that step BLOCKs."""
    decisions = set()
    for name in ("ungated", "refine+recover", "halt"):
        setup, _ = lockstep_cases[name]
        logs = hn.run_episodes(setup, LOCKSTEP_JOBS)
        records = hn.run_episodes(setup, LOCKSTEP_JOBS, record=True)
        lo = 0
        for job, log in zip(LOCKSTEP_JOBS, logs):
            alone = hn.run_episodes(setup, [job], record=True)
            steps = [step.decision for step in log.steps]
            decisions.update(steps)
            assert_array_equal(alone.corrected, [d == sg.BLOCK for d in steps if d != sg.HALT])
            part = records.take(slice(lo, lo + len(alone)))
            for got, want in zip(record_columns(part), record_columns(alone)):
                assert_array_equal(got, want)
            lo += len(alone)
        assert lo == len(records)
    assert decisions == {sg.EXECUTE, sg.BLOCK, sg.HALT}
