"""Acceptance gate: every release criterion, one pass/fail line each.

Criteria 3-6 and 8-10 run against a full-scale pipeline built once per
session from configs/default.json in a temporary directory; the remaining
criteria are exact property checks. Each test appends its verdict line to
the terminal summary, so a single pytest run reports the whole gate.
"""

import json
import os
import pathlib
import shutil
import time

import numpy as np
import pytest

from riskgate import cli
from riskgate import datasetgen as dg
from riskgate import estimator as est
from riskgate import geometry as gm
from riskgate import harness as hn
from riskgate import metrics as mt
from riskgate import policy as pol
from riskgate import safeguard as sg
from riskgate import world as wd

from conftest import ACCEPTANCE_LINES, MICRO_CONFIG, MICRO_STAGES, reset
from test_estimator import batch_mean_loss
from test_geometry import dense_segment_distance, jacobian

REPO = pathlib.Path(__file__).resolve().parents[1]


def record(num, name, ok, detail):
    line = f"{num:>2} {name}: {'PASS' if ok else 'FAIL'} | {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Full-scale artifacts from the shipped default config, built via the
    CLI exactly as a user would, plus per-stage wall-clock times."""
    root = tmp_path_factory.mktemp("accept")
    cfg_obj = json.loads((REPO / "configs" / "default.json").read_text())
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_obj))
    stages = ("gen-data", "train-estimator", "calibrate", "roc-tune",
              "train-policy", "finetune-policy")
    times = {}
    cwd = os.getcwd()
    try:
        os.chdir(root)
        for stage in stages:
            t0 = time.perf_counter()
            code = cli.main([stage, "--config", str(cfg_path)])
            times[stage] = time.perf_counter() - t0
            assert code == 0, f"stage {stage} exited {code}"
            if stage == "train-estimator":
                # keep the uncalibrated checkpoint for the calibration check
                shutil.copy("artifacts/estimator.json",
                            "artifacts/estimator_precal.json")
        for mode in ("ungated", "gated"):
            sub = dict(cfg_obj)
            sub["eval"] = dict(cfg_obj["eval"], mode=mode,
                               logs_dir=f"artifacts/logs_{mode}",
                               report_path=f"artifacts/report_{mode}.json")
            mode_cfg = root / f"cfg_{mode}.json"
            mode_cfg.write_text(json.dumps(sub))
            t0 = time.perf_counter()
            code = cli.main(["evaluate", "--config", str(mode_cfg)])
            times[f"evaluate-{mode}"] = time.perf_counter() - t0
            assert code == 0, f"evaluate {mode} exited {code}"
    finally:
        os.chdir(cwd)

    art = root / "artifacts"
    return {
        "root": root,
        "times": times,
        "est": est.load_params(art / "estimator.json"),
        "est_precal": est.load_params(art / "estimator_precal.json"),
        "heldout": est.stack_batch(
            dg.read_dataset(art / "heldout.jsonl").samples),
        "data_paths": [art / "data" / f"risk_H{h}.jsonl" for h in (2, 3, 5)],
        "bc": pol.load_policy(art / "policy.json"),
        "ft": pol.load_policy(art / "policy_finetuned.json"),
        "thresholds": json.loads((art / "thresholds.json").read_text()),
        "report_ungated": json.loads((art / "report_ungated.json").read_text()),
        "report_gated": json.loads((art / "report_gated.json").read_text()),
    }


def test_criterion_01_geometry_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    # the oracle's kernels: segment_pairs_distance over a batch of pairs,
    # given as (2, 1000) x and y planes, and the joint-origins Jacobian that
    # dls_ik_step solves with
    pairs = rng.uniform(-1.0, 1.0, size=(1000, 4, 2))
    exact = gm.segment_pairs_distance(pairs[:, 0].T, pairs[:, 1].T, pairs[:, 2].T, pairs[:, 3].T)
    worst = 0.0
    for d, (p0, p1, q0, q1) in zip(exact, pairs):
        ref = dense_segment_distance(p0, p1, q0, q1)
        worst = max(worst, abs(d - ref))

    arm = wd.default_world().arm_left
    worst_jac = 0.0
    eps = 1e-6
    for _ in range(20):
        q = rng.uniform(-1.5, 1.5, size=3)
        jac = jacobian(arm, q)
        fd = np.empty_like(jac)
        for j in range(3):
            dq = np.zeros(3)
            dq[j] = eps
            up = gm.forward_kinematics(arm, q + dq)[1]
            dn = gm.forward_kinematics(arm, q - dq)[1]
            fd[:, j] = (up - dn) / (2 * eps)
        worst_jac = max(worst_jac, float(np.abs(jac - fd).max()))
    elapsed = time.perf_counter() - t0

    ok = worst < 2e-3 and worst_jac < 1e-6 and elapsed < 60.0
    record(1, "geometry oracle equivalence", ok,
           f"1000 pairs worst gap {worst:.2e} m (tol 2e-3), "
           f"jacobian FD worst {worst_jac:.2e} (tol 1e-6), {elapsed:.1f}s")


def test_criterion_02_gradient_exactness(tiny_data):
    t0 = time.perf_counter()
    params = est.init_params(seed=42)
    cfg = est.TrainConfig()
    batch = tiny_data["phases"][1].take(np.arange(8))
    param_grads, plan_grads = est.grad(params, batch, cfg)
    rng = np.random.default_rng(42)

    worst_param = 0.0
    names = sorted(params.weights)
    for name in rng.choice(names, size=12, replace=True):
        w = params.weights[name]
        idx = np.unravel_index(rng.integers(w.size), w.shape) if w.shape else ()
        orig = float(w[idx])
        eps = 1e-6 * max(1.0, abs(orig))
        w[idx] = orig + eps
        up = batch_mean_loss(params, batch, cfg)
        w[idx] = orig - eps
        dn = batch_mean_loss(params, batch, cfg)
        w[idx] = orig
        fd = (up - dn) / (2 * eps)
        g = param_grads[name][idx]
        worst_param = max(worst_param, abs(fd - g) / max(abs(fd), abs(g), 1e-8))

    worst_plan = 0.0
    eps = 1e-6
    for _ in range(12):
        i = int(rng.integers(len(batch)))
        h = batch.plan.shape[1] if batch.mask is None else int(batch.mask[i].sum())
        j, k = int(rng.integers(h)), int(rng.integers(4))
        orig = float(batch.plan[i, j, k])
        batch.plan[i, j, k] = orig + eps
        up = batch_mean_loss(params, batch, cfg)
        batch.plan[i, j, k] = orig - eps
        dn = batch_mean_loss(params, batch, cfg)
        batch.plan[i, j, k] = orig
        fd = (up - dn) / (2 * eps)
        g = plan_grads[i, j, k]
        worst_plan = max(worst_plan, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
    elapsed = time.perf_counter() - t0

    ok = worst_param < 1e-4 and worst_plan < 1e-4 and elapsed < 60.0
    record(2, "gradient exactness", ok,
           f"12 param coords worst rel err {worst_param:.2e}, "
           f"12 plan coords worst rel err {worst_plan:.2e} (tol 1e-4), {elapsed:.1f}s")


def test_criterion_03_estimator_quality(pipeline):
    n_samples = 0
    for path in pipeline["data_paths"]:
        head = json.loads(open(path).readline())
        n_samples += head["counts"]["samples"]
    held = pipeline["heldout"]
    risks = est.risk_batch(pipeline["est"], held)
    auc = mt.auc_trapezoid(risks, held.y_bin)
    train_s = pipeline["times"]["train-estimator"]

    ok = n_samples >= 20_000 and auc >= 0.90 and train_s <= 600.0
    record(3, "estimator quality", ok,
           f"dataset {n_samples} samples (>= 20k), held-out AUC {auc:.4f} "
           f"(>= 0.90), training {train_s:.0f}s (<= 600s)")


def test_criterion_04_calibration(pipeline):
    held = pipeline["heldout"]
    pre, post = pipeline["est_precal"], pipeline["est"]
    nll_t1 = est.heldout_nll(pre, held, 1.0)
    nll_cal = est.heldout_nll(post, held, post.temperature)
    ece_before = mt.compute_calibration(est.risk_batch(pre, held),
                                        held.y_bin).ece
    ece_after = mt.compute_calibration(est.risk_batch(post, held),
                                       held.y_bin).ece

    ok = nll_cal <= nll_t1 and ece_after <= ece_before + 0.01
    record(4, "calibration never hurts", ok,
           f"NLL {nll_t1:.4f} -> {nll_cal:.4f} (exact <=), "
           f"ECE {ece_before:.4f} -> {ece_after:.4f} (<= before + 0.01), "
           f"T = {post.temperature:.3f}")


def test_criterion_05_safety_efficacy_crossing(pipeline):
    un = pipeline["report_ungated"]["per_task"]["crossing_transfer"]
    ga = pipeline["report_gated"]["per_task"]["crossing_transfer"]
    eval_s = (pipeline["times"]["evaluate-ungated"]
              + pipeline["times"]["evaluate-gated"])

    ok = (un["episodes"] >= 100 and ga["episodes"] >= 100
          and un["collision_rate"] >= 0.5
          and ga["collision_rate"] <= 0.5 * un["collision_rate"]
          and ga["success_rate"] >= un["success_rate"]
          and eval_s <= 900.0)
    record(5, "safety efficacy (crossing)", ok,
           f"{un['episodes']} episodes: collisions {un['collision_rate']:.2f} "
           f"ungated (>= 0.5) vs {ga['collision_rate']:.2f} gated "
           f"(<= 50%), success {un['success_rate']:.2f} -> "
           f"{ga['success_rate']:.2f} (no loss), eval {eval_s:.0f}s (<= 900s)")


def test_criterion_06_non_interference_parallel(pipeline):
    un = pipeline["report_ungated"]["per_task"]["parallel_place"]
    ga = pipeline["report_gated"]["per_task"]["parallel_place"]

    ok = (ga["collision_rate"] <= un["collision_rate"] + 0.05
          and abs(ga["success_rate"] - un["success_rate"]) <= 0.05)
    record(6, "non-interference (parallel)", ok,
           f"collisions {un['collision_rate']:.2f} -> {ga['collision_rate']:.2f} "
           f"(<= +0.05), success {un['success_rate']:.2f} -> "
           f"{ga['success_rate']:.2f} (within 5 points)")


def test_criterion_07_gate_properties():
    cfg = sg.GateConfig()
    band = np.linspace(cfg.tau_down + 1e-6, cfg.tau_up - 1e-6, 200)

    gate = sg.GateState()
    no_chatter_run = True
    for r in band:
        gate, _ = sg.gate_step(gate, r, cfg)
        no_chatter_run &= gate.mode == sg.RUN

    gate = sg.gate_step(sg.GateState(), 0.99, cfg)[0]
    no_chatter_blocked = True
    for r in band:
        gate, _ = sg.gate_step(gate, r, cfg)
        no_chatter_blocked &= gate.mode == sg.BLOCKED

    gate = sg.gate_step(sg.GateState(), 0.99, cfg)[0]
    modes = []
    for _ in range(cfg.watchdog_window):
        gate, _ = sg.gate_step(gate, 1.0, cfg)
        modes.append(gate.mode)
    watchdog_exact = (modes[:-1] == [sg.BLOCKED] * (cfg.watchdog_window - 1)
                      and modes[-1] == sg.HALTED)

    halted = sg.GateState(mode=sg.HALTED)
    absorbing = all(sg.gate_step(halted, r, cfg) == (halted, sg.HALT)
                    for r in (0.0, 0.2, cfg.tau_down, 1.0))

    ok = no_chatter_run and no_chatter_blocked and watchdog_exact and absorbing
    record(7, "gate state machine", ok,
           f"no chatter in ({cfg.tau_down}, {cfg.tau_up}); halt at exactly "
           f"W={cfg.watchdog_window} saturated cycles; HALTED absorbing")


def test_criterion_08_recovery_refinement(pipeline, world_cfg, task_params):
    params = pipeline["est"]
    gate_cfg = sg.GateConfig(
        tau_up=pipeline["thresholds"]["tau_up"],
        tau_down=pipeline["thresholds"]["tau_down"])
    rng = np.random.default_rng(8)
    monotone = True
    in_box = True
    improved = True
    worst_gap = -np.inf
    for i in range(200):
        tid = wd.TASK_IDS[i % 2]
        state, task = reset(tid, int(rng.integers(2 ** 31)), world_cfg, task_params)
        proprio = wd.proprio_feature(state)
        z = wd.scene_feature(state, task)
        nominal = pol.roll_plan(pol.expert_law(task, world_cfg.a_max), state, 5, world_cfg)
        # row 0 refines the expert's plan, row 1 recovers from the same state
        res = sg.descend(params, np.stack([proprio] * 2), np.stack([z] * 2),
                         np.stack([nominal, np.zeros_like(nominal)]),
                         np.array([False, True]), gate_cfg)
        for objectives in res.objectives:
            monotone &= all(b <= a for a, b in zip(objectives, objectives[1:]))
        in_box &= bool(np.all(np.abs(res.plan) <= gate_cfg.a_max))
        nominal_risk = est.predict_risk(params, proprio, z, nominal).risk
        improved &= res.risk[0] <= nominal_risk
        worst_gap = max(worst_gap, res.risk[0] - nominal_risk)

    ok = monotone and in_box and improved
    record(8, "recovery/refinement descent", ok,
           f"200 states: objectives non-increasing {monotone}, a_max box "
           f"exact {in_box}, refined risk <= nominal {improved} "
           f"(worst gap {worst_gap:.1e})")


def test_criterion_09_latency(pipeline):
    rep = mt.measure_latency(pipeline["est"], horizon=5, trials=1000, warmup=100)
    ok = rep.p50_us < 5000.0
    record(9, "inference latency", ok,
           f"batch-1 p50 {rep.p50_us:.0f} us (< 5000 us), p95 {rep.p95_us:.0f} us "
           f"over {rep.calls} calls")


def test_criterion_10_risk_weighted_finetuning(pipeline, world_cfg, task_params):
    bc, ft, params = pipeline["bc"], pipeline["ft"], pipeline["est"]

    # states drawn from the pre-fine-tune policy's visitation distribution
    rng = np.random.default_rng(np.random.SeedSequence([0, 909]))
    states = []
    for i in range(500):
        tid = wd.TASK_IDS[i % 2]
        state, task = reset(tid, int(rng.integers(2 ** 31)), world_cfg, task_params)
        for _ in range(int(rng.integers(30))):
            a = pol.roll_plan(pol.policy_law(bc, task), state, 1, world_cfg)[0]
            nxt = wd.step(state, a, world_cfg)
            if wd.min_self_distance(nxt, world_cfg) < 0.0:
                break
            state = nxt
        states.append((state, task))

    def mean_own_plan_risk(policy):
        risks = []
        for state, task in states:
            plan = pol.roll_plan(pol.policy_law(policy, task), state, 5, world_cfg)
            risks.append(est.predict_risk(params, wd.proprio_feature(state),
                                          wd.scene_feature(state, task),
                                          plan).risk)
        return float(np.mean(risks))

    def success_rates(policy):
        setup = hn.EvalSetup(mode="ungated", world_cfg=world_cfg,
                             task_params=task_params, gate_cfg=sg.GateConfig(),
                             horizon=5, n_candidates=8, sigma_a=0.01,
                             soft_gate=False, seed=0, policy_params=policy)
        return {tid: np.mean([log.success for log in hn.run_episodes(
                    setup, [(tid, hn.episode_seed(0, tid, i)) for i in range(50)])])
                for tid in wd.TASK_IDS}

    r_bc, r_ft = mean_own_plan_risk(bc), mean_own_plan_risk(ft)
    s_bc, s_ft = success_rates(bc), success_rates(ft)
    drops = {tid: ((s_bc[tid] - s_ft[tid]) / s_bc[tid] if s_bc[tid] > 0 else 0.0)
             for tid in wd.TASK_IDS}

    ok = r_ft <= r_bc and all(d <= 0.10 for d in drops.values())
    succ = ", ".join(f"{tid} {s_bc[tid]:.2f}->{s_ft[tid]:.2f}"
                     for tid in wd.TASK_IDS)
    record(10, "risk-weighted fine-tuning", ok,
           f"mean own-plan risk {r_bc:.6f} -> {r_ft:.6f} on 500 states "
           f"(must not rise), success {succ} (drop <= 10% rel)")


def test_criterion_11_reproducibility(tmp_path_factory):
    artifacts = ("data/risk_H2.jsonl", "data/risk_H3.jsonl", "data/risk_H5.jsonl",
                 "heldout.jsonl", "est.json", "est_post.json",
                 "thresholds.json", "pol.json", "pol_ft.json")

    def run_chain(root):
        cfg_path = root / "cfg.json"
        cfg_path.write_text(json.dumps(MICRO_CONFIG))
        cwd = os.getcwd()
        try:
            os.chdir(root)
            for stage in MICRO_STAGES:
                assert cli.main([stage, "--config", str(cfg_path)]) == 0, stage
            assert cli.main(["evaluate", "--config", str(cfg_path)]) == 0
        finally:
            os.chdir(cwd)

    def stripped_report(path):
        rep = json.loads(path.read_text())
        rep["estimator"].pop("latency")
        return rep

    roots = [tmp_path_factory.mktemp(f"repro{i}") for i in (1, 2)]
    for root in roots:
        run_chain(root)

    identical = [name for name in artifacts
                 if (roots[0] / name).read_bytes() == (roots[1] / name).read_bytes()]
    reports_equal = (stripped_report(roots[0] / "report.json")
                     == stripped_report(roots[1] / "report.json"))

    # worker fan-out must not change the metrics either
    alt = dict(MICRO_CONFIG)
    alt["eval"] = dict(MICRO_CONFIG["eval"], workers=1, logs_dir="logs_w1",
                       report_path="report_w1.json")
    alt_path = roots[0] / "cfg_w1.json"
    alt_path.write_text(json.dumps(alt))
    cwd = os.getcwd()
    try:
        os.chdir(roots[0])
        assert cli.main(["evaluate", "--config", str(alt_path)]) == 0
    finally:
        os.chdir(cwd)
    workers_equal = (stripped_report(roots[0] / "report_w1.json")
                     == stripped_report(roots[0] / "report.json"))

    ok = len(identical) == len(artifacts) and reports_equal and workers_equal
    record(11, "byte-identical reproducibility", ok,
           f"{len(identical)}/{len(artifacts)} artifacts byte-identical across "
           f"independent runs, reports identical latency-stripped "
           f"{reports_equal}, workers 1 vs {MICRO_CONFIG['eval']['workers']} "
           f"identical {workers_equal}")
