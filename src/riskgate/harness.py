"""Episode execution and evaluation.

run_episode drives one seeded episode in one of four modes (ungated,
gated, gated+refine, gated+finetuned), logging every step; evaluate fans
episodes out over tasks and seeds, aggregates a metrics report, and
persists logs as line-delimited records. Logs are the source of truth:
every non-latency number in the report is recomputable from them.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import config as cf
from . import datasetgen as dg
from . import estimator as est
from . import metrics as mt
from . import policy as pol
from . import safeguard as sg
from . import world as wd

LOG_FORMAT_VERSION = 1


@dataclass
class StepRecord:
    t: int
    state_digest: str
    r_hat: float | None       # selected-candidate risk; None when ungated
    d_min: float              # true clearance after the executed step
    gate_mode: str
    decision: str
    action: list
    latency_us: float
    plan_y_bin: int | None    # oracle label of the plan driving the step


@dataclass
class EpisodeLog:
    task_id: str
    seed: int
    mode: str
    steps: list
    success: bool = False
    collided: bool = False
    n_steps: int = 0
    blocked_steps: int = 0
    recoveries: int = 0


@dataclass
class EvalSetup:
    """Everything an episode worker needs, resolved from RunConfig."""

    mode: str
    world_cfg: wd.WorldConfig
    task_params: wd.TaskParams
    gate_cfg: sg.GateConfig
    horizon: int
    n_candidates: int
    sigma_a: float
    soft_gate: bool
    seed: int
    est_params: est.EstimatorParams | None = None
    policy_params: pol.PolicyParams | None = None


def _state_digest(state: wd.DualArmState) -> str:
    payload = np.concatenate([state.q_left, state.q_right,
                              [state.g_left, state.g_right, float(state.t)]])
    return hashlib.sha256(payload.tobytes()).hexdigest()[:16]


def resolve_gate_config(cfg: cf.RunConfig) -> sg.GateConfig:
    """Gate thresholds for a run: the tuned file when configured, else the
    static gate section."""
    path = cfg.gate.thresholds_path
    if not path:
        return cfg.gate_config()
    if not os.path.exists(path):
        raise cf.ConfigError(f"thresholds file not found: {path}")
    with open(path) as f:
        tuned = json.load(f)
    return replace(cfg.gate_config(), tau_up=tuned["tau_up"], tau_down=tuned["tau_down"])


def prepare_setup(cfg: cf.RunConfig, mode: str | None = None) -> EvalSetup:
    """Load checkpoints and thresholds referenced by the config.

    Gated modes require the estimator checkpoint; the finetuned mode also
    requires the fine-tuned policy checkpoint. If gate.thresholds_path is
    set, tuned thresholds override the static gate section.
    """
    mode = mode or cfg.eval.mode
    if mode not in cf.MODES:
        raise cf.ConfigError(f"unknown mode {mode!r}")
    gate_cfg = cfg.gate_config()
    est_params = None
    policy_params = None
    if mode != "ungated":
        if not os.path.exists(cfg.estimator.checkpoint_path):
            raise cf.ConfigError(
                f"estimator checkpoint not found: {cfg.estimator.checkpoint_path}")
        est_params = est.load_params(cfg.estimator.checkpoint_path)
        gate_cfg = resolve_gate_config(cfg)
    if mode == "gated+finetuned":
        if not os.path.exists(cfg.policy.finetuned_path):
            raise cf.ConfigError(
                f"fine-tuned policy checkpoint not found: {cfg.policy.finetuned_path}")
        policy_params = pol.load_policy(cfg.policy.finetuned_path)
    return EvalSetup(
        mode=mode, world_cfg=cfg.world_config(), task_params=cfg.task_params(),
        gate_cfg=gate_cfg, horizon=cfg.eval.H, n_candidates=cfg.eval.n_candidates,
        sigma_a=cfg.eval.sigma_a, soft_gate=cfg.eval.soft_gate, seed=cfg.seed,
        est_params=est_params, policy_params=policy_params)


def _nominal_plan(setup: EvalSetup, state, task):
    if setup.policy_params is not None:
        return pol.policy_plan(setup.policy_params, state, task,
                               setup.world_cfg, setup.horizon)
    return pol.scripted_expert(state, task, setup.horizon, setup.world_cfg)[0]


def run_episode(setup: EvalSetup, task_id: str, seed: int,
                collector: list | None = None) -> EpisodeLog:
    """One seeded episode; returns the full log.

    The loop ends at success, collision (terminal failure), a HALT
    decision, or the step budget. Feature noise and candidate jitter come
    from separate seeded streams, so the executed trajectory under a gate
    that never blocks matches the ungated trajectory exactly.

    When collector is given, a labeled record per step is appended for
    aggregation (corrected actions at blocked steps come from recovery).
    """
    wcfg = setup.world_cfg
    state, task = wd.task_init(task_id, seed, wcfg, setup.task_params)
    tidx = wd.task_index(task_id)
    noise_rng = np.random.default_rng(np.random.SeedSequence([setup.seed, tidx, int(seed), 101]))
    jitter_rng = np.random.default_rng(np.random.SeedSequence([setup.seed, tidx, int(seed), 102]))
    gated = setup.mode != "ungated"
    gate = sg.GateState()
    log = EpisodeLog(task_id=task_id, seed=int(seed), mode=setup.mode, steps=[])
    goals = np.concatenate([task.goal_left, task.goal_right])

    for t in range(task.max_steps):
        digest = _state_digest(state)
        t0 = time.perf_counter()
        proprio = wd.proprio_feature(state)
        z = wd.scene_feature(state, task, wcfg.noise_sigma, noise_rng)
        nominal = _nominal_plan(setup, state, task)
        r_hat = None
        plan_label = None
        decision = sg.EXECUTE
        exec_plan = nominal
        halted = False

        if gated:
            cands = dg.sample_candidates(nominal, setup.n_candidates,
                                         setup.sigma_a, jitter_rng, wcfg.a_max)
            choice = sg.select_candidate(setup.est_params, proprio, z, cands, wcfg.a_max)
            r_hat = float(choice.risks[choice.index])
            prev_mode = gate.mode
            gate, decision = sg.gate_step(gate, r_hat, setup.gate_cfg)
            if prev_mode == sg.RUN and gate.mode == sg.BLOCKED:
                log.recoveries += 1
            if decision == sg.EXECUTE:
                exec_plan = choice.plan
                if setup.mode == "gated+refine":
                    refined = sg.refine_plan(setup.est_params, proprio, z,
                                             exec_plan, setup.gate_cfg)
                    exec_plan = refined.plan
                action_row = exec_plan[0].copy()
                if setup.soft_gate:
                    action_row *= sg.soft_scale(r_hat, setup.gate_cfg.tau_up)
            elif decision == sg.BLOCK:
                log.blocked_steps += 1
                rec = sg.recover(setup.est_params, proprio, z, setup.horizon,
                                 setup.gate_cfg)
                exec_plan = rec.plan
                action_row = rec.plan[0].copy()
                if not rec.made_progress:
                    action_row *= sg.distance_fallback(rec.min_dist,
                                                       setup.gate_cfg.d0)
            else:
                action_row = np.zeros(4)
                halted = True
        else:
            action_row = nominal[0].copy()

        latency_us = max((time.perf_counter() - t0) * 1e6, 1e-3)
        plan_label = wd.rollout(state, exec_plan, wcfg)

        if halted:
            log.steps.append(StepRecord(
                t=t, state_digest=digest, r_hat=r_hat,
                d_min=float(wd.min_self_distance(state, wcfg)),
                gate_mode=gate.mode, decision=decision,
                action=[0.0, 0.0, 0.0, 0.0], latency_us=latency_us,
                plan_y_bin=int(plan_label.y_bin)))
            break

        if collector is not None:
            collector.append(pol.DemoRecord(
                proprio=proprio, z=z, goals=goals.copy(),
                action=action_row.copy(), plan=exec_plan.copy(), label=plan_label,
                risk=float(r_hat) if r_hat is not None else 0.0,
                corrected=(decision == sg.BLOCK)))

        state = wd.step(state, action_row, wcfg)
        d_min = float(wd.min_self_distance(state, wcfg))
        log.steps.append(StepRecord(
            t=t, state_digest=digest, r_hat=r_hat, d_min=d_min,
            gate_mode=gate.mode, decision=decision,
            action=[float(a) for a in action_row], latency_us=latency_us,
            plan_y_bin=int(plan_label.y_bin)))
        if d_min < 0.0:
            log.collided = True
            break
        if wd.success_check(state, task):
            log.success = True
            break

    log.n_steps = len(log.steps)
    if not log.collided:
        log.success = log.success or wd.success_check(state, task)
    return log


def write_episode_log(log: EpisodeLog, path) -> None:
    with open(path, "w") as f:
        head = {"kind": "episode", "format_version": LOG_FORMAT_VERSION,
                "task_id": log.task_id, "seed": log.seed, "mode": log.mode}
        f.write(json.dumps(head, sort_keys=True) + "\n")
        for s in log.steps:
            rec = {"kind": "step", **asdict(s)}
            f.write(json.dumps(rec, sort_keys=True) + "\n")
        term = {"kind": "terminal", "success": log.success,
                "collided": log.collided, "steps": log.n_steps,
                "blocked_steps": log.blocked_steps, "recoveries": log.recoveries}
        f.write(json.dumps(term, sort_keys=True) + "\n")


def episode_log_path(logs_dir, log: EpisodeLog) -> str:
    """Where an episode's log lives: one file per (mode, task, seed)."""
    name = f"ep_{log.mode.replace('+', '_')}_{log.task_id}_{log.seed}.jsonl"
    return os.path.join(logs_dir, name)


def read_episode_log(path) -> EpisodeLog:
    with open(path) as f:
        lines = [json.loads(x) for x in f if x.strip()]
    if not lines or lines[0].get("kind") != "episode":
        raise ValueError(f"not an episode log: {path}")
    head = lines[0]
    log = EpisodeLog(task_id=head["task_id"], seed=int(head["seed"]),
                     mode=head["mode"], steps=[])
    for obj in lines[1:-1]:
        if obj.get("kind") != "step":
            raise ValueError(f"unexpected record kind {obj.get('kind')!r}")
        obj = {k: v for k, v in obj.items() if k != "kind"}
        log.steps.append(StepRecord(**obj))
    term = lines[-1]
    if term.get("kind") != "terminal":
        raise ValueError("log missing terminal record")
    log.success = bool(term["success"])
    log.collided = bool(term["collided"])
    log.n_steps = int(term["steps"])
    log.blocked_steps = int(term["blocked_steps"])
    log.recoveries = int(term["recoveries"])
    if log.n_steps != len(log.steps):
        raise ValueError("terminal step count disagrees with records")
    return log


@dataclass
class MetricsReport:
    mode: str
    seed: int
    per_task: dict
    estimator: dict | None
    thresholds: dict
    episodes: int

    def to_dict(self) -> dict:
        return {"mode": self.mode, "seed": self.seed, "episodes": self.episodes,
                "per_task": self.per_task, "estimator": self.estimator,
                "thresholds": self.thresholds}


def aggregate_metrics(logs, gate_cfg: sg.GateConfig, mode: str, seed: int,
                      latency: mt.LatencyReport | None = None) -> MetricsReport:
    """Reduce episode logs to the metrics report (order-independent)."""
    logs = sorted(logs, key=lambda lg: (lg.task_id, lg.seed))
    per_task = {}
    for tid in sorted({lg.task_id for lg in logs}):
        group = [lg for lg in logs if lg.task_id == tid]
        n = len(group)
        total_steps = sum(lg.n_steps for lg in group)
        blocked = sum(lg.blocked_steps for lg in group)
        per_task[tid] = {
            "episodes": n,
            "collision_rate": sum(lg.collided for lg in group) / n,
            "success_rate": sum(lg.success for lg in group) / n,
            "blocked_fraction": blocked / total_steps if total_steps else 0.0,
            "mean_steps": total_steps / n,
            "recoveries": sum(lg.recoveries for lg in group),
        }
    estimator_block = None
    if mode != "ungated":
        risks, labels = [], []
        for lg in logs:
            for s in lg.steps:
                if s.r_hat is not None and s.plan_y_bin is not None:
                    risks.append(s.r_hat)
                    labels.append(s.plan_y_bin)
        estimator_block = {"auc": None, "ece": None, "reliability": None,
                           "latency": None, "n_scored_steps": len(risks)}
        risks = np.array(risks)
        labels = np.array(labels, dtype=float)
        if len(risks) and labels.min() < 0.5 < labels.max():
            estimator_block["auc"] = mt.auc_trapezoid(risks, labels)
        if len(risks):
            cal = mt.compute_calibration(risks, labels)
            estimator_block["ece"] = cal.ece
            estimator_block["reliability"] = cal.table
        if latency is not None:
            estimator_block["latency"] = asdict(latency)
    return MetricsReport(
        mode=mode, seed=seed, per_task=per_task, estimator=estimator_block,
        thresholds={"tau_up": gate_cfg.tau_up, "tau_down": gate_cfg.tau_down},
        episodes=len(logs))


def episode_seed(base_seed: int, task_id: str, index: int, tag: int = 201) -> int:
    """Seed of episode `index` of a task; tags keep the stages' grids apart."""
    ss = np.random.SeedSequence([base_seed, wd.task_index(task_id), index, tag])
    return int(ss.generate_state(1)[0])


def _run_one(args):
    setup, task_id, seed = args
    return run_episode(setup, task_id, seed)


def evaluate(cfg: cf.RunConfig, mode: str | None = None,
             write_logs: bool = True) -> MetricsReport:
    """Run the full episode grid for one mode and aggregate the report.

    Episode seeds derive from (config seed, task, index) only, so the same
    seeds pair up across modes. Workers > 1 fan episodes out to processes;
    aggregation sorts by (task, seed), so the report is identical either way.
    """
    setup = prepare_setup(cfg, mode)
    jobs = [(setup, tid, episode_seed(cfg.seed, tid, i))
            for tid in cfg.tasks.ids
            for i in range(cfg.tasks.episodes_per_task)]
    if cfg.eval.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.eval.workers) as pool:
            logs = list(pool.map(_run_one, jobs, chunksize=4))
    else:
        logs = [_run_one(j) for j in jobs]

    if write_logs:
        os.makedirs(cfg.eval.logs_dir, exist_ok=True)
        for lg in logs:
            write_episode_log(lg, episode_log_path(cfg.eval.logs_dir, lg))

    latency = None
    if setup.mode != "ungated":
        latency = mt.measure_latency(setup.est_params, setup.horizon,
                                     trials=cfg.eval.latency_trials,
                                     warmup=cfg.eval.latency_warmup,
                                     seed=cfg.seed)
    report = aggregate_metrics(logs, setup.gate_cfg, setup.mode, cfg.seed, latency)
    if write_logs:
        with open(cfg.eval.report_path, "w") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
    return report


def report_from_logs(cfg: cf.RunConfig, logs_dir=None) -> MetricsReport:
    """Rebuild the metrics report purely from persisted episode logs."""
    logs_dir = logs_dir or cfg.eval.logs_dir
    paths = sorted(p for p in os.listdir(logs_dir) if p.endswith(".jsonl"))
    if not paths:
        raise FileNotFoundError(f"no episode logs in {logs_dir}")
    logs = [read_episode_log(os.path.join(logs_dir, p)) for p in paths]
    modes = {lg.mode for lg in logs}
    if len(modes) > 1:
        raise ValueError(f"logs mix modes {sorted(modes)}; point at one run")
    gate_cfg = resolve_gate_config(cfg) if logs[0].mode != "ungated" else cfg.gate_config()
    return aggregate_metrics(logs, gate_cfg, logs[0].mode, cfg.seed)
