"""Episode execution and evaluation.

run_episodes drives seeded episodes in one of four modes (ungated, gated,
gated+refine, gated+finetuned), logging every step: evaluation's
episodes, the gated rollouts whose records refine policy and estimator,
and the expert demonstrations (ungated, with exploration noise), whose
training records it keeps as columns (`pol.Records`) on request. The
episodes run together in `world.lockstep`, with batched observation,
planning, candidate scoring, recovery and refinement, and oracle calls;
only the gate transition runs per episode, and every log is the one the
episode gives when run by itself. evaluate runs the episodes of every
task and seed, aggregates a metrics report, and persists logs as
line-delimited records. Logs are the source of truth: every number in
the report, the control loop's step latency included, is recomputable
from them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, replace

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
    # wall time of the step's shared part (batched observation, at an
    # episode's first step the expert's or the cloned policy's plans,
    # candidate sampling and the one batched candidate scoring; from its
    # second step the plans come with the last step's oracle pass, outside
    # this time), plus this episode's own gate transition time, plus, when
    # this episode recovered or refined, the whole time of the step's one
    # descent call, which every row in that call waited for
    latency_us: float
    plan_y_bin: int           # oracle label of the plan driving the step


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
    """Everything `run_episodes` needs, resolved from RunConfig."""

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
    # sigma of the Gaussian noise added to each executed action (ungated only)
    explore_noise: float = 0.0


def _state_digests(state: wd.DualArmState) -> list:
    """Digest of each row of a batched state."""
    n = len(state.t)
    payload = np.concatenate([state.q.reshape(n, -1), state.g, state.t[:, None].astype(float)],
                             axis=1)
    return [hashlib.sha256(row.tobytes()).hexdigest()[:16] for row in payload]


def resolve_gate_config(cfg: cf.RunConfig) -> sg.GateConfig:
    """Gate thresholds for a run: the tuned file when configured, else the
    static gate section. A thresholds file that is missing, not JSON, or
    without a numeric tau_up and tau_down that the gate accepts raises
    ConfigError naming the file."""
    path = cfg.gate.thresholds_path
    if not path:
        return cfg.gate_config()
    if not os.path.exists(path):
        raise cf.ConfigError(f"thresholds file not found: {path}")
    with open(path) as f:
        try:
            tuned = json.load(f)
        except json.JSONDecodeError as e:
            raise cf.ConfigError(f"thresholds file {path} is not valid JSON: {e}") from e
    if not isinstance(tuned, dict):
        raise cf.ConfigError(f"thresholds file {path} must hold an object with tau_up "
                             f"and tau_down, got {type(tuned).__name__}")
    for key in ("tau_up", "tau_down"):
        value = tuned.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise cf.ConfigError(f"thresholds file {path}: {key} must be a number, "
                                 f"got {value!r}")
    static = cfg.gate_config()
    try:
        return replace(static, tau_up=tuned["tau_up"], tau_down=tuned["tau_down"])
    except ValueError as e:
        raise cf.ConfigError(f"thresholds file {path}: {e}") from e


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


def demo_streams(jobs) -> list:
    """The streams of demonstration episodes, one pair per (task_id, seed)
    of jobs: a single generator, SeedSequence([task index, seed, 29]),
    serves as both, so it draws an episode's scene noise and then its
    exploration noise at each step."""
    rngs = [np.random.default_rng(np.random.SeedSequence([wd.task_index(tid), int(seed), 29]))
            for tid, seed in jobs]
    return [(rng, rng) for rng in rngs]


def run_episodes(setup: EvalSetup, jobs, streams=None, record: bool = False):
    """Seeded episodes, one per (task_id, seed) in jobs; returns their logs
    in job order, and with record also their `pol.Records`.

    The episodes run in `wd.lockstep`. Per step, one call each observes
    every live episode (proprioception, and the scene feature with each
    episode's own noise generator); the plans of the scripted expert or
    the cloned policy come from the last step's oracle pass, or, at a
    lockstep group's first step, from one `pol.roll_plan` call. When
    gated, one `dg.sample_candidates` call draws every episode's
    candidates, each episode's noise from its own jitter stream, and one
    `select_candidate` call scores them.
    Each episode's gate then steps on its chosen risk, one `sg.descend`
    call recovers every episode that blocked and, in gated+refine, refines
    every one that executes, and one call each scales the executed and
    the stalled actions. Ungated with setup.explore_noise > 0 (which the
    gated modes refuse), each episode instead draws normal(0,
    explore_noise, 4) from its jitter stream and executes its action plus
    that noise, clipped to the box. Then one oracle pass per step,
    `wd.rollout_and_step`, labels every executed plan from its own
    episode's state and advances every episode by its action (a HALT by
    the zero action, so it logs its current state's clearance), with the
    next state's clearance and the planner's plan there, which the next
    step takes; one success check follows. Every batched call gives each
    episode the bits it gets alone, so every log is the one the episode
    would give alone.

    An episode ends at success, collision (terminal failure), a HALT
    decision, or the step budget. streams[i] is job i's (feature noise,
    jitter) generator pair; by default each is seeded from (setup.seed,
    task, seed) with its own tag, so the executed trajectory under a gate
    that never blocks matches the ungated trajectory exactly.

    With record, each step keeps the columns of its rows that do not HALT
    (job, features, labeled plan and labels, goals, the commanded action,
    whereas the log holds the executed one, and BLOCK as corrected); one
    stable sort by job puts them in (job, step) order.
    """
    jobs = list(jobs)
    if streams is None:
        streams = [[np.random.default_rng(np.random.SeedSequence(
                       [setup.seed, wd.task_index(tid), int(seed), k])) for k in (101, 102)]
                   for tid, seed in jobs]
    if len(streams) != len(jobs):
        raise ValueError(f"{len(streams)} streams for {len(jobs)} jobs")
    gated = setup.mode != "ungated"
    if gated and setup.explore_noise:
        raise ValueError(f"explore_noise applies to ungated episodes only, not {setup.mode}")
    wcfg = setup.world_cfg
    logs = [EpisodeLog(task_id=tid, seed=int(seed), mode=setup.mode, steps=[])
            for tid, seed in jobs]
    gates = [sg.GateState()] * len(jobs)
    visits = []

    def advance(t, live, state, task, plans):
        t0 = time.perf_counter()
        n = len(live)
        proprio = wd.proprio_feature(state)
        z = wd.scene_feature(state, task, wcfg.noise_sigma, [streams[i][0] for i in live])
        if setup.policy_params is None:
            law = pol.expert_law(task, wcfg.a_max)
        else:
            law = pol.policy_law(setup.policy_params, task)
        plans = pol.roll_plan(law, state, setup.horizon, wcfg) if plans is None else plans
        r_hats, decisions = [None] * n, [sg.EXECUTE] * n
        actions = plans[:, 0].copy()
        latency_s = np.full(n, time.perf_counter() - t0)
        if gated:
            cands = dg.sample_candidates(plans, setup.n_candidates, setup.sigma_a,
                                         [streams[i][1] for i in live], wcfg.a_max)
            choice = sg.select_candidate(setup.est_params, proprio, z, cands, wcfg.a_max)
            risk = choice.risks[np.arange(n), choice.index]
            r_hats = risk.tolist()
            latency_s[:] = time.perf_counter() - t0
            for j, i in enumerate(live):
                t1 = time.perf_counter()
                prev = gates[i]
                gates[i], decisions[j] = sg.gate_step(prev, r_hats[j], setup.gate_cfg)
                latency_s[j] += time.perf_counter() - t1
                if prev.mode == sg.RUN and gates[i].mode == sg.BLOCKED:
                    logs[i].recoveries += 1
                logs[i].blocked_steps += decisions[j] == sg.BLOCK
            decision = np.array(decisions)
            execute, recover = decision == sg.EXECUTE, decision == sg.BLOCK
            plans = np.where(execute[:, None, None], choice.plan, plans)
            # executed rows scale by the soft gate, stalled recoveries by the
            # distance fallback; a scale of 1 leaves a row's bits as they are
            scale = np.ones(n)
            if setup.soft_gate:
                scale[execute] = sg.soft_scale(risk[execute], setup.gate_cfg.tau_up)
            rows = np.flatnonzero(recover | execute & (setup.mode == "gated+refine"))
            if rows.size:
                t1 = time.perf_counter()
                res = sg.descend(setup.est_params, proprio[rows], z[rows], choice.plan[rows],
                                 recover[rows], setup.gate_cfg)
                plans[rows] = res.plan
                latency_s[rows] += time.perf_counter() - t1
                stalled = recover[rows] & ~res.made_progress
                scale[rows[stalled]] = sg.distance_fallback(res.min_dist[stalled],
                                                            setup.gate_cfg.d0)
            actions = plans[:, 0] * scale[:, None]
            actions[decision == sg.HALT] = 0.0
        executed = actions
        if setup.explore_noise:
            noise = np.stack([streams[i][1].normal(0.0, setup.explore_noise, size=4)
                              for i in live])
            executed = np.clip(actions + noise, -wcfg.a_max, wcfg.a_max)

        d_plans, state_next, d_min, next_plans = wd.rollout_and_step(state, plans[:, None],
                                                                     executed, wcfg, law)
        labels = wd.label_rollouts(d_plans[..., 0], wcfg.dt)
        plan_y_bin = labels.y_bin.tolist()
        success = wd.success_check(state_next, task)
        halted = np.array(decisions) == sg.HALT
        if record:
            kept = ~halted
            visits.append((live[kept], proprio[kept], z[kept], plans[kept], labels.y_bin[kept],
                           labels.y_d[kept], labels.y_ttc[kept], task.goal[kept].reshape(-1, 4),
                           actions[kept], np.array(decisions)[kept] == sg.BLOCK))
        digests = _state_digests(state)
        done = np.zeros(n, dtype=bool)
        for j, i in enumerate(live):
            log, d = logs[i], float(d_min[j])
            log.steps.append(StepRecord(
                t=t, state_digest=digests[j], r_hat=r_hats[j], d_min=d,
                gate_mode=gates[i].mode, decision=decisions[j],
                action=executed[j].tolist(), latency_us=max(latency_s[j] * 1e6, 1e-3),
                plan_y_bin=plan_y_bin[j]))
            log.collided = not halted[j] and d < 0.0
            log.success = not halted[j] and not log.collided and bool(success[j])
            done[j] = halted[j] or log.collided or log.success
        return state_next, done, next_plans

    wd.lockstep(jobs, wcfg, setup.task_params, advance)
    for log in logs:
        log.n_steps = len(log.steps)
    if not record:
        return logs
    job, proprio, z, plan, y_bin, y_d, y_ttc, goals, action, corrected = (
        np.concatenate(column) for column in zip(*visits))
    records = pol.Records(est.SampleBatch(proprio, z, plan, None, y_bin.astype(float), y_d, y_ttc),
                          goals, action, corrected)
    return logs, records.take(np.argsort(job, kind="stable"))


def write_episode_log(log: EpisodeLog, path) -> None:
    with open(path, "w") as f:
        head = {"kind": "episode", "format_version": LOG_FORMAT_VERSION,
                "task_id": log.task_id, "seed": log.seed, "mode": log.mode}
        f.write(json.dumps(head, sort_keys=True) + "\n")
        for s in log.steps:
            rec = {"kind": "step", **vars(s)}
            f.write(json.dumps(rec, sort_keys=True) + "\n")
        term = {"kind": "terminal", "success": log.success,
                "collided": log.collided, "steps": log.n_steps,
                "blocked_steps": log.blocked_steps, "recoveries": log.recoveries}
        f.write(json.dumps(term, sort_keys=True) + "\n")


def episode_log_path(logs_dir, log: EpisodeLog) -> str:
    """Where an episode's log lives: one file per (mode, task, seed)."""
    name = f"ep_{log.mode.replace('+', '_')}_{log.task_id}_{log.seed}.jsonl"
    return os.path.join(logs_dir, name)


def _count(v) -> bool:
    return type(v) is int and v >= 0  # JSON's true and false are not counts


def _finite(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


# per record kind: what it is, then each key but "kind" with its rule and
# the rule's description; every value `write_episode_log` writes passes,
# and so does an action outside the box, which needs the world's a_max
_LOG_RECORDS = {
    "episode": ("an episode log header", {
        "format_version": (lambda v: type(v) is int and v == LOG_FORMAT_VERSION,
                           str(LOG_FORMAT_VERSION)),
        "task_id": (lambda v: v in wd.TASK_IDS, f"one of {wd.TASK_IDS}"),
        "seed": (_count, "an int >= 0"),
        "mode": (lambda v: v in cf.MODES, f"one of {cf.MODES}")}),
    "step": ("a step record", {
        "t": (_count, "an int >= 0"),
        "state_digest": (lambda v: type(v) is str, "a string"),
        "r_hat": (lambda v: v is None or _finite(v) and 0 <= v <= 1,
                  "null or a number in [0, 1]"),
        "d_min": (_finite, "a finite number"),
        "gate_mode": (lambda v: v in (sg.RUN, sg.BLOCKED, sg.HALTED),
                      f"one of {(sg.RUN, sg.BLOCKED, sg.HALTED)}"),
        "decision": (lambda v: v in (sg.EXECUTE, sg.BLOCK, sg.HALT),
                     f"one of {(sg.EXECUTE, sg.BLOCK, sg.HALT)}"),
        "action": (lambda v: type(v) is list and len(v) == 4 and all(map(_finite, v)),
                   "a list of 4 finite numbers"),
        "latency_us": (lambda v: _finite(v) and v > 0, "a finite number > 0"),
        "plan_y_bin": (lambda v: type(v) is int and 0 <= v <= 1, "0 or 1")}),
    "terminal": ("a terminal record", {
        "success": (lambda v: type(v) is bool, "true or false"),
        "collided": (lambda v: type(v) is bool, "true or false"),
        "steps": (_count, "an int >= 0"),
        "blocked_steps": (_count, "an int >= 0"),
        "recoveries": (_count, "an int >= 0")}),
}
_LOG_KEYS = {kind: {"kind", *rules} for kind, (_, rules) in _LOG_RECORDS.items()}


def _log_record(where: str, line: str, kind: str) -> dict:
    """The record of one log line, checked against the rules of its kind;
    raises ValueError starting with where."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError(f"{where}: not JSON: {e}") from None
    what, rules = _LOG_RECORDS[kind]
    if not isinstance(obj, dict) or obj.get("kind") != kind:
        got = obj.get("kind") if isinstance(obj, dict) else obj
        raise ValueError(f"{where}: not {what} (kind {got!r})")
    if obj.keys() != _LOG_KEYS[kind]:
        raise ValueError(f"{where}: {what} has keys {sorted(obj)}, "
                         f"not {sorted(_LOG_KEYS[kind])}")
    for key, (ok, rule) in rules.items():
        if not ok(obj[key]):
            raise ValueError(f"{where}: {key} must be {rule}, got {obj[key]!r}")
    return obj


def read_episode_log(path) -> EpisodeLog:
    """Parse and check an episode log: a header, step records and a
    terminal record, each with exactly its keys and values of the types
    and ranges `write_episode_log` writes (the action box aside, as the
    log does not hold a_max). Only the last step may HALT or have a
    negative d_min. The terminal record must agree with the steps: their
    count, BLOCK decisions and RUN -> BLOCKED gate transitions (from RUN
    before the first step, as recoveries), collided exactly when the last
    step is no HALT and has a negative d_min, and success only without it
    and after a last step that is no HALT.
    Raises ValueError naming the file and line of the first fault.
    """
    with open(path) as f:
        lines = [(n, line) for n, line in enumerate(f, start=1) if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: not an episode log (no header and terminal record)")
    head = _log_record(f"{path}: line {lines[0][0]}", lines[0][1], "episode")
    steps = []
    for n, line in lines[1:-1]:
        obj = _log_record(f"{path}: line {n}", line, "step")
        del obj["kind"]
        if n < lines[-2][0] and (obj["decision"] == sg.HALT or obj["d_min"] < 0):
            raise ValueError(f"{path}: line {n}: a step before the last has decision "
                             f"{obj['decision']} and d_min {obj['d_min']!r}")
        steps.append(StepRecord(**obj))
    where = f"{path}: line {lines[-1][0]}"
    term = _log_record(where, lines[-1][1], "terminal")
    modes = [sg.RUN] + [s.gate_mode for s in steps]
    last = steps[-1] if steps else None
    for key, want, what in (
            ("steps", len(steps), "the step count"),
            ("blocked_steps", sum(s.decision == sg.BLOCK for s in steps), "the BLOCK decisions"),
            ("recoveries", sum(a == sg.RUN and b == sg.BLOCKED for a, b in zip(modes, modes[1:])),
             "the RUN -> BLOCKED gate transitions"),
            ("collided", last is not None and last.decision != sg.HALT and last.d_min < 0,
             "the last step's decision and d_min")):
        if term[key] != want:
            raise ValueError(f"{where}: {key} {json.dumps(term[key])} disagrees with {what}, "
                             f"{json.dumps(want)}")
    if term["success"] and term["collided"]:
        raise ValueError(f"{where}: success and collided are both true")
    if term["success"] and (last is None or last.decision == sg.HALT):
        raise ValueError(f"{where}: success is true after "
                         + ("no steps" if last is None else "a last step that HALTs"))
    return EpisodeLog(task_id=head["task_id"], seed=head["seed"], mode=head["mode"], steps=steps,
                      success=term["success"], collided=term["collided"], n_steps=term["steps"],
                      blocked_steps=term["blocked_steps"], recoveries=term["recoveries"])


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


def _latency_summary(latency_us) -> dict:
    """p50, p95 and max of logged step latencies; None each when empty."""
    us = np.asarray(latency_us, dtype=float)
    if not us.size:
        return {"p50_us": None, "p95_us": None, "max_us": None}
    return {"p50_us": float(np.percentile(us, 50)), "p95_us": float(np.percentile(us, 95)),
            "max_us": float(us.max())}


def aggregate_metrics(logs, gate_cfg: sg.GateConfig, mode: str, seed: int) -> MetricsReport:
    """Reduce episode logs to the metrics report (order-independent).

    A gated report's estimator.latency summarizes the control loop's own
    logged `latency_us`: p50, p95 and max over every logged step (`calls`),
    and per task (`steps`).
    """
    logs = sorted(logs, key=lambda lg: (lg.task_id, lg.seed))
    per_task, latency_us = {}, {}
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
        latency_us[tid] = [s.latency_us for lg in group for s in lg.steps]
    estimator_block = None
    if mode != "ungated":
        scored = [s for lg in logs for s in lg.steps if s.r_hat is not None]
        risks = np.array([s.r_hat for s in scored])
        labels = np.array([s.plan_y_bin for s in scored], dtype=float)
        every_step = [us for values in latency_us.values() for us in values]
        latency = {**_latency_summary(every_step), "calls": len(every_step),
                   "per_task": {tid: {**_latency_summary(values), "steps": len(values)}
                                for tid, values in latency_us.items()}}
        estimator_block = {"auc": None, "ece": None, "reliability": None,
                           "latency": latency, "n_scored_steps": len(risks)}
        if len(risks) and labels.min() < 0.5 < labels.max():
            estimator_block["auc"] = mt.auc_trapezoid(risks, labels)
        if len(risks):
            cal = mt.compute_calibration(risks, labels)
            estimator_block["ece"] = cal.ece
            estimator_block["reliability"] = cal.table
    return MetricsReport(
        mode=mode, seed=seed, per_task=per_task, estimator=estimator_block,
        thresholds={"tau_up": gate_cfg.tau_up, "tau_down": gate_cfg.tau_down},
        episodes=len(logs))


def episode_seed(base_seed: int, task_id: str, index: int, tag: int = 201) -> int:
    """Seed of episode `index` of a task; tags keep the stages' grids apart."""
    ss = np.random.SeedSequence([base_seed, wd.task_index(task_id), index, tag])
    return int(ss.generate_state(1)[0])


def episode_grid(cfg: cf.RunConfig) -> list:
    """The (task_id, seed) episodes that evaluate runs, in task then index order."""
    return [(tid, episode_seed(cfg.seed, tid, i))
            for tid in cfg.tasks.ids
            for i in range(cfg.tasks.episodes_per_task)]


def evaluate(cfg: cf.RunConfig, mode: str | None = None) -> MetricsReport:
    """Run the full episode grid for one mode, write every episode's log to
    eval.logs_dir, and aggregate the report, which it writes to
    eval.report_path.

    Episode seeds derive from (config seed, task, index) only, so the same
    seeds pair up across modes. Every episode runs in one `run_episodes`
    call, in this process; each log is the one the episode gives when run
    by itself.
    """
    setup = prepare_setup(cfg, mode)
    logs = run_episodes(setup, episode_grid(cfg))

    os.makedirs(cfg.eval.logs_dir, exist_ok=True)
    for lg in logs:
        write_episode_log(lg, episode_log_path(cfg.eval.logs_dir, lg))

    report = aggregate_metrics(logs, setup.gate_cfg, setup.mode, cfg.seed)
    with open(cfg.eval.report_path, "w") as f:
        json.dump(report.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    return report


def report_shape(task_ids, mode: str) -> dict:
    """The key tree of every report of `mode` over `task_ids`: the report of
    one placeholder one-step log per task, so it has exactly the keys
    aggregate_metrics writes (its values mean nothing)."""
    step = StepRecord(t=0, state_digest="", r_hat=0.0, d_min=0.0, gate_mode=sg.RUN,
                      decision=sg.EXECUTE, action=[0.0] * 4, latency_us=1.0, plan_y_bin=0)
    logs = [EpisodeLog(task_id=tid, seed=0, mode=mode, steps=[step], n_steps=1)
            for tid in task_ids]
    return aggregate_metrics(logs, sg.GateConfig(), mode, 0).to_dict()


def report_from_logs(cfg: cf.RunConfig) -> MetricsReport:
    """Rebuild the metrics report purely from the episode logs in
    eval.logs_dir.

    The logs must be one mode's run of exactly the config's episode grid
    (`episode_grid`); logs that mix modes, a log from another grid (a
    stale one from an earlier run, say) and a missing log each raise
    ValueError.
    """
    logs_dir = cfg.eval.logs_dir
    paths = sorted(p for p in os.listdir(logs_dir) if p.endswith(".jsonl"))
    if not paths:
        raise FileNotFoundError(f"no episode logs in {logs_dir}")
    logs = [read_episode_log(os.path.join(logs_dir, p)) for p in paths]
    modes = {lg.mode for lg in logs}
    if len(modes) > 1:
        raise ValueError(f"logs mix modes {sorted(modes)}; point at one run")
    grid = episode_grid(cfg)
    found = [(lg.task_id, lg.seed) for lg in logs]
    in_grid, in_logs = set(grid), set(found)
    extra = [pair for pair in found if pair not in in_grid]
    missing = [pair for pair in grid if pair not in in_logs]
    what = (f"the config's episode grid (seed {cfg.seed}, tasks {list(cfg.tasks.ids)}, "
            f"{cfg.tasks.episodes_per_task} episodes per task)")
    if extra:
        raise ValueError(f"log of episode {extra[0]} in {logs_dir} is not in {what}; "
                         "point at the logs of one run of this config")
    if missing:
        raise ValueError(f"no log of episode {missing[0]} of {what} in {logs_dir}")
    gate_cfg = resolve_gate_config(cfg) if logs[0].mode != "ungated" else cfg.gate_config()
    return aggregate_metrics(logs, gate_cfg, logs[0].mode, cfg.seed)
