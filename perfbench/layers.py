"""Which program functions the traced run wraps, and the per-layer table.

Each listed function gets ``<module>.<fn>.calls``, ``.total_s`` and
``.self_s``. The ratios below are each given with their base count.
"""

from __future__ import annotations

from tracer import Tracer

TASKS = ("crossing_transfer", "parallel_place")
STAGES = ("gen-data", "train-estimator", "calibrate", "roc-tune", "evaluate", "report")

TRACED = {
    "riskgate.geometry": ("forward_kinematics", "joint_origins", "dls_ik_step",
                          "segment_pairs_distance"),
    "riskgate.world": ("make_state", "step", "min_self_distance", "rollout", "task_init"),
    "riskgate.policy": ("scripted_expert",),
    "riskgate.datasetgen": ("sample_candidates", "label_plan", "write_dataset",
                            "read_dataset", "oversample_near_miss"),
    "riskgate.estimator": ("predict_risk", "predict_risk_batch", "risk_plan_gradient",
                           "train", "calibrate_temperature", "positional_encoding",
                           "stack_batch"),
    "riskgate.safeguard": ("select_candidate", "gate_step", "recover"),
    "riskgate.metrics": ("roc_tune", "compute_calibration", "auc_trapezoid",
                         "measure_latency"),
    "riskgate.harness": ("run_episode", "write_episode_log", "aggregate_metrics"),
}

SPAN_NAMES = tuple(f"{mod.rsplit('.', 1)[-1]}.{fn}"
                   for mod, fns in TRACED.items() for fn in fns)

# Estimator entry points that each run one forward pass.
FORWARDS = ("estimator.predict_risk", "estimator.risk_plan_gradient",
            "estimator.predict_risk_batch")

# name -> (unit, better)
PER_LAYER = {}
for _span in SPAN_NAMES:
    PER_LAYER[f"{_span}.calls"] = ("count", "lower")
    PER_LAYER[f"{_span}.total_s"] = ("s", "lower")
    PER_LAYER[f"{_span}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "world.rollout.steps_per_call": ("steps/call", "lower"),
    "geometry.joint_origins.per_step": ("calls/step", "lower"),
    "safeguard.recover.progress_rate": ("ratio", "higher"),
    "safeguard.recover.forwards_per_call": ("calls/call", "lower"),
})
for _task in TASKS:
    PER_LAYER[f"harness.blocked_frac.{_task}"] = ("ratio", "lower")
    PER_LAYER[f"harness.steps.{_task}"] = ("count", "higher")
for _stage in STAGES:
    PER_LAYER[f"cli.{_stage}.s"] = ("s", "lower")
PER_LAYER.update({
    "harness.decision_ms.p50": ("ms", "lower"),
    "harness.decision_ms.p99": ("ms", "lower"),
    "harness.decisions": ("count", "higher"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
})


class EpisodeCounts:
    """Observer of harness.run_episode and safeguard.recover results."""

    def __init__(self):
        self.steps = {t: 0 for t in TASKS}
        self.blocked = {t: 0 for t in TASKS}
        self.recover_progress = 0

    def episode(self, log) -> None:
        self.steps[log.task_id] = self.steps.get(log.task_id, 0) + log.n_steps
        self.blocked[log.task_id] = self.blocked.get(log.task_id, 0) + log.blocked_steps

    def recover(self, result) -> None:
        self.recover_progress += int(result.made_progress)


def make_tracer() -> tuple:
    counts = EpisodeCounts()
    tracer = Tracer(TRACED, observers={"harness.run_episode": counts.episode,
                                       "safeguard.recover": counts.recover})
    return tracer, counts


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def layer_metrics(tracer: Tracer, counts: EpisodeCounts) -> dict:
    """Per-function calls/total/self plus the ratios, from one traced pass."""
    summary = tracer.summary()
    out = {}
    for span in SPAN_NAMES:
        row = summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{span}.calls"] = row["calls"]
        out[f"{span}.total_s"] = row["total_s"]
        out[f"{span}.self_s"] = row["self_s"]
    out["world.rollout.steps_per_call"] = _ratio(
        tracer.count_children("world.rollout", "world.step"), out["world.rollout.calls"])
    out["geometry.joint_origins.per_step"] = _ratio(
        tracer.count_within("world.step", "geometry.joint_origins"), out["world.step.calls"])
    recovers = out["safeguard.recover.calls"]
    out["safeguard.recover.progress_rate"] = _ratio(counts.recover_progress, recovers)
    out["safeguard.recover.forwards_per_call"] = _ratio(
        sum(tracer.count_children("safeguard.recover", f) for f in FORWARDS), recovers)
    for task in TASKS:
        out[f"harness.blocked_frac.{task}"] = _ratio(counts.blocked.get(task, 0),
                                                     counts.steps.get(task, 0))
        out[f"harness.steps.{task}"] = counts.steps.get(task, 0)
    return out
