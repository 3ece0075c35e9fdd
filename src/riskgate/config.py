"""Strict sectioned JSON configuration for the pipeline CLI.

One document with sections world, tasks, datagen, estimator, gate, policy,
eval. Unknown sections or keys are errors; missing keys fall back to the
defaults of the runtime dataclasses. Each section except eval is derived
from one runtime dataclass (WorldConfig, TaskParams, DatagenConfig,
TrainConfig, GateConfig, PolicyTrainConfig) and adds only the keys the
config alone owns: paths, counts and a few stage arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, make_dataclass

from . import datasetgen as dg
from . import estimator as est
from . import policy as pol
from . import safeguard as sg
from . import world as wd

MODES = ("ungated", "gated", "gated+refine", "gated+finetuned")


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


def _section(name: str, runtime, drop=(), **own):
    """Config section class with the fields and defaults of the runtime
    dataclass, less those named in drop, followed by the config-only keys
    in own (a list default is copied per instance)."""
    specs = [(f.name, f.type, field(default=f.default))
             for f in fields(runtime) if f.name not in drop]
    for key, default in own.items():
        spec = (field(default_factory=default.copy) if isinstance(default, list)
                else field(default=default))
        specs.append((key, type(default), spec))
    return make_dataclass(name, specs, namespace={"__module__": __name__})


WorldSection = _section("WorldSection", wd.WorldConfig, drop=("arm_left", "arm_right"))
TasksSection = _section("TasksSection", wd.TaskParams, ids=list(wd.TASK_IDS),
                        episodes_per_task=100)
DatagenSection = _section("DatagenSection", dg.DatagenConfig, drop=("tasks", "seed"),
                          out_dir="data")
EstimatorSection = _section(
    "EstimatorSection", est.TrainConfig, drop=("seed",),
    checkpoint_path="estimator.json",
    posttrained_path="",  # empty: post-train overwrites checkpoint_path
    heldout_path="heldout.jsonl", heldout_frac=0.15)
GateSection = _section(
    "GateSection", sg.GateConfig, drop=("a_max",),  # a_max comes from world
    thresholds_path="",  # roc-tune output; evaluate reads it if set
    fn_target=0.05)
PolicySection = _section(
    "PolicySection", pol.PolicyTrainConfig, drop=("seed",),
    checkpoint_path="policy.json", finetuned_path="policy_finetuned.json",
    demo_episodes_per_task=100, explore_noise=0.01, rollout_episodes_per_task=20,
    kappa=5.0)


@dataclass
class EvalSection:
    mode: str = "gated"
    H: int = 5
    n_candidates: int = 8
    sigma_a: float = 0.01
    soft_gate: bool = True
    logs_dir: str = "logs"
    report_path: str = "report.json"
    # Inert: evaluate runs every episode in one process, and its
    # estimator.latency summarizes the logged step latencies, so nothing
    # reads these three. They still load and are checked because existing
    # configs set them; see ROADMAP item 6.
    workers: int = 1
    latency_trials: int = 1000
    latency_warmup: int = 100


@dataclass
class RunConfig:
    seed: int = 0
    world: WorldSection = field(default_factory=WorldSection)
    tasks: TasksSection = field(default_factory=TasksSection)
    datagen: DatagenSection = field(default_factory=DatagenSection)
    estimator: EstimatorSection = field(default_factory=EstimatorSection)
    gate: GateSection = field(default_factory=GateSection)
    policy: PolicySection = field(default_factory=PolicySection)
    eval: EvalSection = field(default_factory=EvalSection)

    def world_config(self) -> wd.WorldConfig:
        return wd.default_world(**_shared(wd.WorldConfig, self.world))

    def task_params(self) -> wd.TaskParams:
        return wd.TaskParams(**_shared(wd.TaskParams, self.tasks))

    def datagen_config(self) -> dg.DatagenConfig:
        return dg.DatagenConfig(**_shared(dg.DatagenConfig, self.datagen),
                                tasks=tuple(self.tasks.ids), seed=self.seed)

    def gate_config(self) -> sg.GateConfig:
        return sg.GateConfig(**_shared(sg.GateConfig, self.gate), a_max=self.world.a_max)

    def estimator_train_config(self) -> est.TrainConfig:
        return est.TrainConfig(**_shared(est.TrainConfig, self.estimator), seed=self.seed)

    def policy_train_config(self) -> pol.PolicyTrainConfig:
        return pol.PolicyTrainConfig(**_shared(pol.PolicyTrainConfig, self.policy),
                                     seed=self.seed)


def _shared(runtime, section) -> dict:
    """The section's values for the runtime dataclass's fields of the same
    name; lists become tuples, as the runtime configs are frozen."""
    out = {}
    for f in fields(runtime):
        if hasattr(section, f.name):
            value = getattr(section, f.name)
            out[f.name] = tuple(value) if isinstance(value, list) else value
    return out


_SECTIONS = {
    "world": WorldSection, "tasks": TasksSection, "datagen": DatagenSection,
    "estimator": EstimatorSection, "gate": GateSection, "policy": PolicySection,
    "eval": EvalSection,
}


def _build_section(cls, obj, name):
    if not isinstance(obj, dict):
        raise ConfigError(f"section {name!r} must be an object")
    allowed = {f.name: f for f in fields(cls)}
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    kwargs = {}
    for key, value in obj.items():
        default = allowed[key].default
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{name}.{key} must be a boolean")
        elif isinstance(default, int) and not isinstance(default, bool):
            if isinstance(value, bool) or not isinstance(value, (int, float)) or int(value) != value:
                raise ConfigError(f"{name}.{key} must be an integer")
            value = int(value)
        elif isinstance(default, float):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name}.{key} must be a number")
            value = float(value)
        elif isinstance(default, str):
            if not isinstance(value, str):
                raise ConfigError(f"{name}.{key} must be a string")
        elif key in ("ids", "horizons"):
            if not isinstance(value, list):
                raise ConfigError(f"{name}.{key} must be a list")
        kwargs[key] = value
    return cls(**kwargs)


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.eval.mode not in MODES:
        raise ConfigError(f"eval.mode must be one of {MODES}, got {cfg.eval.mode!r}")
    if not (1 <= cfg.eval.H <= 10):
        raise ConfigError("eval.H must lie in [1, 10]")
    for h in cfg.datagen.horizons:
        if isinstance(h, bool) or not isinstance(h, int):
            raise ConfigError(f"datagen.horizons entries must be integers, got {h!r}")
        if not (1 <= h <= 10):
            raise ConfigError("datagen.horizons entries must lie in [1, 10]")
    if not cfg.tasks.ids:
        raise ConfigError("tasks.ids must name at least one task")
    for tid in cfg.tasks.ids:
        if tid not in wd.TASK_IDS:
            raise ConfigError(f"unknown task id {tid!r}; expected one of {wd.TASK_IDS}")
    if len(set(cfg.tasks.ids)) != len(cfg.tasks.ids):
        raise ConfigError(f"tasks.ids must not repeat a task, got {cfg.tasks.ids}")
    if cfg.eval.n_candidates < 1:
        raise ConfigError("eval.n_candidates must be >= 1")
    if not 0.0 <= cfg.eval.sigma_a < math.inf:
        raise ConfigError(f"eval.sigma_a must be finite and >= 0, got {cfg.eval.sigma_a}")
    if cfg.eval.latency_trials < 1:
        raise ConfigError("eval.latency_trials must be >= 1")
    if cfg.eval.latency_warmup < 0:
        raise ConfigError("eval.latency_warmup must be >= 0")
    if not (0.0 < cfg.estimator.heldout_frac < 1.0):
        raise ConfigError("estimator.heldout_frac must lie in (0, 1)")
    if not 0.0 <= cfg.gate.fn_target <= 1.0:
        raise ConfigError(f"gate.fn_target must lie in [0, 1], got {cfg.gate.fn_target}")
    for key in ("kappa", "explore_noise"):
        if not 0.0 <= getattr(cfg.policy, key) < math.inf:
            raise ConfigError(f"policy.{key} must be finite and >= 0, "
                              f"got {getattr(cfg.policy, key)}")
    for name, key in (("policy", "demo_episodes_per_task"),
                      ("policy", "rollout_episodes_per_task"),
                      ("tasks", "episodes_per_task"), ("eval", "workers")):
        if getattr(getattr(cfg, name), key) < 1:
            raise ConfigError(f"{name}.{key} must be >= 1")
    # each runtime config checks its own section; a message that opens with
    # one of the section's keys becomes "<section>.<key> ..."
    for name, build in (("world", cfg.world_config), ("tasks", cfg.task_params),
                        ("gate", cfg.gate_config), ("datagen", cfg.datagen_config),
                        ("estimator", cfg.estimator_train_config),
                        ("policy", cfg.policy_train_config)):
        try:
            build()
        except ValueError as e:
            msg = str(e)
            keys = {f.name for f in fields(_SECTIONS[name])}
            raise ConfigError(f"{name}{'.' if msg.split()[0] in keys else ': '}{msg}") from e
    return cfg


def config_from_dict(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    unknown = set(obj) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    seed = obj.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    kwargs = {"seed": seed}
    for name, cls in _SECTIONS.items():
        if name in obj:
            kwargs[name] = _build_section(cls, obj[name], name)
    return _validate(RunConfig(**kwargs))


def load_config(path) -> RunConfig:
    try:
        with open(path) as f:
            obj = json.load(f)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return config_from_dict(obj)
