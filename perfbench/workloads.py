"""The benchmark's three workloads: set-up, one measured pass, output checks.

Every stage runs in this process through ``riskgate.cli.main``, with the
workload's own config from ``configs/`` copied into a work directory, so
that a change to the program's defaults cannot change a workload. The
program's process fan-out stays off (``eval.workers = 1``).

- ``datagen``: ``gen-data`` over both tasks and horizons 2/3/5. Inputs come
  from the workload seed.
- ``train``: ``train-estimator``, ``calibrate``, ``roc-tune`` on a dataset
  made in set-up. The held-out split, the initial weights and the shuffle
  order come from the workload seed.
- ``closed_loop``: gated ``evaluate`` and ``report`` with an estimator and
  thresholds made in set-up. Episode seeds come from the workload seed.

The train and closed_loop set-ups use the config's own seed, not the
workload seed, so that every run trains and gates against inputs of the
same size and the same blocked/collision mix (recorded on every run).
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field

from riskgate import cli
from riskgate import config as cf
from riskgate import datasetgen as dg
from riskgate import estimator as est
from riskgate import harness as hn

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "configs")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Pass i of a run with workload seed N runs program seed (N + i) mod
# PROGRAM_SEEDS; reference.json holds the expected outputs for each of them.
PROGRAM_SEEDS = 32
BOX_TOL = 1e-12       # same slack the program allows on the action box
AUC_TOL = 1e-6        # roc-tune AUC against the reference, absolute
CONFIG_NAME = "config.json"


def program_seed(workload_seed: int, pass_index: int = 0) -> int:
    return (int(workload_seed) + pass_index) % PROGRAM_SEEDS


def load_config(name: str) -> dict:
    with open(os.path.join(CONFIG_DIR, f"{name}.json")) as f:
        return json.load(f)


def missing_config_keys(cfg: dict) -> list:
    """Config keys the program knows but the workload config leaves unset."""
    missing = []
    for key, default in asdict(cf.RunConfig()).items():
        if key not in cfg:
            missing.append(key)
        elif isinstance(default, dict):
            missing += [f"{key}.{k}" for k in default if k not in cfg[key]]
    return missing


def write_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@dataclass
class StageRun:
    """One CLI stage: exit code, wall seconds, parsed stdout JSON."""

    stage: str
    code: int
    seconds: float
    out: dict | None
    err: str


def run_stage(wdir, stage: str, seed: int | None = None,
              config: str = CONFIG_NAME) -> StageRun:
    """Run one ``riskgate`` subcommand in wdir and time it."""
    argv = [stage, "--config", config]
    if seed is not None:
        argv += ["--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    prev = os.getcwd()
    os.chdir(wdir)
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        seconds = time.perf_counter() - t0
    finally:
        os.chdir(prev)
    parsed = None
    if code == 0:
        try:
            parsed = json.loads(out.getvalue())
        except json.JSONDecodeError:
            code, parsed = -1, None
    return StageRun(stage, code, seconds, parsed, err.getvalue().strip())


@dataclass
class Op:
    """One checked operation: a CLI stage or an episode."""

    name: str
    reasons: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.reasons


def stage_op(run: StageRun) -> Op:
    op = Op(run.stage)
    if run.code != 0:
        op.reasons.append(f"exit {run.code}: {run.err[-200:]}")
    return op


@dataclass
class PassResult:
    stages: list           # StageRun per CLI stage, in order
    ops: list              # Op per checked operation
    units: int             # work items done (labels, sample-gradients, steps)
    unit_seconds: float    # stage time the units are counted over
    fingerprint: dict      # artifact name -> sha256, timing fields removed
    mix: dict = field(default_factory=dict)
    latencies_us: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(s.seconds for s in self.stages)


# ---------------------------------------------------------------- checks


def check_dataset(path, a_max: float) -> tuple:
    """(reasons, dataset) for one generated dataset file.

    The file must parse with ``read_dataset``, every label must satisfy
    y_bin == (y_d < 0), and every plan must lie inside the a_max box.
    """
    try:
        ds = dg.read_dataset(path)
    except (OSError, ValueError, KeyError) as e:
        return [f"{os.path.basename(path)}: read_dataset failed: {e}"], None
    reasons = []
    bad_label = sum(1 for s in ds.samples if s.label.y_bin != int(s.label.y_d < 0.0))
    if bad_label:
        reasons.append(f"{os.path.basename(path)}: {bad_label} samples with y_bin != (y_d < 0)")
    bad_box = sum(1 for s in ds.samples if abs(s.plan).max() > a_max + BOX_TOL)
    if bad_box:
        reasons.append(f"{os.path.basename(path)}: {bad_box} plans outside the a_max box")
    return reasons, ds


def labels_before_oversampling(ds, d_thresh: float, factor: int) -> int | None:
    """Number of distinct labeled plans in an oversampled dataset, or None
    when the near-miss count is not a multiple of the factor."""
    near = sum(1 for s in ds.samples if s.label.y_d < d_thresh)
    if near % factor:
        return None
    return len(ds.samples) - near + near // factor


def check_episode_log(path, a_max: float) -> tuple:
    """(reasons, log) for one episode log: parses, actions inside the box."""
    try:
        log = hn.read_episode_log(path)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"{os.path.basename(path)}: unreadable log: {e}"], None
    bad = sum(1 for s in log.steps if max(abs(a) for a in s.action) > a_max + BOX_TOL)
    if bad:
        return [f"{os.path.basename(path)}: {bad} actions outside the a_max box"], log
    return [], log


def without_latency(report: dict) -> dict:
    """A report with its wall-clock field (estimator.latency) removed."""
    report = copy.deepcopy(report)
    if isinstance(report.get("estimator"), dict):
        report["estimator"].pop("latency", None)
    return report


def _log_fingerprint(path) -> str:
    """sha256 of an episode log with the per-step latency_us removed."""
    h = hashlib.sha256()
    with open(path) as f:
        for line in f:
            obj = json.loads(line)
            obj.pop("latency_us", None)
            h.update(json.dumps(obj, sort_keys=True).encode())
    return h.hexdigest()


# ---------------------------------------------------------------- workloads


class Workload:
    """Base: a config, set-up stages, and a checked measured pass."""

    name = ""
    setup_stages: tuple = ()
    pass_stages: tuple = ()

    def __init__(self, cfg: dict | None = None, references: dict | None = None):
        self.cfg = cfg if cfg is not None else load_config(self.name)
        self.references = references  # program seed (str) -> expected outputs

    def expected(self, seed: int) -> dict | None:
        return None if self.references is None else self.references[str(seed)]

    @property
    def a_max(self) -> float:
        return float(self.cfg["world"]["a_max"])

    def setup(self, wdir) -> list:
        """Write the config into wdir and run the set-up stages there."""
        os.makedirs(wdir, exist_ok=True)
        write_json(os.path.join(wdir, CONFIG_NAME), self.cfg)
        runs = []
        for stage in self.setup_stages:
            runs.append(run_stage(wdir, stage))
            if runs[-1].code != 0:
                break
        return runs

    def run_stages(self, wdir, seed: int) -> list:
        """The measured CLI stages of one pass, stopping at a failed one."""
        runs = []
        for stage in self.pass_stages:
            runs.append(run_stage(wdir, stage, seed))
            if runs[-1].code != 0:
                break
        return runs

    def check(self, wdir, seed: int, runs: list) -> PassResult:
        """Check the outputs of run_stages and count the work done."""
        raise NotImplementedError

    def run_pass(self, wdir, seed: int) -> PassResult:
        return self.check(wdir, seed, self.run_stages(wdir, seed))


class Datagen(Workload):
    name = "datagen"
    pass_stages = ("gen-data",)

    def setup(self, wdir) -> list:
        # Warm-up: the same stage on one episode per task, so that lazy
        # initialisation is paid in set-up rather than in the first pass.
        os.makedirs(wdir, exist_ok=True)
        write_json(os.path.join(wdir, CONFIG_NAME), self.cfg)
        warm = copy.deepcopy(self.cfg)
        warm["datagen"].update(episodes_per_task=1, out_dir="warmup_data")
        write_json(os.path.join(wdir, "warmup.json"), warm)
        return [run_stage(wdir, "gen-data", config="warmup.json")]

    def check(self, wdir, seed: int, runs: list) -> PassResult:
        run = runs[0]
        op = stage_op(run)
        res = PassResult(stages=[run], ops=[op], units=0, unit_seconds=run.seconds,
                         fingerprint={})
        if not op.ok:
            return res
        d = self.cfg["datagen"]
        counts, samples, positives = {}, 0, 0
        for h, rel in sorted(run.out["files"].items(), key=lambda kv: int(kv[0])):
            path = os.path.join(wdir, rel)
            reasons, ds = check_dataset(path, self.a_max)
            op.reasons += reasons
            if ds is None:
                continue
            res.fingerprint[f"risk_H{h}"] = sha256_file(path)
            n_labels = labels_before_oversampling(ds, d["d_thresh"], d["oversample_factor"])
            if n_labels is None:
                op.reasons.append(f"H{h}: near-miss count not a multiple of the factor")
                continue
            res.units += n_labels
            counts[h] = dict(ds.header.counts)
            if counts[h] != run.out["counts"].get(h):
                op.reasons.append(f"H{h}: header counts {counts[h]} != stage output")
            samples += counts[h]["samples"]
            positives += counts[h]["positives"]
        if sorted(counts, key=int) != [str(h) for h in d["horizons"]]:
            op.reasons.append(f"horizons {sorted(counts)} != config {d['horizons']}")
        ref = self.expected(seed)
        if ref is not None:
            if counts != ref["counts"]:
                op.reasons.append(f"counts {counts} != reference {ref['counts']}")
            if res.units != ref["labels"]:
                op.reasons.append(f"labels {res.units} != reference {ref['labels']}")
        res.mix = {"counts": counts, "labels": res.units,
                   "positive_share": positives / samples if samples else 0.0}
        return res


class Train(Workload):
    name = "train"
    setup_stages = ("gen-data",)
    pass_stages = ("train-estimator", "calibrate", "roc-tune")

    def check(self, wdir, seed: int, runs: list) -> PassResult:
        ops = [stage_op(r) for r in runs]
        res = PassResult(stages=runs, ops=ops, units=0,
                         unit_seconds=runs[0].seconds, fingerprint={})
        if not all(op.ok for op in ops) or len(runs) != len(self.pass_stages):
            return res
        train_out, cal, roc = (r.out for r in runs)
        res.units = int(train_out["train_samples"]) * int(
            self.cfg["estimator"]["epochs_per_phase"])
        if res.units <= 0:
            ops[0].reasons.append("no training samples")
        try:
            est.load_params(os.path.join(wdir, self.cfg["estimator"]["checkpoint_path"]))
        except (OSError, ValueError, KeyError) as e:
            ops[1].reasons.append(f"checkpoint does not load: {e}")
        if not cal["nll_calibrated"] <= cal["nll_t1"]:
            ops[1].reasons.append(
                f"calibrated NLL {cal['nll_calibrated']} > NLL at T=1 {cal['nll_t1']}")
        if not 0.0 < roc["tau_down"] < roc["tau_up"] < 1.0:
            ops[2].reasons.append(f"thresholds out of order: {roc['tau_down']}, {roc['tau_up']}")
        ref = self.expected(seed)
        if ref is not None and abs(roc["auc"] - ref["auc"]) > AUC_TOL:
            ops[2].reasons.append(f"AUC {roc['auc']} != reference {ref['auc']}"
                                  f" (tolerance {AUC_TOL})")
        for key in ("checkpoint_path", "heldout_path"):
            rel = self.cfg["estimator"][key]
            res.fingerprint[rel] = sha256_file(os.path.join(wdir, rel))
        rel = self.cfg["gate"]["thresholds_path"]
        res.fingerprint[rel] = sha256_file(os.path.join(wdir, rel))
        res.mix = {"auc": roc["auc"], "temperature": cal["temperature"],
                   "tau_up": roc["tau_up"], "train_samples": train_out["train_samples"]}
        return res


class ClosedLoop(Workload):
    name = "closed_loop"
    setup_stages = ("gen-data", "train-estimator", "calibrate", "roc-tune")
    pass_stages = ("evaluate", "report")

    def run_stages(self, wdir, seed: int) -> list:
        shutil.rmtree(os.path.join(wdir, self.cfg["eval"]["logs_dir"]), ignore_errors=True)
        return super().run_stages(wdir, seed)

    def check(self, wdir, seed: int, runs: list) -> PassResult:
        logs_dir = os.path.join(wdir, self.cfg["eval"]["logs_dir"])
        ev = runs[0]
        ev_op = stage_op(ev)
        res = PassResult(stages=runs, ops=[ev_op], units=0, unit_seconds=ev.seconds,
                         fingerprint={})
        if not ev_op.ok:
            return res
        rep = runs[1]
        rep_op = stage_op(rep)
        ops = res.ops
        ops.append(rep_op)
        if rep_op.ok and without_latency(rep.out) != without_latency(ev.out):
            rep_op.reasons.append("report rebuilt from logs differs from evaluate's")

        per_task = {}
        for name in sorted(os.listdir(logs_dir)):
            path = os.path.join(logs_dir, name)
            reasons, log = check_episode_log(path, self.a_max)
            ops.append(Op(f"episode:{name}", reasons))
            if log is None:
                continue
            res.fingerprint[name] = _log_fingerprint(path)
            res.units += log.n_steps
            res.latencies_us += [s.latency_us for s in log.steps]
            t = per_task.setdefault(log.task_id, {"episodes": 0, "collisions": 0,
                                                  "successes": 0, "steps": 0,
                                                  "blocked_steps": 0})
            t["episodes"] += 1
            t["collisions"] += int(log.collided)
            t["successes"] += int(log.success)
            t["steps"] += log.n_steps
            t["blocked_steps"] += log.blocked_steps
        want = self.cfg["tasks"]
        if sorted(per_task) != sorted(want["ids"]) or any(
                t["episodes"] != want["episodes_per_task"] for t in per_task.values()):
            ev_op.reasons.append(f"episode logs do not cover the task grid: {per_task}")
        for tid, t in per_task.items():
            got = ev.out["per_task"].get(tid, {})
            if (got.get("collision_rate") != t["collisions"] / t["episodes"]
                    or got.get("blocked_fraction") != (t["blocked_steps"] / t["steps"]
                                                       if t["steps"] else 0.0)):
                ev_op.reasons.append(f"{tid}: report disagrees with its episode logs")
        ref = self.expected(seed)
        if ref is not None and per_task != ref["per_task"]:
            ev_op.reasons.append(f"per-task outcome {per_task} != reference {ref['per_task']}")
        if rep_op.ok:
            res.fingerprint["report"] = sha256_json(without_latency(rep.out))
        res.mix = {"per_task": per_task, "blocked_share": {
            tid: t["blocked_steps"] / t["steps"] if t["steps"] else 0.0
            for tid, t in per_task.items()}}
        return res


WORKLOADS = {w.name: w for w in (Datagen, Train, ClosedLoop)}


def load_references(workload: str) -> dict | None:
    """Expected outputs of one workload per program seed, if recorded."""
    if not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH) as f:
        return json.load(f).get(workload)
