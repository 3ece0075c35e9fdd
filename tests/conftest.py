"""Shared fixtures: a small generated dataset, a lightly trained risk
estimator, and a micro end-to-end pipeline directory for CLI/harness tests.

Everything is session-scoped and seeded, so the whole suite is
deterministic and the expensive artifacts are built once.
"""

import contextlib
import io
import json
import os

import numpy as np
import pytest

from riskgate import cli
from riskgate import datasetgen as dg
from riskgate import estimator as est
from riskgate import world as wd

ACCEPTANCE_LINES = []


def assert_records_equal(got, ref):
    """Two lists of policy.DemoRecord are equal, field by field, with ==,
    and every label holds a Python int and floats, as one row of
    `label_rollouts` (`RolloutOutcome.row`) gives them."""
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        for name in ("proprio", "z", "goals", "action", "plan"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert (a.label, a.risk, a.corrected) == (b.label, b.risk, b.corrected)
        assert [type(v) for v in vars(a.label).values()] == [int, float, float]


def reset(task_id, seed, cfg, params=wd.TaskParams()):
    """The state and task of one job's reset, without the batch axis: row 0
    of `wd.task_init` of that job alone."""
    state, task = wd.task_init([(task_id, seed)], cfg, params)
    return wd.take(state, 0), wd.take(task, 0)


def plan_clearances(state, plans, cfg):
    """Reference (H, N) clearances of N (H, 4) plans from one state, or
    from a batch of N states, one per plan: a plain loop of one `wd.step`
    and one `wd.min_self_distance` per plan step."""
    plans = np.asarray(plans, dtype=float)
    if state.q.ndim == 2:
        state = wd.stack([state] * len(plans))
    d = []
    for i in range(plans.shape[1]):
        state = wd.step(state, plans[:, i], cfg)
        d.append(wd.min_self_distance(state, cfg))
    return np.array(d)


def label_rows(labels):
    """The rows of `label_rollouts`' (N,) label arrays, one RolloutOutcome
    of a Python int and floats each."""
    return [labels.row(i) for i in range(len(labels.y_bin))]


def label_plans(state, plans, cfg):
    """Reference labels of N (H, 4) plans, one RolloutOutcome each:
    `label_rollouts` of their `plan_clearances`."""
    return label_rows(wd.label_rollouts(plan_clearances(state, plans, cfg), cfg.dt))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def world_cfg():
    return wd.default_world()


@pytest.fixture(scope="session")
def task_params():
    return wd.TaskParams()


@pytest.fixture(scope="session")
def tiny_data(tmp_path_factory, world_cfg, task_params):
    """Small generated dataset: per-horizon batches plus a held-out batch."""
    out = tmp_path_factory.mktemp("tinydata")
    gen_cfg = dg.DatagenConfig(episodes_per_task=8, horizons=(2, 3), seed=0)
    paths, _ = dg.generate_dataset(gen_cfg, world_cfg, out, task_params)
    rng = np.random.default_rng(np.random.SeedSequence([0, 31]))
    phases, held = [], []
    for h in sorted(paths):
        samples = dg.read_dataset(paths[h]).samples
        order = rng.permutation(len(samples))
        n_held = max(1, len(samples) // 6)
        held.extend(samples[i] for i in order[:n_held])
        phases.append(est.stack_batch([samples[i] for i in order[n_held:]]))
    return {"paths": paths, "phases": phases,
            "heldout": est.stack_batch(held), "gen_cfg": gen_cfg}


@pytest.fixture(scope="session")
def trained_tiny(tiny_data):
    """Estimator trained a few epochs on the tiny dataset, then calibrated."""
    cfg = est.TrainConfig(epochs_per_phase=4, seed=0)
    params = est.train(tiny_data["phases"], cfg)
    est.calibrate_temperature(params, tiny_data["heldout"])
    return params


MICRO_CONFIG = {
    "seed": 0,
    "tasks": {"episodes_per_task": 6},
    "datagen": {"out_dir": "data", "episodes_per_task": 12},
    "estimator": {"checkpoint_path": "est.json", "heldout_path": "heldout.jsonl",
                  "posttrained_path": "est_post.json", "epochs_per_phase": 3},
    "gate": {"thresholds_path": "thresholds.json"},
    "policy": {"checkpoint_path": "pol.json", "finetuned_path": "pol_ft.json",
               "demo_episodes_per_task": 15, "rollout_episodes_per_task": 4,
               "epochs": 100},
    "eval": {"logs_dir": "logs", "report_path": "report.json", "workers": 2},
}

MICRO_STAGES = ("gen-data", "train-estimator", "calibrate", "roc-tune",
                "train-policy", "finetune-policy", "post-train")


@pytest.fixture(scope="session")
def micro_run(tmp_path_factory):
    """One reduced-scale pipeline run through the CLI entry point.

    Returns the working directory (all artifact paths in MICRO_CONFIG are
    relative to it), the recorded exit code of every stage, and the stdout
    of each evaluate mode.
    """
    root = tmp_path_factory.mktemp("micro")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(MICRO_CONFIG))
    cwd = os.getcwd()
    codes, stdout = {}, {}
    try:
        os.chdir(root)
        for stage in MICRO_STAGES:
            codes[stage] = cli.main([stage, "--config", str(cfg_path)])
        for mode in ("ungated", "gated"):
            sub = dict(MICRO_CONFIG)
            sub["eval"] = dict(MICRO_CONFIG["eval"],
                               logs_dir=f"logs_{mode}",
                               report_path=f"report_{mode}.json")
            mode_cfg = root / f"cfg_{mode}.json"
            mode_cfg.write_text(json.dumps(sub))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes[f"evaluate-{mode}"] = cli.main(
                    ["evaluate", "--config", str(mode_cfg), "--mode", mode])
            stdout[mode] = buf.getvalue()
    finally:
        os.chdir(cwd)
    return {"root": root, "codes": codes, "cfg_path": cfg_path, "stdout": stdout}
