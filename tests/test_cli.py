"""CLI surface: a reduced-scale run of every pipeline stage, artifact
integrity, exit codes, assert expressions, and seed overrides."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from riskgate import cli
from riskgate import config as cf
from riskgate import datasetgen as dg
from riskgate import estimator as est
from riskgate import harness as hn
from riskgate import metrics as mt
from riskgate import policy as pol
from riskgate import world as wd

from conftest import MICRO_CONFIG, MICRO_STAGES


def _read(root, name):
    with open(root / name) as f:
        return json.load(f)


def test_all_stages_exit_zero(micro_run):
    for stage in MICRO_STAGES:
        assert micro_run["codes"][stage] == 0, stage
    assert micro_run["codes"]["evaluate-ungated"] == 0
    assert micro_run["codes"]["evaluate-gated"] == 0


def test_pipeline_artifacts(micro_run):
    root = micro_run["root"]
    for name in ("data/risk_H2.jsonl", "data/risk_H3.jsonl", "data/risk_H5.jsonl",
                 "est.json", "est_post.json", "heldout.jsonl", "thresholds.json",
                 "pol.json", "pol_ft.json",
                 "report_ungated.json", "report_gated.json"):
        assert (root / name).exists(), name
    # checkpoints load through the typed loaders
    offline = est.load_params(root / "est.json")
    post = est.load_params(root / "est_post.json")
    assert offline.count() == 6628
    assert not all(
        (offline.weights[k] == post.weights[k]).all() for k in offline.weights)
    pol.load_policy(root / "pol.json")
    pol.load_policy(root / "pol_ft.json")


def test_estimator_checkpoints_keep_config_digest(micro_run):
    """calibrate and post-train re-save the estimator; both keep the digest
    of the dataset config that train-estimator stored."""
    cfg = cf.load_config(micro_run["cfg_path"])
    digest = dg.config_digest(cfg.datagen_config())
    for name in ("est.json", "est_post.json"):
        assert _read(micro_run["root"], name)["config_digest"] == digest, name


def test_split_equals_the_per_sample_split(tiny_data):
    """train-estimator's split of the files' columns gives the held-out
    samples, as columns, and the phases of the per-sample split it
    replaced: per file, in increasing horizon, one permutation, the
    held-out share in line order and the rest, in permutation order, that
    horizon's phase."""
    out_dir = str(Path(tiny_data["paths"][2]).parent)
    cfg = cf.config_from_dict({"seed": 5, "estimator": {"heldout_frac": 0.2},
                               "datagen": {"out_dir": out_dir, "episodes_per_task": 8,
                                           "horizons": [3, 2]}})
    held, phases = cli._split_phases(cfg)
    rng = np.random.default_rng(np.random.SeedSequence([5, 31]))
    ref_phases, ref_held = [], []
    for h in (2, 3):
        samples = dg.read_dataset(tiny_data["paths"][h]).samples
        order = rng.permutation(len(samples))
        n_held = max(1, int(round(0.2 * len(samples))))
        ref_held.extend(samples[i] for i in np.sort(order[:n_held]))
        ref_phases.append([samples[i] for i in order[n_held:]])
    assert len(phases) == 2
    for batch, want in zip(phases, ref_phases):
        assert batch.mask is None and len(batch) == len(want)
        for name, ref in (("proprio", [s.proprio for s in want]), ("z", [s.z for s in want]),
                          ("plan", [s.plan for s in want]),
                          ("y_bin", [s.label.y_bin for s in want]),
                          ("y_d", [s.label.y_d for s in want]),
                          ("y_ttc", [s.label.y_ttc for s in want])):
            got = getattr(batch, name)
            assert got.dtype == np.float64 and np.array_equal(got, ref), name
    view = dg.Dataset(None, held).samples
    assert len(view) == len(ref_held)
    for got, want in zip(view, ref_held):
        assert all(np.array_equal(getattr(got, f), getattr(want, f))
                   for f in ("proprio", "z", "plan"))
        assert (got.H, got.label, got.meta) == (want.H, want.label, want.meta)


def test_estimator_stages_never_import_numpy_ma(tmp_path):
    """gen-data, train-estimator, calibrate and roc-tune, run in one fresh
    process, leave numpy.ma unimported: its import alone costs about
    1.7 MB of peak RSS."""
    (tmp_path / "cfg.json").write_text(json.dumps({
        "datagen": {"out_dir": "data", "episodes_per_task": 6},
        "estimator": {"checkpoint_path": "est.json", "heldout_path": "held.jsonl",
                      "epochs_per_phase": 1},
        "gate": {"thresholds_path": "thr.json"}}))
    script = ("import contextlib, io, sys\n"
              "from riskgate import cli\n"
              "for stage in ('gen-data', 'train-estimator', 'calibrate', 'roc-tune'):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main([stage, '--config', 'cfg.json']) == 0, stage\n"
              "print('numpy.ma' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_gated_evaluate_and_report_never_import_numpy_ma(tmp_path):
    """gated evaluate and report, run in one fresh process after the
    stages that make their estimator and thresholds, leave numpy.ma
    unimported: the report's latency percentiles come from
    `metrics.percentile`, not `np.percentile`."""
    (tmp_path / "cfg.json").write_text(json.dumps({
        "tasks": {"episodes_per_task": 1, "max_steps": 20},
        "datagen": {"out_dir": "data", "episodes_per_task": 6},
        "estimator": {"checkpoint_path": "est.json", "heldout_path": "held.jsonl",
                      "epochs_per_phase": 1},
        "gate": {"thresholds_path": "thr.json"},
        "eval": {"logs_dir": "logs", "report_path": "report.json"}}))
    script = ("import contextlib, io, sys\n"
              "from riskgate import cli\n"
              "for stage in ('gen-data', 'train-estimator', 'calibrate', 'roc-tune',\n"
              "              'evaluate', 'report'):\n"
              "    argv = [stage, '--config', 'cfg.json']\n"
              "    argv += ['--mode', 'gated'] if stage == 'evaluate' else []\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main(argv) == 0, stage\n"
              "print('numpy.ma' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mode"] == "gated" and report["estimator"]["latency"]["p50_us"] > 0


def test_no_stage_imports_multiprocessing(tmp_path):
    """gen-data, train-estimator, calibrate, roc-tune, evaluate and report,
    run in one fresh process, import neither multiprocessing nor
    concurrent.futures: the pipeline is single-process, and those imports
    alone cost over 1 MB of peak RSS."""
    (tmp_path / "cfg.json").write_text(json.dumps({
        "tasks": {"episodes_per_task": 1},
        "datagen": {"out_dir": "data", "episodes_per_task": 6},
        "estimator": {"checkpoint_path": "est.json", "heldout_path": "held.jsonl",
                      "epochs_per_phase": 1},
        "gate": {"thresholds_path": "thr.json"},
        "eval": {"logs_dir": "logs", "report_path": "report.json", "workers": 2}}))
    script = ("import contextlib, io, sys\n"
              "from riskgate import cli\n"
              "for stage in ('gen-data', 'train-estimator', 'calibrate', 'roc-tune',\n"
              "              'evaluate', 'report'):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main([stage, '--config', 'cfg.json']) == 0, stage\n"
              "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_thresholds_file_feeds_reports(micro_run):
    root = micro_run["root"]
    thr = _read(root, "thresholds.json")
    assert 0.0 < thr["tau_down"] < thr["tau_up"] < 1.0
    assert thr["tau_down"] == pytest.approx(0.5 * thr["tau_up"])
    assert {"fpr", "tpr", "thresholds"} <= set(thr["roc"])
    gated = _read(root, "report_gated.json")
    assert gated["thresholds"]["tau_up"] == thr["tau_up"]
    assert gated["thresholds"]["tau_down"] == thr["tau_down"]


def test_thresholds_bytes_match_json_dump(micro_run, tmp_path):
    """roc-tune writes the bytes json.dump wrote for the same payload."""
    root = micro_run["root"]
    cfg = cf.load_config(micro_run["cfg_path"])
    held = dg.read_dataset(root / "heldout.jsonl").columns.batch()
    res = mt.roc_tune(est.load_params(root / "est.json"), held, cfg.gate.fn_target)
    payload = {
        "tau_up": res.tau_up, "tau_down": res.tau_down, "auc": res.auc,
        "fn_target": cfg.gate.fn_target, "fnr_at_tau": res.fnr_at_tau,
        "roc": {"fpr": res.fpr.tolist(), "tpr": res.tpr.tolist(),
                "thresholds": [t if np.isfinite(t) else None for t in res.thresholds.tolist()]},
    }
    with open(tmp_path / "ref.json", "w") as f:
        json.dump(payload, f)
        f.write("\n")
    assert None in payload["roc"]["thresholds"]
    assert (root / "thresholds.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_report_shapes(micro_run):
    root = micro_run["root"]
    ungated = _read(root, "report_ungated.json")
    gated = _read(root, "report_gated.json")
    for rep, mode in ((ungated, "ungated"), (gated, "gated")):
        assert rep["mode"] == mode
        assert rep["episodes"] == 12
        for tid in ("crossing_transfer", "parallel_place"):
            block = rep["per_task"][tid]
            assert block["episodes"] == 6
            assert 0.0 <= block["collision_rate"] <= 1.0
            assert 0.0 <= block["success_rate"] <= 1.0
    assert ungated["estimator"] is None
    assert gated["estimator"]["n_scored_steps"] > 0
    assert gated["estimator"]["latency"]["p50_us"] > 0.0
    assert all(b["blocked_fraction"] == 0.0 for b in ungated["per_task"].values())
    # report_shape has exactly the keys of a real report
    tids = sorted(gated["per_task"])
    for rep, mode in ((ungated, "ungated"), (gated, "gated")):
        assert key_tree(hn.report_shape(tids, mode)) == key_tree(rep), mode


def key_tree(obj):
    """The nested dict keys of obj, leaves as None."""
    return {k: key_tree(v) for k, v in obj.items()} if isinstance(obj, dict) else None


def test_latency_summarizes_the_logged_steps(micro_run):
    """estimator.latency is the p50, p95 and max of the logged latency_us,
    over every step of the run and per task, with the step counts."""
    logs = [hn.read_episode_log(p) for p in sorted((micro_run["root"] / "logs_gated").iterdir())]
    latency = _read(micro_run["root"], "report_gated.json")["estimator"]["latency"]

    def summary(us):
        return {"p50_us": float(np.percentile(us, 50)), "p95_us": float(np.percentile(us, 95)),
                "max_us": max(us)}

    every = [s.latency_us for lg in logs for s in lg.steps]
    assert latency["calls"] == sum(lg.n_steps for lg in logs) == len(every)
    assert {k: latency[k] for k in ("p50_us", "p95_us", "max_us")} == summary(every)
    assert 0.0 < latency["p50_us"] <= latency["p95_us"] <= latency["max_us"]
    assert sorted(latency["per_task"]) == ["crossing_transfer", "parallel_place"]
    for tid, block in latency["per_task"].items():
        mine = [s.latency_us for lg in logs if lg.task_id == tid for s in lg.steps]
        assert block == {**summary(mine), "steps": sum(lg.n_steps for lg in logs
                                                       if lg.task_id == tid)}


def test_gated_evaluate_scores_only_its_episodes(micro_run, monkeypatch, tmp_path):
    """A gated evaluate calls estimator.predict_risk exactly as often as the
    run_episodes of its episode grid does: no synthetic timing loop."""
    monkeypatch.chdir(micro_run["root"])
    cfg = cf.load_config(micro_run["cfg_path"])
    cfg.tasks.episodes_per_task = 2
    cfg.eval.logs_dir, cfg.eval.report_path = str(tmp_path / "logs"), str(tmp_path / "r.json")
    calls = []
    predict_risk = est.predict_risk

    def counted(*args, **kwargs):
        calls.append(1)
        return predict_risk(*args, **kwargs)

    monkeypatch.setattr(est, "predict_risk", counted)
    hn.run_episodes(hn.prepare_setup(cfg, "gated"), hn.episode_grid(cfg))
    in_episodes = len(calls)
    calls.clear()
    hn.evaluate(cfg, "gated")
    assert in_episodes > 0 and len(calls) == in_episodes


def test_run_subcommand_and_modes(micro_run):
    root = micro_run["root"]
    cfg = str(micro_run["cfg_path"])
    cwd = os.getcwd()
    try:
        os.chdir(root)
        for mode in ("ungated", "gated", "gated+refine", "gated+finetuned"):
            code = cli.main(["run", "--config", cfg, "--task", "parallel_place",
                             "--index", "0", "--mode", mode])
            assert code == 0, mode
            name = f"ep_{mode.replace('+', '_')}_parallel_place_"
            assert any(p.startswith(name) for p in os.listdir("logs"))
    finally:
        os.chdir(cwd)


def test_report_subcommand_rebuilds_from_logs(micro_run, tmp_path, capsys):
    root = micro_run["root"]
    base = json.loads(micro_run["cfg_path"].read_text())
    base["eval"] = dict(base["eval"], logs_dir=str(root / "logs_gated"),
                        report_path=str(tmp_path / "rebuilt.json"))
    # report resolves thresholds and checkpoints relative to the micro root
    base["gate"] = dict(base["gate"], thresholds_path=str(root / "thresholds.json"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base))
    capsys.readouterr()
    assert cli.main(["report", "--config", str(cfg_path)]) == 0
    # the same bytes as evaluate's, estimator.latency included
    assert capsys.readouterr().out == micro_run["stdout"]["gated"]
    assert (tmp_path / "rebuilt.json").read_bytes() == (root / "report_gated.json").read_bytes()
    assert json.load(open(tmp_path / "rebuilt.json"))["estimator"]["latency"]["calls"] > 0


def _edit_record(index, **changes):
    """An edit of log line `index` that sets (or, for None, drops) keys."""
    def edit(lines):
        obj = json.loads(lines[index])
        for key, value in changes.items():
            if value is None:
                del obj[key]
            else:
                obj[key] = value
        lines[index] = json.dumps(obj, sort_keys=True)
    return edit


def _halt_last_step(lines):
    """The log of the same episode had its last step HALTed, then marked a
    success."""
    _edit_record(-2, decision="HALT")(lines)
    _edit_record(-1, collided=False, success=True)(lines)


def _drop_steps(lines):
    """A log of no steps whose terminal record agrees with that, marked a
    success."""
    del lines[1:-1]
    _edit_record(-1, steps=0, blocked_steps=0, recoveries=0, collided=False, success=True)(lines)


@pytest.mark.parametrize("edit, line, expect", [
    (_edit_record(-1, success="false"), -1, "success must be true or false"),
    (_edit_record(-1, steps="3"), -1, "steps must be an int >= 0"),
    (_edit_record(-1, recoveries=-1), -1, "recoveries must be an int >= 0"),
    (_edit_record(-1, blocked_steps=99), -1, "blocked_steps 99 disagrees"),
    (_edit_record(-1, collided=False), -1, "collided false disagrees with the last step's"),
    (_edit_record(-2, d_min=0.5), -1, "collided true disagrees with the last step's"),
    (_edit_record(-1, success=True), -1, "success and collided are both true"),
    (_edit_record(-1, recoveries=9), -1, "recoveries 9 disagrees with the RUN -> BLOCKED"),
    (_halt_last_step, -1, "success is true after a last step that HALTs"),
    (_drop_steps, -1, "success is true after no steps"),
    (_edit_record(1, decision="HALT"), 1, "a step before the last has decision HALT"),
    (_edit_record(1, d_min=-0.01), 1, "a step before the last has decision EXECUTE and d_min"),
    (_edit_record(1, plan_y_bin=7), 1, "plan_y_bin must be 0 or 1"),
    (lambda lines: lines.__setitem__(1, lines[1].replace('"plan_y_bin": 0', '"plan_y_bin": null')),
     1, "plan_y_bin must be 0 or 1, got None"),
    (_edit_record(1, r_hat=3.5), 1, "r_hat must be null or a number in [0, 1]"),
    (_edit_record(1, d_min=float("nan")), 1, "d_min must be a finite number"),
    (_edit_record(1, latency_us=0.0), 1, "latency_us must be a finite number > 0"),
    (_edit_record(1, t=True), 1, "t must be an int >= 0"),
    (_edit_record(1, action=[0.0, 0.0, 0.0]), 1, "action must be a list of 4"),
    (_edit_record(1, decision="GO"), 1, "decision must be one of"),
    (_edit_record(1, gate_mode="HALT"), 1, "gate_mode must be one of"),
    (_edit_record(1, action=None), 1, "a step record has keys"),
    (_edit_record(1, extra=1), 1, "a step record has keys"),
    (_edit_record(1, kind="terminal"), 1, "not a step record"),
    (_edit_record(0, mode="fast"), 0, "mode must be one of"),
    (lambda lines: lines.__setitem__(1, lines[1][:-1]), 1, "not JSON"),
])
def test_report_rejects_a_misread_log(micro_run, tmp_path, capsys, edit, line, expect):
    """An episode log with a record `write_episode_log` cannot have written,
    or a terminal record the steps contradict, does not load:
    `read_episode_log` raises naming the file and line, and `report` exits
    2 naming the file. The edited log is a gated crossing episode that
    collided after two recoveries."""
    root = micro_run["root"]
    logs = tmp_path / "logs"
    logs.mkdir()
    for src in (root / "logs_gated").iterdir():
        (logs / src.name).write_bytes(src.read_bytes())
    path = sorted(logs.iterdir())[0]
    lines = path.read_text().splitlines()
    assert len(lines) > 3 and '"recoveries": 2' in lines[-1] and '"collided": true' in lines[-1]
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        hn.read_episode_log(path)
    assert f"{path}: line {range(1, len(lines) + 1)[line]}: " in str(err.value)
    assert expect in str(err.value)
    base = json.loads(micro_run["cfg_path"].read_text())
    base["eval"] = dict(base["eval"], logs_dir=str(logs),
                        report_path=str(tmp_path / "rebuilt.json"))
    base["gate"] = dict(base["gate"], thresholds_path=str(root / "thresholds.json"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base))
    capsys.readouterr()
    assert cli.main(["report", "--config", str(cfg_path)]) == 2
    assert f"error: ValueError: {path}: line" in capsys.readouterr().err
    assert not (tmp_path / "rebuilt.json").exists()


def test_exit_code_1_on_config_errors(tmp_path, capsys):
    assert cli.main(["gen-data", "--config", str(tmp_path / "nofile.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": {}}))
    assert cli.main(["gen-data", "--config", str(bad)]) == 1
    # roc-tune demands a thresholds path
    cfg = tmp_path / "nothr.json"
    cfg.write_text(json.dumps({"gate": {"thresholds_path": ""}}))
    assert cli.main(["roc-tune", "--config", str(cfg)]) == 1
    # a repeated horizon would write its file twice; gen-data writes none
    cfg = tmp_path / "twice.json"
    cfg.write_text(json.dumps({"datagen": {"out_dir": str(tmp_path / "data"),
                                           "horizons": [2, 3, 2]}}))
    capsys.readouterr()
    assert cli.main(["gen-data", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: datagen.horizons must not repeat a horizon, got [2, 3, 2]")
    assert not (tmp_path / "data").exists()


def test_fewer_episodes_than_horizons_cannot_train(tmp_path, capsys):
    """With fewer datagen episodes per task than horizons, gen-data still
    runs (a one-episode warm-up may use it) and writes a horizon's file
    with its header line alone; train-estimator then exits 1 naming
    datagen.episodes_per_task, before it writes a checkpoint or a held-out
    file."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "tasks": {"ids": ["parallel_place"], "max_steps": 3},
        "datagen": {"out_dir": str(tmp_path / "data"), "episodes_per_task": 2,
                    "horizons": [2, 3, 5]},
        "estimator": {"checkpoint_path": str(tmp_path / "est.json"),
                      "heldout_path": str(tmp_path / "held.jsonl")}}))
    assert cli.main(["gen-data", "--config", str(cfg)]) == 0
    counts = json.loads(capsys.readouterr().out)["counts"]
    assert counts["5"]["samples"] == 0 < counts["2"]["samples"]
    lines = (tmp_path / "data" / "risk_H5.jsonl").read_text().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["counts"] == {"samples": 0, "positives": 0}
    assert dg.read_dataset(tmp_path / "data" / "risk_H5.jsonl").samples == []
    assert cli.main(["train-estimator", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: datagen.episodes_per_task must be >= the number of "
                          "datagen.horizons (3)")
    assert not (tmp_path / "est.json").exists() and not (tmp_path / "held.jsonl").exists()


def test_a_held_out_share_that_empties_a_phase_cannot_train(tmp_path, capsys):
    """When the held-out share of a file takes every sample, its horizon
    has no training phase: train-estimator exits 1 naming
    estimator.heldout_frac and the file, before it writes a checkpoint or
    a held-out file."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "tasks": {"max_steps": 1},
        "datagen": {"out_dir": str(tmp_path / "data"), "episodes_per_task": 3, "n_candidates": 1,
                    "oversample_factor": 1},
        "estimator": {"checkpoint_path": str(tmp_path / "est.json"),
                      "heldout_path": str(tmp_path / "held.jsonl"), "heldout_frac": 0.8}}))
    assert cli.main(["gen-data", "--config", str(cfg)]) == 0
    counts = json.loads(capsys.readouterr().out)["counts"]
    assert {c["samples"] for c in counts.values()} == {2}
    assert cli.main(["train-estimator", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: estimator.heldout_frac 0.8 holds out all 2 samples of ")
    assert str(tmp_path / "data" / "risk_H2.jsonl") in err
    assert not (tmp_path / "est.json").exists() and not (tmp_path / "held.jsonl").exists()


def test_post_train_on_one_record_cannot_train(micro_run, tmp_path, capsys):
    """One task, one episode and one step give post-train a single gated
    record, which its held-out split takes whole: it exits 2 saying that
    nothing is left to train on, and writes no checkpoint."""
    root = micro_run["root"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "tasks": {"ids": ["parallel_place"], "episodes_per_task": 1, "max_steps": 1},
        "estimator": {"checkpoint_path": str(root / "est.json"),
                      "posttrained_path": str(tmp_path / "est_post.json")},
        "gate": {"thresholds_path": str(root / "thresholds.json")},
        "policy": {"checkpoint_path": str(tmp_path / "no_policy.json")}}))
    assert cli.main(["post-train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: post-train holds out all 1 gated-rollout records")
    assert "leaving none to train on" in err
    assert not (tmp_path / "est_post.json").exists()


def test_calibrate_runs_one_held_out_forward(micro_run, tmp_path, monkeypatch, capsys):
    """calibrate scores the held-out set once, in blocks of at most
    INFER_CHUNK rows that together take every row once, in order, and takes
    its temperature, both NLLs and both ECEs from those logits."""
    root = micro_run["root"]
    for name in ("est.json", "heldout.jsonl"):
        (tmp_path / name).write_bytes((root / name).read_bytes())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"estimator": {"checkpoint_path": str(tmp_path / "est.json"),
                                             "heldout_path": str(tmp_path / "heldout.jsonl")}}))
    blocks, score = [], est._score

    def counted(params, ctx, plan, *rest):
        blocks.append((ctx.proprio, plan))
        return score(params, ctx, plan, *rest)

    monkeypatch.setattr(est, "_score", counted)
    assert cli.main(["calibrate", "--config", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    held = dg.read_dataset(tmp_path / "heldout.jsonl").columns.batch()
    assert all(len(plan) <= est.INFER_CHUNK for _, plan in blocks)
    assert_array_equal(np.concatenate([proprio for proprio, _ in blocks]), held.proprio)
    assert_array_equal(np.concatenate([plan for _, plan in blocks]), held.plan)
    params = est.load_params(tmp_path / "est.json")
    assert out["temperature"] == params.temperature == _read(root, "est.json")["temperature"]
    logit = est.logit_batch(params, held)
    for key, t in (("nll_t1", 1.0), ("nll_calibrated", params.temperature)):
        assert out[key] == est.heldout_nll(logit, held.y_bin, t)
    for key, t in (("ece_before", 1.0), ("ece_after", params.temperature)):
        assert out[key] == mt.compute_calibration(est.calibrated_risk(logit, t), held.y_bin).ece


def test_logit_only_stages_score_in_blocks(micro_run, tmp_path, monkeypatch, capsys):
    """train-estimator's held-out AUC, calibrate and roc-tune score in
    blocks of at most INFER_CHUNK rows: at a chunk of 32, a multiple of
    every common gemm row unroll, no scoring outside training takes more
    rows, and each stage's stdout and artifacts equal those at the default
    chunk."""
    scored, score, train = [], est._score, est.train
    training = False

    def counted(params, ctx, plan, *rest):
        if not training:
            scored.append(len(plan))
        return score(params, ctx, plan, *rest)

    def flagged(*args, **kwargs):
        nonlocal training
        training = True
        try:
            return train(*args, **kwargs)
        finally:
            training = False

    monkeypatch.setattr(est, "_score", counted)
    monkeypatch.setattr(est, "train", flagged)
    runs = {}
    for chunk in (est.INFER_CHUNK, 32):
        monkeypatch.setattr(est, "INFER_CHUNK", chunk)
        work = tmp_path / f"chunk{chunk}"
        shutil.copytree(micro_run["root"] / "data", work / "data")
        (work / "cfg.json").write_text(json.dumps(MICRO_CONFIG))
        monkeypatch.chdir(work)
        scored.clear()
        stdout = {}
        for stage in ("train-estimator", "calibrate", "roc-tune"):
            assert cli.main([stage, "--config", "cfg.json"]) == 0
            stdout[stage] = capsys.readouterr().out
        artifacts = {p.relative_to(work): p.read_bytes() for p in sorted(work.rglob("*"))
                     if p.is_file()}
        runs[chunk] = stdout, artifacts
    assert max(scored) == 32 and len(scored) > 3
    assert runs[32] == runs[est.INFER_CHUNK]


def test_negative_seed_or_index_is_a_config_error(tmp_path, capsys):
    """A negative seed, in the config or as --seed, and a negative run
    --index each exit 1 naming the setting, before any stage runs."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"datagen": {"out_dir": str(tmp_path / "data")}}))
    bad.write_text(json.dumps({"seed": -3, "datagen": {"out_dir": str(tmp_path / "data")}}))
    for argv, name in ((["gen-data", "--config", str(bad)], "seed"),
                       (["gen-data", "--config", str(good), "--seed", "-3"], "--seed"),
                       (["run", "--config", str(good), "--task", "parallel_place",
                         "--index", "-1"], "--index")):
        capsys.readouterr()
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("config error:") and name in err, (argv, err)
    assert not (tmp_path / "data").exists()


def test_bad_thresholds_file_is_a_config_error(micro_run, tmp_path, capsys):
    """A thresholds file that is not JSON, not an object, or lacks a
    numeric tau makes gated evaluate exit 1 naming the file and the key;
    the file roc-tune wrote loads to its own values."""
    written = micro_run["root"] / "thresholds.json"
    cfg = cf.load_config(micro_run["cfg_path"])
    cfg.gate.thresholds_path = str(written)
    tuned = hn.resolve_gate_config(cfg)
    thr = _read(micro_run["root"], "thresholds.json")
    assert (tuned.tau_up, tuned.tau_down) == (thr["tau_up"], thr["tau_down"])

    thresholds = tmp_path / "thr.json"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "estimator": {"checkpoint_path": str(micro_run["root"] / "est.json")},
        "gate": {"thresholds_path": str(thresholds)},
        "eval": {"logs_dir": str(tmp_path / "logs"), "report_path": str(tmp_path / "r.json")}}))
    for text, key in (("{}", "tau_up"), ("[1, 2]", "tau_up and tau_down"),
                      ('{"tau_up": "0.6", "tau_down": 0.3}', "tau_up"),
                      ('{"tau_up": 0.6}', "tau_down"), ("{nope", "not valid JSON"),
                      ('{"tau_up": 0.3, "tau_down": 0.6}', "tau_down < tau_up")):
        thresholds.write_text(text)
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(cfg_path), "--mode", "gated"]) == 1, text
        err = capsys.readouterr().err
        assert str(thresholds) in err and key in err, (text, err)
    assert not (tmp_path / "logs").exists()


def test_exit_code_2_on_runtime_errors(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "datagen": {"out_dir": str(tmp_path / "data")},
        "estimator": {"checkpoint_path": str(tmp_path / "missing_est.json"),
                      "heldout_path": str(tmp_path / "missing_held.jsonl")},
    }))
    # no dataset files on disk yet
    assert cli.main(["train-estimator", "--config", str(cfg)]) == 2
    assert cli.main(["calibrate", "--config", str(cfg)]) == 2


def test_dataset_errors_name_the_file(micro_run, tmp_path, capsys):
    """An edited held-out header (read by calibrate) and an edited sample
    line of a training file (read by train-estimator) each exit 2 with an
    error that starts with that file's path, and write nothing."""
    root = micro_run["root"]
    data = tmp_path / "data"
    data.mkdir()
    for src in (root / "data").iterdir():
        (data / src.name).write_bytes(src.read_bytes())
    held = tmp_path / "heldout.jsonl"
    lines = (root / "heldout.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    del head["seed"]
    held.write_text("\n".join([json.dumps(head)] + lines[1:]) + "\n")
    ckpt = tmp_path / "est.json"
    ckpt.write_bytes((root / "est.json").read_bytes())
    base = json.loads(micro_run["cfg_path"].read_text())
    base["datagen"] = dict(base["datagen"], out_dir=str(data))
    base["estimator"] = dict(base["estimator"], checkpoint_path=str(ckpt),
                             heldout_path=str(held))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base))

    capsys.readouterr()
    assert cli.main(["calibrate", "--config", str(cfg_path)]) == 2
    assert f"error: ValueError: {held}: malformed header: keys" in capsys.readouterr().err

    train_file = sorted(data.iterdir())[0]
    lines = train_file.read_text().splitlines()
    obj = json.loads(lines[1])
    del obj["z"]
    train_file.write_text("\n".join([lines[0], json.dumps(obj)] + lines[2:]) + "\n")
    assert cli.main(["train-estimator", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: ValueError: {train_file}: malformed sample at line 2: 'z'" in err
    assert ckpt.read_bytes() == (root / "est.json").read_bytes()
    assert held.read_text().splitlines()[0] == json.dumps(head)


@pytest.mark.parametrize("fault", ["unreadable", "emptied"])
def test_a_fault_in_the_last_file_keeps_its_message(micro_run, tmp_path, capsys, fault):
    """train-estimator reads and splits its files one at a time, by
    increasing horizon, so it meets a fault in the last file after
    splitting the others. A sample line of it that cannot be read still
    exits 2 naming the file and the line; a held-out share that takes all
    of its samples still exits 1 naming estimator.heldout_frac and the
    file. Neither writes a checkpoint or a held-out file."""
    data = tmp_path / "data"
    data.mkdir()
    for src in (micro_run["root"] / "data").iterdir():
        (data / src.name).write_bytes(src.read_bytes())
    last = data / "risk_H5.jsonl"
    lines = last.read_text().splitlines()
    if fault == "unreadable":
        obj = json.loads(lines[2])
        del obj["plan"]
        lines[2] = json.dumps(obj)
    else:
        head, one = json.loads(lines[0]), json.loads(lines[1])
        head["counts"] = {"samples": 1, "positives": one["y_bin"]}
        lines = [json.dumps(head), lines[1]]
    last.write_text("\n".join(lines) + "\n")
    base = json.loads(micro_run["cfg_path"].read_text())
    base["datagen"] = dict(base["datagen"], out_dir=str(data))
    base["estimator"] = dict(base["estimator"], checkpoint_path=str(tmp_path / "est.json"),
                             heldout_path=str(tmp_path / "held.jsonl"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base))
    capsys.readouterr()
    code = cli.main(["train-estimator", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    if fault == "unreadable":
        assert code == 2
        assert f"error: ValueError: {last}: malformed sample at line 3: 'plan'" in err
    else:
        assert code == 1 and err.startswith("config error: estimator.heldout_frac ")
        assert f"holds out all 1 samples of {last}, leaving none to train on" in err
    assert not (tmp_path / "est.json").exists() and not (tmp_path / "held.jsonl").exists()


def test_checkpoint_errors_name_the_file(micro_run, tmp_path, capsys):
    """An estimator checkpoint that holds a JSON list (read by calibrate)
    and a fine-tuned policy whose a_max is true (read by evaluate) each
    exit 2 with an error that starts with that file's path."""
    root = micro_run["root"]
    ckpt, policy = tmp_path / "est.json", tmp_path / "pol_ft.json"
    ckpt.write_text("[]\n")
    payload = json.loads((root / "pol_ft.json").read_text())
    policy.write_text(json.dumps({**payload, "a_max": True}) + "\n")
    base = json.loads(micro_run["cfg_path"].read_text())
    base["estimator"] = dict(base["estimator"], checkpoint_path=str(ckpt),
                             heldout_path=str(root / "heldout.jsonl"))
    base["policy"] = dict(base["policy"], finetuned_path=str(policy))
    base["gate"] = dict(base["gate"], thresholds_path=str(root / "thresholds.json"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base))

    capsys.readouterr()
    assert cli.main(["calibrate", "--config", str(cfg_path)]) == 2
    assert f"error: ValueError: {ckpt}: not a checkpoint" in capsys.readouterr().err
    ckpt.write_bytes((root / "est.json").read_bytes())
    assert cli.main(["evaluate", "--config", str(cfg_path), "--mode", "gated+finetuned"]) == 2
    assert f"error: ValueError: {policy}: checkpoint a_max must be" in capsys.readouterr().err


def test_evaluate_asserts(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "tasks": {"episodes_per_task": 1},
        "eval": {"mode": "ungated", "logs_dir": str(tmp_path / "logs"),
                 "report_path": str(tmp_path / "rep.json")},
    }))
    ok = cli.main(["evaluate", "--config", str(cfg), "--mode", "ungated",
                   "--assert", "per_task.crossing_transfer.collision_rate<=1.0"])
    assert ok == 0
    failing = cli.main(["evaluate", "--config", str(cfg), "--mode", "ungated",
                        "--assert", "per_task.crossing_transfer.success_rate>=2"])
    assert failing == 3
    missing = cli.main(["evaluate", "--config", str(cfg), "--mode", "ungated",
                        "--assert", "per_task.flying.success_rate>=0"])
    assert missing == 3
    malformed = cli.main(["evaluate", "--config", str(cfg), "--mode", "ungated",
                          "--assert", "episodes==2"])
    assert malformed == 1


def test_malformed_assert_fails_before_evaluate(tmp_path, capsys):
    """A missing operator or a bound that is not a finite number is a config
    error (exit 1) before any episode runs: no log or report is written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "tasks": {"episodes_per_task": 1},
        "eval": {"mode": "ungated", "logs_dir": str(tmp_path / "logs"),
                 "report_path": str(tmp_path / "rep.json")},
    }))
    for expr in ("per_task.crossing_transfer.collision_rate<=abc", "episodes==0",
                 "episodes>=nan", "episodes<=inf", "episodes<=", "episodes"):
        capsys.readouterr()
        ok = "per_task.crossing_transfer.collision_rate<=1.0"
        code = cli.main(["evaluate", "--config", str(cfg), "--mode", "ungated",
                         "--assert", ok, "--assert", expr])
        assert code == 1, expr
        assert expr in capsys.readouterr().err
        assert not (tmp_path / "logs").exists() and not (tmp_path / "rep.json").exists()


def test_unknown_assert_path_fails_before_evaluate(tmp_path, capsys):
    """An assert path the report cannot have (empty, an unknown task, metric
    or estimator key, or an estimator key of an ungated run) exits 3 with
    the unknown-path message before any episode runs: no log or report is
    written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "tasks": {"episodes_per_task": 1, "ids": ["parallel_place"]},
        "eval": {"mode": "ungated", "logs_dir": str(tmp_path / "logs"),
                 "report_path": str(tmp_path / "rep.json")},
    }))
    for expr, mode in (("<=1", "ungated"), ("per_task.flying.success_rate>=0", "ungated"),
                       ("per_task.crossing_transfer.success_rate>=0", "ungated"),
                       ("per_task.parallel_place.speed>=0", "ungated"),
                       ("estimator.auc>=0", "ungated"),
                       ("estimator.latency.per_task.crossing_transfer.p50_us<=1", "gated"),
                       ("estimator.latency.p99_us<=1", "gated")):
        capsys.readouterr()
        ok = "per_task.parallel_place.collision_rate<=1.0"
        code = cli.main(["evaluate", "--config", str(cfg), "--mode", mode,
                         "--assert", ok, "--assert", expr])
        assert code == 3, expr
        path = expr.partition("<=" if "<=" in expr else ">=")[0]
        assert f"assertion failed: unknown metric path {path!r}" in capsys.readouterr().err
        assert not (tmp_path / "logs").exists() and not (tmp_path / "rep.json").exists()


def test_seed_override_changes_data(tmp_path):
    for seed, d in ((None, "a"), (123, "b")):
        cfg = tmp_path / f"cfg_{d}.json"
        cfg.write_text(json.dumps({
            "datagen": {"out_dir": str(tmp_path / d), "episodes_per_task": 2,
                        "horizons": [2]},
        }))
        argv = ["gen-data", "--config", str(cfg)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert cli.main(argv) == 0
    a = (tmp_path / "a" / "risk_H2.jsonl").read_bytes()
    b = (tmp_path / "b" / "risk_H2.jsonl").read_bytes()
    assert a != b


def test_stdout_is_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "tasks": {"episodes_per_task": 1},
        "eval": {"mode": "ungated", "logs_dir": str(tmp_path / "logs"),
                 "report_path": str(tmp_path / "rep.json")},
    }))
    assert cli.main(["run", "--config", str(cfg), "--task", "crossing_transfer",
                     "--index", "0", "--mode", "ungated"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"log", "success", "collided", "steps"} <= set(payload)


def test_report_rejects_logs_outside_the_config_grid(tmp_path, capsys):
    """report counts exactly the config's episode grid: a stale log from a
    larger or another-seed run, or a missing log, exits 2 naming the
    (task, seed) pair, and the mode check still comes first."""
    logs = tmp_path / "logs"

    def write_cfg(episodes):
        path = tmp_path / f"cfg_{episodes}.json"
        path.write_text(json.dumps({
            "tasks": {"episodes_per_task": episodes},
            "eval": {"mode": "ungated", "logs_dir": str(logs),
                     "report_path": str(tmp_path / "rep.json")}}))
        return str(path)

    def report_error(cfg_path, *extra):
        capsys.readouterr()
        assert cli.main(["report", "--config", cfg_path, *extra]) == 2
        return capsys.readouterr().err

    three, one = write_cfg(3), write_cfg(1)
    assert cli.main(["evaluate", "--config", three]) == 0
    assert cli.main(["report", "--config", three]) == 0
    assert json.load(open(tmp_path / "rep.json"))["episodes"] == 6
    assert hn.episode_grid(cf.load_config(three)) == [
        (tid, hn.episode_seed(0, tid, i)) for tid in wd.TASK_IDS for i in range(3)]

    # a smaller rerun into the same directory leaves the larger run's logs
    assert cli.main(["evaluate", "--config", one]) == 0
    stale = ("crossing_transfer", hn.episode_seed(0, "crossing_transfer", 1))
    err = report_error(one)
    assert f"log of episode {stale} in {logs} is not in the config's episode grid" in err

    # a missing log
    missing = ("parallel_place", hn.episode_seed(0, "parallel_place", 2))
    os.remove(hn.episode_log_path(logs, hn.EpisodeLog(*missing, mode="ungated", steps=[])))
    assert f"no log of episode {missing}" in report_error(three)

    # a run of another seed next to them
    assert cli.main(["evaluate", "--config", one, "--seed", "5"]) == 0
    assert "not in the config's episode grid (seed 5," in report_error(one, "--seed", "5")

    # logs of two modes are reported as such, before any grid check
    stray = hn.EpisodeLog("parallel_place", 1, "gated", [])
    hn.write_episode_log(stray, hn.episode_log_path(logs, stray))
    assert "mix modes" in report_error(three)
