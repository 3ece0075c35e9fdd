"""Tests of the benchmark itself: tracer, output checks, metric names.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, run.SRC)
import layers  # noqa: E402
import workloads as wk  # noqa: E402
from tracer import Tracer  # noqa: E402

from riskgate import harness as hn  # noqa: E402


@pytest.fixture
def toy_modules(monkeypatch):
    """toypkg.inner defines leaf; toypkg.outer binds it by name."""
    inner = types.ModuleType("toypkg.inner")

    def leaf(dt):
        time.sleep(dt)
        return dt

    inner.leaf = leaf
    outer = types.ModuleType("toypkg.outer")
    outer.leaf = leaf

    def branch():
        time.sleep(0.005)
        return outer.leaf(0.01) + outer.leaf(0.02)

    outer.branch = branch
    for name, mod in (("toypkg", types.ModuleType("toypkg")),
                      ("toypkg.inner", inner), ("toypkg.outer", outer)):
        monkeypatch.setitem(sys.modules, name, mod)
    return inner, outer


def test_tracer_self_time_and_restore(toy_modules):
    inner, outer = toy_modules
    orig_leaf, orig_branch = inner.leaf, outer.branch
    tracer = Tracer({"toypkg.inner": ("leaf",), "toypkg.outer": ("branch",)})
    with tracer:
        assert outer.leaf is not orig_leaf and inner.leaf is outer.leaf
        assert outer.branch() == pytest.approx(0.03)
    assert inner.leaf is orig_leaf and outer.leaf is orig_leaf
    assert outer.branch is orig_branch

    assert [tracer.name_of(i) for i in range(len(tracer))] == [
        "outer.branch", "inner.leaf", "inner.leaf"]
    assert list(tracer.parent) == [-1, 0, 0]
    dur = [tracer.end[i] - tracer.start[i] for i in range(3)]
    summary = tracer.summary()
    assert summary["outer.branch"]["calls"] == 1
    assert summary["outer.branch"]["total_s"] == pytest.approx(dur[0])
    assert summary["outer.branch"]["self_s"] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert summary["inner.leaf"] == {"calls": 2, "total_s": pytest.approx(dur[1] + dur[2]),
                                     "self_s": pytest.approx(dur[1] + dur[2])}
    assert 0.0 < summary["outer.branch"]["self_s"] < summary["inner.leaf"]["total_s"]
    assert tracer.count_children("outer.branch", "inner.leaf") == 2
    assert tracer.count_within("outer.branch", "inner.leaf") == 2


def test_tracer_restores_after_exception(toy_modules):
    inner, outer = toy_modules
    orig = inner.leaf
    tracer = Tracer({"toypkg.inner": ("leaf",)})
    with pytest.raises(TypeError):
        with tracer:
            outer.leaf()  # missing argument
    assert inner.leaf is orig and outer.leaf is orig
    assert len(tracer) == 1 and tracer.end[0] >= tracer.start[0]


def test_tracer_skips_missing_target(toy_modules):
    inner, outer = toy_modules
    tracer = Tracer({"toypkg.inner": ("leaf", "gone")})
    with tracer:
        outer.leaf(0.0)
    summary = tracer.summary()
    assert list(summary) == ["inner.leaf"] and summary["inner.leaf"]["calls"] == 1
    assert inner.leaf is outer.leaf and not hasattr(inner, "gone")


def test_layer_ratios_on_toy_modules(monkeypatch):
    """rollout runs 3 steps; each step calls joint_origins twice."""
    geometry = types.ModuleType("toyrg.geometry")
    geometry.joint_origins = lambda: None
    world = types.ModuleType("toyrg.world")
    world.joint_origins = geometry.joint_origins

    def step():
        world.joint_origins()
        world.joint_origins()

    def rollout():
        for _ in range(3):
            world.step()

    world.step, world.rollout = step, rollout
    for name, mod in (("toyrg", types.ModuleType("toyrg")),
                      ("toyrg.geometry", geometry), ("toyrg.world", world)):
        monkeypatch.setitem(sys.modules, name, mod)
    tracer = Tracer({"toyrg.geometry": ("joint_origins",),
                     "toyrg.world": ("step", "rollout")})
    with tracer:
        world.rollout()
        world.step()
    table = layers.layer_metrics(tracer, layers.EpisodeCounts())
    assert table["world.rollout.calls"] == 1 and table["world.step.calls"] == 4
    assert table["world.rollout.steps_per_call"] == 3.0
    assert table["geometry.joint_origins.calls"] == 8
    assert table["geometry.joint_origins.per_step"] == 2.0
    assert table["safeguard.recover.forwards_per_call"] == 0.0
    assert table["datasetgen.label_plan.calls"] == 0


def _tiny_datagen(tmp_path):
    cfg = wk.load_config("datagen")
    cfg["datagen"]["episodes_per_task"] = 3
    wl = wk.Datagen(cfg)
    wdir = tmp_path / "w"
    assert all(r.code == 0 for r in wl.setup(wdir))
    return wl, wdir


def test_traced_pass_artifacts_byte_identical(tmp_path):
    wl, wdir = _tiny_datagen(tmp_path)
    plain = wl.run_pass(wdir, 5)
    tracer, counts = layers.make_tracer()
    with tracer:
        traced = wl.run_pass(wdir, 5)
    assert all(op.ok for op in plain.ops + traced.ops)
    assert plain.fingerprint and traced.fingerprint == plain.fingerprint
    table = layers.layer_metrics(tracer, counts)
    steps = table["world.step.calls"]
    per_step = table["geometry.joint_origins.per_step"]
    assert steps > 0 and per_step > 0
    assert per_step == tracer.count_within("world.step", "geometry.joint_origins") / steps
    assert table["estimator.predict_risk.calls"] == 0


def _corrupt_line(path, index, edit):
    with open(path) as f:
        lines = f.readlines()
    obj = json.loads(lines[index])
    edit(obj)
    lines[index] = json.dumps(obj, sort_keys=True) + "\n"
    with open(path, "w") as f:
        f.writelines(lines)


@pytest.mark.parametrize("edit, expect", [
    (lambda o: o.update(y_bin=1 - o["y_bin"]), "y_bin != (y_d < 0)"),
    (lambda o: o.update(plan=[0.5] + o["plan"][1:]), "outside the a_max box"),
    (lambda o: o.pop("z"), "read_dataset failed"),
])
def test_corrupted_dataset_is_a_failure(tmp_path, edit, expect):
    wl, wdir = _tiny_datagen(tmp_path)
    res = wl.run_pass(wdir, 5)
    assert all(op.ok for op in res.ops)
    path = os.path.join(wdir, "data", "risk_H2.jsonl")
    _corrupt_line(path, 1, edit)
    reasons, _ = wk.check_dataset(path, wl.a_max)
    assert any(expect in r for r in reasons)


def test_reference_mismatch_is_a_failure(tmp_path):
    wl, wdir = _tiny_datagen(tmp_path)
    good = wl.run_pass(wdir, 5)
    wl.references = {"5": {"counts": good.mix["counts"], "labels": good.units}}
    assert all(op.ok for op in wl.run_pass(wdir, 5).ops)
    wl.references["5"]["labels"] += 1
    assert not wl.run_pass(wdir, 5).ops[0].ok


def test_episode_log_outside_box_is_a_failure(tmp_path):
    step = hn.StepRecord(t=0, state_digest="0" * 16, r_hat=0.1, d_min=0.2,
                         gate_mode="RUN", decision="EXECUTE",
                         action=[0.0, 0.0, 0.0, 0.0], latency_us=10.0, plan_y_bin=0)
    log = hn.EpisodeLog(task_id="parallel_place", seed=1, mode="gated",
                        steps=[step], n_steps=1)
    path = tmp_path / "ep.jsonl"
    hn.write_episode_log(log, path)
    assert wk.check_episode_log(path, 0.02)[0] == []
    _corrupt_line(path, 1, lambda o: o.update(action=[0.03, 0.0, 0.0, 0.0]))
    assert "outside the a_max box" in wk.check_episode_log(path, 0.02)[0][0]
    with open(path) as f:
        head = f.readline()
    path.write_text(head)
    assert "unreadable log" in wk.check_episode_log(path, 0.02)[0][0]


def test_failed_op_is_counted(monkeypatch, tmp_path):
    class Broken(wk.Workload):
        name = "datagen"

        def setup(self, wdir):
            return []

        def run_stages(self, wdir, seed):
            return []

        def check(self, wdir, seed, runs):
            return wk.PassResult(stages=runs, ops=[wk.Op("gen-data", ["corrupt"])], units=0,
                                 unit_seconds=0.0, fingerprint={})

    monkeypatch.setitem(wk.WORKLOADS, "datagen", Broken)
    result, context = run.measure("datagen", 0, 0, False, str(tmp_path))
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 1
    assert context["failures"] == ["gen-data: corrupt"]


def test_workload_configs_set_every_key():
    from riskgate import config as cf
    for name in wk.WORKLOADS:
        cfg = wk.load_config(name)
        assert wk.missing_config_keys(cfg) == [], name
        assert cf.config_from_dict(cfg).eval.workers == 1


def test_benchmark_json_names_match_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(wk.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layers.PER_LAYER
