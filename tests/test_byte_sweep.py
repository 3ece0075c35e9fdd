"""tools/byte_sweep.py: its timing strip and its tree diff, on small
synthetic directories (the sweep itself runs the whole pipeline twice)."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_sweep.py"
_spec = importlib.util.spec_from_file_location("byte_sweep", TOOL)
bs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bs)


def step_line(latency_us, d_min=0.25):
    return json.dumps({"kind": "step", "t": 0, "latency_us": latency_us, "d_min": d_min,
                       "action": [0.0, 1e-05, -0.02, 0.0]}, sort_keys=True) + "\n"


def report(latency, auc=0.9):
    est = {"auc": auc, "latency": latency, "n_scored_steps": 4}
    return json.dumps({"estimator": est, "mode": "gated"}, indent=2, sort_keys=True) + "\n"


LATENCY = {"calls": 4, "p50_us": 812.5, "per_task": {"a": {"max_us": 9.1e-05, "steps": 4}}}


def test_strip_timing_removes_only_the_wall_clock_fields():
    assert bs.strip_timing(step_line(812.25).encode()) == \
        bs.strip_timing(step_line(1.5e-03).encode())
    assert b'"latency_us": _, "t": 0' in bs.strip_timing(step_line(3.0).encode())
    assert bs.strip_timing(step_line(3.0, 0.25).encode()) != \
        bs.strip_timing(step_line(3.0, 0.5).encode())
    other = dict(LATENCY, p50_us=1.0, per_task={"a": {"max_us": 7.0, "steps": 4}})
    stripped = bs.strip_timing(report(LATENCY).encode())
    assert stripped == bs.strip_timing(report(other).encode())
    assert b'"latency": _,\n    "n_scored_steps"' in stripped
    assert b'"n_scored_steps": 4' in stripped and b"p50_us" not in stripped
    assert stripped != bs.strip_timing(report(LATENCY, auc=0.8).encode())
    text = b'{"latency": null, "x": 1}'  # a latency that is no object stays
    assert bs.strip_timing(text) == text


def write_tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data.encode())


@pytest.mark.parametrize("edit, differ, raw", [
    ({}, [], 0),
    ({"logs/ep_1.jsonl": step_line(99.0)}, [], 1),
    ({"report.json": report(dict(LATENCY, calls=5))}, [], 1),
    ({"logs/ep_1.jsonl": step_line(1.0, d_min=0.3)}, ["logs/ep_1.jsonl"], 1),
    ({"report.json": report(LATENCY, auc=0.91)}, ["report.json"], 1),
    ({"est.json": '{"temperature": 1.25}\n'}, ["est.json"], 1),
    ({"extra.txt": ""}, ["extra.txt"], 0),
])
def test_compare_trees_lists_the_files_that_differ(tmp_path, edit, differ, raw):
    """Two trees differ in a file one of them lacks and in a file whose
    bytes differ after the timing strip; files that differ only in
    latency_us or a report's latency object count as raw differences."""
    base = {"logs/ep_1.jsonl": step_line(1.0), "report.json": report(LATENCY),
            "est.json": '{"temperature": 1.5}\n'}
    write_tree(tmp_path / "old", base)
    write_tree(tmp_path / "new", {**base, **edit})
    assert bs.compare_trees(tmp_path / "old", tmp_path / "new") == (differ, raw)
    if differ:
        assert bs.compare_trees(tmp_path / "new", tmp_path / "old") == (differ, raw)


def test_sweep_plans_every_stage_and_mode():
    """The sweep runs the seven build stages, then evaluate and report of
    each mode with that mode's own logs and report; the given config is
    left as it is."""
    cfg = {"seed": 0, "eval": {"logs_dir": "artifacts/logs", "workers": 4}}
    runs = bs.stage_runs(cfg)
    assert [name for name, _, _ in runs[:7]] == list(bs.STAGES)
    assert all(c is cfg for _, _, c in runs[:7])
    modes = runs[7:]
    assert [argv for _, argv, _ in modes] == [
        a for m in bs.MODES for a in (["evaluate", "--mode", m], ["report"])]
    for (_, _, ev), (_, _, rep) in zip(modes[::2], modes[1::2]):
        assert ev is rep and ev["eval"]["workers"] == 4
    assert len({c["eval"]["logs_dir"] for _, _, c in modes}) == 4
    assert cfg == {"seed": 0, "eval": {"logs_dir": "artifacts/logs", "workers": 4}}


def test_sweep_refuses_absolute_paths_and_missing_trees(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"estimator": {"checkpoint_path": str(tmp_path / "e.json")}}))
    assert bs.main([str(tmp_path), str(tmp_path), "--config", str(cfg)]) == 2
    assert "estimator.checkpoint_path must be a relative path" in capsys.readouterr().err
    cfg.write_text("{}")
    assert bs.main([str(tmp_path), str(tmp_path), "--config", str(cfg),
                    "--work", str(tmp_path / "w")]) == 2
    assert "no riskgate package" in capsys.readouterr().err


def test_timing_table_lists_each_stage_then_the_total():
    """The table has a header, then one line per stage in the old tree's
    order and the total, each with both trees' wall seconds and new/old."""
    table = bs.timing_table({"gen-data": 2.5, "evaluate_gated": 10.0},
                            {"evaluate_gated": 8.0, "gen-data": 2.75})
    assert table.splitlines() == [
        "stage              old s     new s  new/old",
        "gen-data            2.50      2.75    1.100",
        "evaluate_gated     10.00      8.00    0.800",
        "total              12.50     10.75    0.860",
    ]
