"""tools/bench.py: its summary, on made-up usage, and its runs, on fake
trees (the bench itself runs the whole pipeline K times)."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
import bench  # noqa: E402
import byte_sweep as bs  # noqa: E402


def test_summary_gives_each_stages_quartiles_then_the_totals():
    runs = [{"gen-data": (2.0, 60.0), "evaluate_gated": (10.0, 120.0)},
            {"gen-data": (3.0, 61.0), "evaluate_gated": (8.0, 110.0)},
            {"gen-data": (4.0, 62.0), "evaluate_gated": (12.0, 100.0)}]
    summary = bench.summarize(runs)
    assert list(summary) == ["gen-data", "evaluate_gated", "total"]
    assert summary["gen-data"] == {"wall_s": {"q1": 2.5, "median": 3.0, "q3": 3.5},
                                   "peak_mb": {"q1": 60.5, "median": 61.0, "q3": 61.5}}
    assert summary["evaluate_gated"]["wall_s"] == {"q1": 9.0, "median": 10.0, "q3": 11.0}
    # a repeat's total is its summed seconds (12, 11, 16) and largest peak (120, 110, 100)
    assert summary["total"] == {"wall_s": {"q1": 11.5, "median": 12.0, "q3": 14.0},
                                "peak_mb": {"q1": 105.0, "median": 110.0, "q3": 115.0}}


def fake_tree(root, cli_source):
    """A tree holding a riskgate package whose cli module is cli_source."""
    pkg = root / "riskgate"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(cli_source)
    return root


def run_bench(tmp_path, tree, *args):
    """Run the bench from a fresh interpreter, as from the shell: a stage's
    peak RSS counts its parent's pages until it execs."""
    return subprocess.run([sys.executable, str(TOOLS / "bench.py"), "--src", str(tree),
                           "--out", str(tmp_path / "bench.json"), *args],
                          capture_output=True, text=True)


def test_bench_runs_each_repeat_in_a_fresh_directory(tmp_path):
    """Every stage runs once per repeat, each repeat in a new working
    directory (gen-data fails where an earlier repeat has run), and the
    file holds each stage's own peak, every repeat's raw values and the
    host and source facts."""
    tree = fake_tree(tmp_path / "tree",
                     "import os, sys\n"
                     "if sys.argv[1] == 'gen-data':\n"
                     "    assert not os.path.exists('ran')\n"
                     "    open('ran', 'w').close()\n"
                     "held = b'x' * (64 << 20) if sys.argv[1] == 'gen-data' else b''\n")
    (tmp_path / "cfg.json").write_text(json.dumps({"eval": {"logs_dir": "logs"}}))
    proc = run_bench(tmp_path, tree, "--config", str(tmp_path / "cfg.json"), "--repeat", "4")
    assert proc.returncode == 0, proc.stderr
    out = json.loads((tmp_path / "bench.json").read_text())
    names = [name for name, _, _ in bs.stage_runs({})]
    assert list(out["stages"]) == [*names, "total"] and out["repeat"] == 4
    assert len(out["runs"]) == 4 and all(list(run) == names for run in out["runs"])
    assert proc.stdout.count(": gen-data exit 0") == 4
    peak = {name: out["stages"][name]["peak_mb"]["median"] for name in names}
    assert peak["gen-data"] > peak["train-estimator"] + 48
    assert out["stages"]["total"]["peak_mb"]["median"] == peak["gen-data"]
    assert all(s > 0 for run in out["runs"] for s, _ in run.values())
    assert set(out["host"]) == {"nproc", "python", "numpy", "blas", "blas_thread_env"}
    assert out["host"]["nproc"] >= 1
    h = hashlib.sha256(b"__init__.py" + b"cli.py" + (tree / "riskgate" / "cli.py").read_bytes())
    assert out["source"] == {"git": None, "source_sha256": h.hexdigest()}


def test_bench_refuses_bad_input_and_failed_stages(tmp_path):
    tree = fake_tree(tmp_path / "tree",
                     "import sys\n"
                     "sys.exit(3 if sys.argv[1] == 'calibrate' else 0)\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    proc = run_bench(tmp_path, tree, "--config", str(cfg))
    assert proc.returncode == 2 and "calibrate exited 3" in proc.stderr
    proc = run_bench(tmp_path, tree, "--config", str(cfg), "--repeat", "2")
    assert proc.returncode == 2 and "--repeat must be >= 3" in proc.stderr
    cfg.write_text(json.dumps({"datagen": {"out_dir": str(tmp_path / "data")}}))
    proc = run_bench(tmp_path, tree, "--config", str(cfg))
    assert proc.returncode == 2 and "datagen.out_dir must be a relative path" in proc.stderr
    assert not (tmp_path / "bench.json").exists()


def test_committed_bench_files_are_whole():
    """Every committed BENCH_<n>.json parses, holds the stages `run_tree`
    runs plus the total, each with q1 <= median <= q3 for wall seconds and
    peak MB, and `repeat` raw runs of every stage."""
    names = [name for name, _, _ in bs.stage_runs({})]
    files = sorted(TOOLS.parent.glob("BENCH_*.json"))
    assert files
    for path in files:
        out = json.loads(path.read_text())
        assert list(out["stages"]) == [*names, "total"], path.name
        for stage, usage in out["stages"].items():
            for measure in ("wall_s", "peak_mb"):
                q = usage[measure]
                assert q["q1"] <= q["median"] <= q["q3"], (path.name, stage, measure)
        assert out["repeat"] >= 3 and len(out["runs"]) == out["repeat"], path.name
        assert all(list(run) == names for run in out["runs"]), path.name
