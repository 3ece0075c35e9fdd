"""Byte-identity sweep: run every CLI stage of two source trees on one
config and diff everything they write.

    python3 tools/byte_sweep.py OLD_SRC NEW_SRC --config CFG [--work DIR]

OLD_SRC and NEW_SRC are checkouts (holding src/riskgate) or directories
holding the riskgate package. For each tree, in a working directory of its
own under DIR (a new temporary directory by default, kept afterwards), the
sweep runs gen-data, train-estimator, calibrate, roc-tune, train-policy,
finetune-policy and post-train, then evaluate in each of the four modes and
that mode's report, each stage in a fresh `python3 -m riskgate.cli`
process. Each mode writes its logs and report to paths of its own
(logs_<mode>, report_<mode>.json). Every stage's stdout and stderr are
kept as files beside the artifacts, and its wall seconds (the whole
process, start-up included) are printed as it ends and, for both trees,
in a table after the diff.

Then every file of the two working directories is compared. Files whose
bytes differ are compared again with the wall-clock fields stripped: the
value of every `"latency_us"` key (episode-log steps) and the object of
every `"latency"` key (a report's estimator.latency). The sweep prints the
number of files and which differ, and exits 0 when none differs, 1 when
some do, and 2 when a stage fails (a non-zero exit) or the input is bad.
The config's artifact paths must be relative, so that each tree writes
into its own working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time

MODES = ("ungated", "gated", "gated+refine", "gated+finetuned")
STAGES = ("gen-data", "train-estimator", "calibrate", "roc-tune", "train-policy",
          "finetune-policy", "post-train")
# config keys that name the artifacts a run writes
PATH_KEYS = (("datagen", "out_dir"), ("estimator", "checkpoint_path"),
             ("estimator", "posttrained_path"), ("estimator", "heldout_path"),
             ("gate", "thresholds_path"), ("policy", "checkpoint_path"),
             ("policy", "finetuned_path"), ("eval", "logs_dir"), ("eval", "report_path"))


class SweepError(Exception):
    """A stage that failed, or a tree without the package."""


_LATENCY_US = re.compile(rb'"latency_us": [-+0-9.eE]+')
_LATENCY = re.compile(rb'"latency": \{')


def strip_timing(data: bytes) -> bytes:
    """data with each `"latency_us"` value and each `"latency"` object
    replaced by `_`; everything else is left byte for byte."""
    data = _LATENCY_US.sub(b'"latency_us": _', data)
    out, pos = [], 0
    for m in _LATENCY.finditer(data):
        depth, i = 0, m.end() - 1
        while i < len(data):
            depth += {ord("{"): 1, ord("}"): -1}.get(data[i], 0)
            i += 1
            if depth == 0:
                break
        out += [data[pos:m.start()], b'"latency": _']
        pos = i
    out.append(data[pos:])
    return b"".join(out)


def tree_files(root) -> set:
    """The paths of every file under root, relative to it."""
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def compare_trees(old, new) -> tuple[list, int]:
    """(the relative paths that differ, the number of files whose raw
    bytes differ) over the files of both trees: a file differs when one
    tree lacks it or its bytes differ after `strip_timing`."""
    differ, raw = [], 0
    for rel in sorted(tree_files(old) | tree_files(new)):
        a, b = os.path.join(old, rel), os.path.join(new, rel)
        if not (os.path.isfile(a) and os.path.isfile(b)):
            differ.append(rel)
            continue
        with open(a, "rb") as fa, open(b, "rb") as fb:
            da, db = fa.read(), fb.read()
        if da != db:
            raw += 1
            if strip_timing(da) != strip_timing(db):
                differ.append(rel)
    return differ, raw


def source_dir(tree: str) -> str:
    """The directory to put on PYTHONPATH for a tree."""
    for cand in (os.path.join(tree, "src"), tree):
        if os.path.isfile(os.path.join(cand, "riskgate", "cli.py")):
            return os.path.abspath(cand)
    raise SweepError(f"no riskgate package in {tree} or {tree}/src")


def stage_runs(cfg: dict) -> list:
    """(name, argv, config) of every stage the sweep runs, in order."""
    runs = [(stage, [stage], cfg) for stage in STAGES]
    for mode in MODES:
        tag = mode.replace("+", "_")
        mode_cfg = dict(cfg, eval=dict(cfg.get("eval", {}), logs_dir=f"logs_{tag}",
                                       report_path=f"report_{tag}.json"))
        runs += [(f"evaluate_{tag}", ["evaluate", "--mode", mode], mode_cfg),
                 (f"report_{tag}", ["report"], mode_cfg)]
    return runs


def run_tree(src: str, workdir: str, cfg: dict) -> dict:
    """Run every stage of `stage_runs` on the tree at src in workdir, each
    in a fresh process; returns each stage's wall seconds by name, and
    raises SweepError at the first stage that fails."""
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src)
    seconds = {}
    for k, (name, argv, stage_cfg) in enumerate(stage_runs(cfg)):
        cfg_path = os.path.join(workdir, f"cfg_{name}.json")
        with open(cfg_path, "w") as f:
            json.dump(stage_cfg, f, indent=2)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "riskgate.cli", *argv, "--config", cfg_path],
                              cwd=workdir, env=env, capture_output=True)
        seconds[name] = time.perf_counter() - t0
        for stream, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            with open(os.path.join(workdir, "out", f"{k:02d}_{name}.{stream}"), "wb") as f:
                f.write(data)
        print(f"{workdir}: {name} exit {proc.returncode} in {seconds[name]:.2f} s", flush=True)
        if proc.returncode:
            raise SweepError(f"{name} exited {proc.returncode} in {workdir}:\n"
                             f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return seconds


def timing_table(old: dict, new: dict) -> str:
    """One line per stage of old, in its order, then the total: wall
    seconds of each tree and their ratio new/old."""
    rows = [*old.items(), ("total", sum(old.values()))]
    new = {**new, "total": sum(new.values())}
    width = max(len(name) for name, _ in rows)
    lines = [f"{'stage':<{width}}  {'old s':>8}  {'new s':>8}  {'new/old':>7}"]
    lines += [f"{name:<{width}}  {s:8.2f}  {new[name]:8.2f}  {new[name] / s:7.3f}"
              for name, s in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--config", required=True, help="the JSON config both trees run")
    parser.add_argument("--work", default=None, help="directory for both trees' runs")
    args = parser.parse_args(argv)
    with open(args.config) as f:
        cfg = json.load(f)
    for section, key in PATH_KEYS:
        if os.path.isabs(str(cfg.get(section, {}).get(key, ""))):
            print(f"byte_sweep: {section}.{key} must be a relative path", file=sys.stderr)
            return 2
    work = args.work or tempfile.mkdtemp(prefix="byte_sweep_")
    sides = {"old": os.path.join(work, "old"), "new": os.path.join(work, "new")}
    try:
        srcs = {"old": source_dir(args.old_src), "new": source_dir(args.new_src)}
        seconds = {side: run_tree(srcs[side], sides[side], cfg) for side in sides}
    except SweepError as e:
        print(f"byte_sweep: {e}", file=sys.stderr)
        return 2
    differ, raw = compare_trees(sides["old"], sides["new"])
    files = len(tree_files(sides["old"]) | tree_files(sides["new"]))
    print(f"{files} files in {work}: {raw} differ in bytes, {len(differ)} after stripping "
          f"latency_us and latency")
    for rel in differ:
        print(f"differs: {rel}")
    print(timing_table(seconds["old"], seconds["new"]))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
