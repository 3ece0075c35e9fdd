"""Stage bench: run every CLI stage of one or more source trees several
times on a config and write each tree's wall seconds and peak RSS per
stage, summarized, to a JSON file of its own.

    python3 tools/bench.py --config CFG --repeat K --out BENCH_<n>.json [--src TREE]
    python3 tools/bench.py --config CFG --repeat K --src OLD --out old.json \
        --src NEW --out new.json

TREE is a checkout (holding src/riskgate) or a directory holding the
riskgate package; without --src it is the checkout holding this file.
Give one --out per --src, in the same order. Each of the K >= 3 repeats
runs `byte_sweep.run_tree` once per tree, each in a fresh working
directory of a temporary directory that is removed afterwards: the seven
build stages, then evaluate and report in each of the four modes, each
stage in a fresh `python3 -m riskgate.cli` process. The trees run in the
given order in the first repeat and in the reverse order in the next, and
so on, so that a drift of the host's speed falls on every tree alike and
a comparison of two trees is one bench, not two in sequence. A stage's
wall seconds count the whole process, start-up included, and its peak
RSS is the process's own `ru_maxrss`.

Five repeats on a 2-vCPU host cannot tell a change of 10% or less in one
stage's wall time from host noise, even alternating: in two back-to-back
benches of the same two trees, different stages sat above the older
tree's third quartile. To compare one stage, time alternating pairs of
fresh processes of that stage alone on the same artifacts, the old tree
first in one pair and the new tree first in the next.

Each tree's output holds, per stage in run order and then for the total (a
repeat's summed wall seconds and largest stage peak), the first quartile,
median and third quartile of wall seconds and of peak MB over the repeats;
every repeat's raw values; and the facts of the host and the source:
`nproc`, the Python and numpy versions, the BLAS numpy was built with
(from `np.show_config()`), any BLAS thread variables set, the tree's git
commit (`git describe --dirty`, null outside git) and a sha256 of its
`riskgate/*.py`; and the config's path and sha256. A config's artifact
paths must be relative, so that each run writes into its own working
directory. It exits 0 once every file is written, and 2, writing none,
when a stage fails or the input is bad.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

import byte_sweep as bs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(runs: list) -> dict:
    """The quartiles of wall seconds and of peak MB over runs (each
    `run_tree`'s usage) per stage, in the first run's order, then for the
    total."""
    rows = {name: [run[name] for run in runs] for name in runs[0]}
    rows["total"] = [bs.usage_total(run) for run in runs]
    return {name: {"wall_s": quartiles([s for s, _ in usage]),
                   "peak_mb": quartiles([mb for _, mb in usage])}
            for name, usage in rows.items()}


def source_facts(src: str) -> dict:
    """The git commit of the tree at src and a sha256 of its package."""
    try:
        res = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=src, capture_output=True, text=True, timeout=30)
        git = res.stdout.strip() if res.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git = None
    h = hashlib.sha256()
    pkg = os.path.join(src, "riskgate")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return {"git": git, "source_sha256": h.hexdigest()}


def host_facts() -> dict:
    # numpy is imported only after every stage has run: a stage's peak RSS
    # counts this process's pages until the stage execs
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {k: v for k, v in blas.items()
                     if k in ("name", "version", "openblas configuration")},
            "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ}}


def run_alternating(srcs: list, work: str, cfg: dict, repeat: int) -> list:
    """Each tree's `run_tree` usages over repeat repeats, by tree: every
    repeat runs each tree once, in the order of srcs in even repeats and
    in the reverse order in odd ones."""
    runs = [[] for _ in srcs]
    for k in range(repeat):
        order = range(len(srcs)) if k % 2 == 0 else reversed(range(len(srcs)))
        for i in order:
            runs[i].append(bs.run_tree(srcs[i], os.path.join(work, f"tree{i}", f"repeat{k}"),
                                       cfg))
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, help="the JSON config every repeat runs")
    parser.add_argument("--repeat", type=int, default=3, help="number of repeats, >= 3")
    parser.add_argument("--out", required=True, action="append",
                        help="the JSON file to write; one per --src, in the same order")
    parser.add_argument("--src", action="append",
                        help="a tree to run; give it again for more (default: this checkout)")
    args = parser.parse_args(argv)
    trees = args.src or [ROOT]
    if args.repeat < 3:
        print(f"bench: --repeat must be >= 3 for quartiles, got {args.repeat}",
              file=sys.stderr)
        return 2
    if len(args.out) != len(trees) or len(set(args.out)) != len(args.out):
        print(f"bench: give one distinct --out per tree, got {len(args.out)} for "
              f"{len(trees)} trees", file=sys.stderr)
        return 2
    with open(args.config) as f:
        cfg = json.load(f)
    for key in bs.absolute_paths(cfg):
        print(f"bench: {args.config}: {key} must be a relative path", file=sys.stderr)
        return 2
    try:
        srcs = [bs.source_dir(tree) for tree in trees]
        with tempfile.TemporaryDirectory(prefix="bench_") as work:
            runs = run_alternating(srcs, work, cfg, args.repeat)
    except bs.SweepError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    with open(args.config, "rb") as f:
        config_sha256 = hashlib.sha256(f.read()).hexdigest()
    host = host_facts()
    for src, tree_runs, out in zip(srcs, runs, args.out):
        result = {
            "config": args.config, "config_sha256": config_sha256, "repeat": args.repeat,
            "host": host, "source": source_facts(src), "stages": summarize(tree_runs),
            "runs": [{name: [round(s, 4), round(mb, 2)] for name, (s, mb) in run.items()}
                     for run in tree_runs],
        }
        with open(out, "w") as f:
            json.dump(result, f, indent=2)
            f.write("\n")
        print(f"bench: wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
