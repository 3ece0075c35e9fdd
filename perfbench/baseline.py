"""Measure a baseline: repeated runs per workload plus two traced runs.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

For every workload in BENCHMARK.json, each of SETS sets runs the benchmark
once per seed 1..RUNS, one run at a time, and records every end-to-end
value with its median, quartiles and spread (quartile distance over median). Two traced runs on
seed 1 give the per-layer table and check that call counts repeat. The
summary goes to --out; each run's full output stays in .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # runs per set, one seed each
SETS = 2


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(context, result) of one benchmark invocation."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args(argv)
    bench = _bench()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out = {"run_seconds": seconds, "runs_per_set": RUNS, "workloads": {}}
    ok = True
    for name in (w["name"] for w in bench["workloads"]):
        entry = {"sets": []}
        for _ in range(SETS):
            values, failed, attempted = {}, 0, 0
            for seed in range(1, RUNS + 1):
                _, res = run_once(name, seed, seconds, 0)
                failed += res["failed"]
                attempted += res["attempted"]
                ok &= res["correct"]
                for k, v in res["metrics"].items():
                    values.setdefault(k, []).append(v["value"])
                print(name, seed, res["correct"], res["failed"],
                      {k: round(v["value"], 4) for k, v in res["metrics"].items()}, flush=True)
            entry["sets"].append({"failed": failed, "attempted": attempted,
                                  "metrics": {k: spread(v) for k, v in values.items()}})
            for k, bound in bounds.items():
                m = entry["sets"][-1]["metrics"][k]
                print(f"{name:12s} {k:12s} median {m['median']:.4f} spread {m['spread']:.3f}"
                      f" (bound {bound})", flush=True)
        traced = [run_once(name, 1, seconds, 1) for _ in range(2)]
        entry["context"] = {k: traced[0][0][k] for k in (
            "git_sha", "source_sha256", "nproc", "python", "numpy", "blas_threads")}
        calls = [{k: v["value"] for k, v in res["metrics"].items() if k.endswith(".calls")}
                 for _, res in traced]
        entry["traced_calls_identical"] = calls[0] == calls[1]
        entry["traced_mix"] = traced[0][0].get("mix")
        entry["per_layer"] = {k: v["value"] for k, v in traced[0][1]["metrics"].items()}
        ok &= all(res["correct"] for _, res in traced) and calls[0] == calls[1]
        out["workloads"][name] = entry
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
