"""Record the expected outputs of every workload at every program seed.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json, which the benchmark's output checks read:
per-horizon sample/positive counts and label totals (datagen), the
roc-tune AUC (train), and per-task episode outcomes (closed_loop). Run it
only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, run.SRC)
import workloads as wk  # noqa: E402


def reference_entry(name: str, res) -> dict:
    if name == "datagen":
        return {"counts": res.mix["counts"], "labels": res.mix["labels"]}
    if name == "train":
        return {"auc": res.mix["auc"]}
    return {"per_task": res.mix["per_task"]}


def main() -> int:
    ref = {}
    for name in wk.WORKLOADS:
        wl = wk.WORKLOADS[name]()
        wdir = os.path.join(run.WORK_ROOT, f"reference-{name}")
        shutil.rmtree(wdir, ignore_errors=True)
        try:
            if any(r.code != 0 for r in wl.setup(wdir)):
                print(f"{name}: set-up failed", file=sys.stderr)
                return 2
            table = {}
            for seed in range(wk.PROGRAM_SEEDS):
                res = wl.run_pass(wdir, seed)
                bad = [f"{op.name}: {r}" for op in res.ops for r in op.reasons]
                if bad:
                    print(f"{name} seed {seed}: {bad[:3]}", file=sys.stderr)
                    return 2
                table[str(seed)] = reference_entry(name, res)
                print(name, seed, json.dumps(table[str(seed)], sort_keys=True), flush=True)
        finally:
            shutil.rmtree(wdir, ignore_errors=True)
        ref[name] = table
    with open(wk.REFERENCE_PATH, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
