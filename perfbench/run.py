"""riskgate benchmark.

    python3 perfbench/run.py --workload {datagen,train,closed_loop} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's context (source digest, versions, thread pinning, the
workload's mix). ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer table of one traced pass (see README.md).
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy is imported: one thread keeps the
# single-process workloads deterministic and independent of the host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPS = 3  # set-ups per --trace 0 run; setup_s is their median
MIN_PASSES = 2
TRACE_PAIRS = 5  # untraced + traced passes of one seed in a --trace 1 run

# On a shared host the speed of this process drifts by tens of percent within
# a minute, far more than the changes the benchmark must resolve. A fixed
# loop of small-array numpy calls, timed before and after every set-up and pass, follows
# that drift, so end-to-end times are reported in reference seconds: each
# set-up's or pass's measured seconds scaled to the host speed at which the
# loop takes REF_LOOP_S. The measured times stay in the context line.
REF_LOOP_S = 0.005
REF_LOOP_N = 250
REF_SAMPLES = 3

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "units_per_s": "1/s"}


def _git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "riskgate")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


_REF_ANGLES = np.array([0.1, 0.2, 0.3])
_REF_POINTS = np.linspace(-1.0, 1.0, 12).reshape(6, 2)


def _ref_loop() -> float:
    """Fixed small-array numpy work, the same kind the program does."""
    s = 0.0
    for _ in range(REF_LOOP_N):
        ang = 1.0 + np.cumsum(_REF_ANGLES)
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        s += float(np.min(np.einsum("...i,...i", _REF_POINTS, _REF_POINTS))) + float(pts[0, 0])
    return s


def _ref_loop_time() -> float:
    times = []
    for _ in range(REF_SAMPLES):
        t0 = time.perf_counter()
        _ref_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Reference-loop timings taken between the measured intervals of a run."""

    def __init__(self):
        self.samples = []

    def mark(self) -> None:
        """Time the loop just before a measured interval starts."""
        self.samples.append(_ref_loop_time())

    def scale(self) -> float:
        """Time the loop again; reference seconds per measured second over
        the interval since mark(), from the loop times on either side."""
        self.samples.append(_ref_loop_time())
        return 2.0 * REF_LOOP_S / (self.samples[-2] + self.samples[-1])


def _run_passes(wl, wdir, seed: int, seconds: float, host: HostSpeed) -> list:
    """Run passes on successive program seeds until the time budget is
    spent; returns (pass, scale) pairs."""
    import workloads as wk

    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        pseed = wk.program_seed(seed, len(passes))
        host.mark()
        runs = wl.run_stages(wdir, pseed)
        scale = host.scale()
        res = wl.check(wdir, pseed, runs)
        passes.append((res, scale))
        if not all(op.ok for op in res.ops):
            break
    return passes


def measure(workload: str, seed: int, seconds: int, trace: bool, work: str):
    """Run one benchmark invocation; returns (result, context)."""
    import workloads as wk

    wl = wk.WORKLOADS[workload](references=wk.load_references(workload))
    ops = []
    context = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "git_sha": _git_sha(), "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": BLAS_THREADS,
        "reference_checked": wl.references is not None,
        "config_keys_missing": wk.missing_config_keys(wl.cfg),
    }

    host = HostSpeed()
    setups = []  # (seconds, scale)
    wdir = None
    for i in range(1 if trace else SETUP_REPS):
        if wdir is not None:
            shutil.rmtree(wdir, ignore_errors=True)
        wdir = os.path.join(work, f"run{i}")
        host.mark()
        t0 = time.perf_counter()
        runs = wl.setup(wdir)
        setups.append((time.perf_counter() - t0, host.scale()))
        ops += [wk.stage_op(r) for r in runs]
    context["setup_s_each"] = [dt for dt, _ in setups]

    pairs = []
    if all(op.ok for op in ops):
        pairs = _run_passes(wl, wdir, seed, seconds, host)
    passes = [p for p, _ in pairs]
    for p in passes:
        ops += p.ops
    context["passes"] = len(passes)
    context["program_seeds"] = [wk.program_seed(seed, i) for i in range(len(passes))]
    context["ref_loop_ms_each"] = [t * 1000.0 for t in host.samples]
    if passes:
        context["mix"] = passes[0].mix
        context["wall_s_each"] = [p.wall_s for p in passes]

    metrics = {}
    ok = bool(passes) and all(op.ok for op in ops)
    if ok and trace:
        metrics = _traced_pass(wl, wdir, seed, passes, ops, context)
    elif ok:
        rates = [(p.units / p.unit_seconds, k) for p, k in pairs if p.unit_seconds > 0]
        context["measured"] = {
            "setup_s": statistics.median(dt for dt, _ in setups),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "units_per_s": statistics.median(r for r, _ in rates),
        }
        metrics = {
            "setup_s": statistics.median(dt * k for dt, k in setups),
            "wall_s": statistics.median(p.wall_s * k for p, k in pairs),
            "peak_rss_mb": _peak_rss_mb(),
            "units_per_s": statistics.median(r / k for r, k in rates),
        }
    failures = [f"{op.name}: {r}" for op in ops for r in op.reasons]
    context["failures"] = failures[:20]
    if trace:
        import layers
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        units = UNITS
    result = {
        "correct": bool(passes) and not failures and set(metrics) == set(units),
        "attempted": max(1, len(ops)),
        "failed": sum(1 for op in ops if not op.ok) if ops else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, context


def _traced_pass(wl, wdir, seed: int, passes: list, ops: list, context: dict) -> dict:
    """The first pass's stages again, under the tracer; per-layer metrics and
    the tracing overhead. All times here are measured seconds, not reference
    seconds.

    The host's speed drifts within seconds, so the overhead is the median
    over TRACE_PAIRS of an untraced pass followed at once by a traced pass,
    both on the first pass's program seed. The table is the last traced pass's.
    """
    import workloads as wk
    import layers

    pseed = wk.program_seed(seed)
    first = passes[0].fingerprint
    pairs = []  # (untraced wall_s, traced wall_s)
    for _ in range(TRACE_PAIRS):
        plain = wl.check(wdir, pseed, wl.run_stages(wdir, pseed))
        tracer, counts = layers.make_tracer()
        with tracer:
            runs = wl.run_stages(wdir, pseed)
        traced = wl.check(wdir, pseed, runs)
        same = wk.Op("trace-artifacts-identical")
        if traced.fingerprint != first:
            diff = sorted(k for k in set(traced.fingerprint) | set(first)
                          if traced.fingerprint.get(k) != first.get(k))
            same.reasons.append(f"traced artifacts differ from untraced: {diff[:5]}")
        ops += plain.ops + traced.ops + [same]
        pairs.append((plain.wall_s, traced.wall_s))
    context["trace_pairs_s"] = pairs

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}-s{context['seed']}.jsonl")
    tracer.write(spans_path)
    context["spans_file"] = os.path.relpath(spans_path, ROOT)

    out = layers.layer_metrics(tracer, counts)
    for stage in layers.STAGES:
        times = [s.seconds for p in passes for s in p.stages if s.stage == stage]
        out[f"cli.{stage}.s"] = statistics.median(times) if times else 0.0
    lat = [x for p in passes for x in p.latencies_us]
    out["harness.decision_ms.p50"] = _percentile(lat, 50) / 1000.0
    out["harness.decision_ms.p99"] = _percentile(lat, 99) / 1000.0
    out["harness.decisions"] = len(lat)
    out["trace.untraced_wall_s"] = statistics.median(u for u, _ in pairs)
    out["trace.traced_wall_s"] = statistics.median(t for _, t in pairs)
    out["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
    out["trace.spans"] = len(tracer)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("datagen", "train", "closed_loop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "riskgate", "cli.py")):
        print(f"perfbench: no program sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    work = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        result, context = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only when no other run is using it
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump({"context": context, "result": result}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
