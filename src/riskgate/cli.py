"""Command-line entry points for the full pipeline.

Subcommands: gen-data, train-estimator, calibrate, roc-tune, train-policy,
finetune-policy, post-train, run, evaluate, report. Every command takes
--config and an optional --seed override. Exit codes: 0 success, 1 config
error, 2 runtime error, 3 failed --assert threshold in evaluate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import config as cf
from . import datasetgen as dg
from . import estimator as est
from . import harness as hn
from . import metrics as mt
from . import policy as pol
from . import world as wd


class AssertFailure(Exception):
    """An evaluate --assert threshold was not met."""


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_gen_data(cfg: cf.RunConfig, args) -> None:
    paths, counts = dg.generate_dataset(cfg.datagen_config(), cfg.world_config(),
                                        cfg.datagen.out_dir, cfg.task_params())
    _emit({"files": {str(h): p for h, p in paths.items()},
           "counts": {str(h): c for h, c in counts.items()}})


def _split_phases(cfg: cf.RunConfig):
    """Per-phase train/held-out batches from the generated files.

    gen-data deals each task's episodes to the horizons in turn, so with
    fewer episodes per task than horizons some files hold no samples; that
    is a config error here, not in gen-data, which a one-episode warm-up
    may run."""
    d = cfg.datagen
    if d.episodes_per_task < len(d.horizons):
        raise cf.ConfigError(
            f"datagen.episodes_per_task must be >= the number of datagen.horizons "
            f"({len(d.horizons)}) to train on every horizon, got {d.episodes_per_task}")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 31]))
    train_phases, held_samples = [], []
    for h in sorted(d.horizons):
        ds = dg.read_dataset(dg.dataset_path(d.out_dir, h))
        n = len(ds.samples)
        order = rng.permutation(n)
        n_held = max(1, int(round(cfg.estimator.heldout_frac * n)))
        held_samples.extend(ds.samples[i] for i in np.sort(order[:n_held]))
        train = [ds.samples[i] for i in order[n_held:]]
        train_phases.append(est.stack_batch(train))
    return train_phases, held_samples


def _write_heldout(cfg: cf.RunConfig, held_samples) -> None:
    held = dg.SampleColumns.of(held_samples)
    header = dg.make_header(np.unique(held.H).tolist(), held.y_bin, cfg.seed,
                            dg.config_digest(cfg.datagen_config()))
    dg.write_dataset(cfg.estimator.heldout_path, header, held)


def _load_heldout(cfg: cf.RunConfig) -> est.SampleBatch:
    ds = dg.read_dataset(cfg.estimator.heldout_path)
    return est.stack_batch(ds.samples)


def _cmd_train_estimator(cfg: cf.RunConfig, args) -> None:
    train_phases, held_samples = _split_phases(cfg)
    params = est.train(train_phases, cfg.estimator_train_config())
    params.config_digest = dg.config_digest(cfg.datagen_config())
    est.save_params(params, cfg.estimator.checkpoint_path)
    _write_heldout(cfg, held_samples)
    held = est.stack_batch(held_samples)
    risks = est.risk_batch(params, held)
    _emit({
        "checkpoint": cfg.estimator.checkpoint_path,
        "heldout": cfg.estimator.heldout_path,
        "train_samples": int(sum(len(b) for b in train_phases)),
        "heldout_samples": len(held),
        "heldout_auc": mt.auc_trapezoid(risks, held.y_bin),
        "param_count": params.count(),
    })


def _cmd_calibrate(cfg: cf.RunConfig, args) -> None:
    params = est.load_params(cfg.estimator.checkpoint_path)
    held = _load_heldout(cfg)
    nll_before = est.heldout_nll(params, held, 1.0)
    ece_before = mt.compute_calibration(
        est.risk_batch(replace(params, temperature=1.0), held), held.y_bin).ece
    temperature = est.calibrate_temperature(params, held)
    est.save_params(params, cfg.estimator.checkpoint_path)
    risks = est.risk_batch(params, held)
    _emit({
        "temperature": temperature,
        "nll_t1": nll_before,
        "nll_calibrated": est.heldout_nll(params, held, temperature),
        "ece_before": ece_before,
        "ece_after": mt.compute_calibration(risks, held.y_bin).ece,
    })


def _cmd_roc_tune(cfg: cf.RunConfig, args) -> None:
    if not cfg.gate.thresholds_path:
        raise cf.ConfigError("gate.thresholds_path must be set for roc-tune")
    params = est.load_params(cfg.estimator.checkpoint_path)
    held = _load_heldout(cfg)
    res = mt.roc_tune(params, held, cfg.gate.fn_target)
    payload = {
        "tau_up": res.tau_up, "tau_down": res.tau_down, "auc": res.auc,
        "fn_target": cfg.gate.fn_target, "fnr_at_tau": res.fnr_at_tau,
        "roc": {
            "fpr": res.fpr.tolist(), "tpr": res.tpr.tolist(),
            "thresholds": [t if np.isfinite(t) else None
                           for t in res.thresholds.tolist()],
        },
    }
    with open(cfg.gate.thresholds_path, "w") as f:
        f.write(json.dumps(payload) + "\n")
    _emit({k: payload[k] for k in ("tau_up", "tau_down", "auc", "fnr_at_tau")})


def _episode_records(cfg: cf.RunConfig, setup: hn.EvalSetup, episodes: int, tag: int,
                     streams=None) -> list:
    """Records of `episodes` episodes per task of the grid `tag` names, in
    (task, episode) order; streams, when given, makes the jobs' streams."""
    jobs = [(tid, hn.episode_seed(cfg.seed, tid, i, tag=tag))
            for tid in cfg.tasks.ids for i in range(episodes)]
    collectors = [[] for _ in jobs]
    hn.run_episodes(setup, jobs, collectors, streams and streams(jobs))
    return [rec for records in collectors for rec in records]


def _demonstrations(cfg: cf.RunConfig) -> list:
    """Records of the expert's ungated episodes. Each executes its action
    plus exploration noise while its records keep the expert's own action
    and plan, so cloning sees corrective labels on off-trajectory states
    and stays stable in closed loop."""
    setup = replace(hn.prepare_setup(cfg, "ungated"), explore_noise=cfg.policy.explore_noise)
    return _episode_records(cfg, setup, cfg.policy.demo_episodes_per_task, 301, hn.demo_streams)


def _cmd_train_policy(cfg: cf.RunConfig, args) -> None:
    demos = _demonstrations(cfg)
    params = pol.bc_train(pol.init_policy(cfg.seed, cfg.world.a_max), demos,
                          cfg.policy_train_config())
    pol.save_policy(params, cfg.policy.checkpoint_path)
    _emit({"checkpoint": cfg.policy.checkpoint_path, "demonstrations": len(demos)})


def _cmd_finetune_policy(cfg: cf.RunConfig, args) -> None:
    demos = _demonstrations(cfg)
    est_params = est.load_params(cfg.estimator.checkpoint_path)
    gate_cfg = hn.resolve_gate_config(cfg)
    params = pol.load_policy(cfg.policy.checkpoint_path)
    # Aggregation pass: roll the cloned policy under the gate so blocked
    # steps contribute the recovery action as a corrected cloning target.
    setup = replace(hn.prepare_setup(cfg, "gated"), policy_params=params)
    records = _episode_records(cfg, setup, cfg.policy.rollout_episodes_per_task, 401)
    d_safe = pol.safety_filter_dataset(demos + records, est_params, gate_cfg.tau_down)
    tuned = pol.risk_weighted_finetune(params, d_safe, cfg.policy_train_config(),
                                       kappa=cfg.policy.kappa)
    pol.save_policy(tuned, cfg.policy.finetuned_path)
    _emit({"checkpoint": cfg.policy.finetuned_path, "kept": len(d_safe),
           "demos": len(demos), "rollout_records": len(records),
           "corrected": sum(r.corrected for r in records),
           "tau_down": gate_cfg.tau_down})


def _cmd_post_train(cfg: cf.RunConfig, args) -> None:
    setup = hn.prepare_setup(cfg, "gated")
    if os.path.exists(cfg.policy.checkpoint_path):
        setup = replace(setup, policy_params=pol.load_policy(cfg.policy.checkpoint_path))
    records = _episode_records(cfg, setup, cfg.tasks.episodes_per_task, 501)
    params = pol.post_train_estimator(setup.est_params, records,
                                      cfg.estimator_train_config())
    out = cfg.estimator.posttrained_path or cfg.estimator.checkpoint_path
    est.save_params(params, out)
    _emit({"checkpoint": out, "buffer_records": len(records),
           "temperature": params.temperature})


def _cmd_run(cfg: cf.RunConfig, args) -> None:
    if args.index < 0:
        raise cf.ConfigError(f"--index must be a non-negative integer, got {args.index}")
    setup = hn.prepare_setup(cfg, args.mode)
    seed = hn.episode_seed(cfg.seed, args.task, args.index)
    log = hn.run_episodes(setup, [(args.task, seed)])[0]
    os.makedirs(cfg.eval.logs_dir, exist_ok=True)
    path = hn.episode_log_path(cfg.eval.logs_dir, log)
    hn.write_episode_log(log, path)
    _emit({"log": path, "success": log.success, "collided": log.collided,
           "steps": log.n_steps, "blocked_steps": log.blocked_steps,
           "recoveries": log.recoveries})


def _metric_at(report: dict, dotted: str):
    """The value at a dotted path of the report; AssertFailure when the
    path names no key of it."""
    cur = report
    for part in dotted.split("."):
        if not isinstance(cur, dict) or part not in cur:
            raise AssertFailure(f"unknown metric path {dotted!r}")
        cur = cur[part]
    return cur


def _resolve_metric(report: dict, dotted: str):
    cur = _metric_at(report, dotted)
    if not isinstance(cur, (int, float)) or isinstance(cur, bool):
        raise AssertFailure(f"metric {dotted!r} is not a number")
    return float(cur)


def _parse_asserts(exprs) -> list:
    """(expr, path, op, bound) of each '<dotted.path><=value>' or '>='
    expr; raises ConfigError on a missing operator or a bound that is not a
    finite number."""
    checks = []
    for expr in exprs:
        op = "<=" if "<=" in expr else ">=" if ">=" in expr else None
        if op is None:
            raise cf.ConfigError(f"assert must use <= or >=: {expr!r}")
        path, _, raw = expr.partition(op)
        try:
            bound = float(raw)
        except ValueError:
            bound = math.nan
        if not math.isfinite(bound):
            raise cf.ConfigError(f"assert bound must be a finite number: {expr!r}")
        checks.append((expr, path.strip(), op, bound))
    return checks


def _check_asserts(report: dict, checks) -> list:
    """The exprs of the parsed checks whose metric misses its bound."""
    failures = []
    for expr, path, op, bound in checks:
        value = _resolve_metric(report, path)
        if not (value <= bound if op == "<=" else value >= bound):
            failures.append(expr)
    return failures


def _cmd_evaluate(cfg: cf.RunConfig, args) -> None:
    checks = _parse_asserts(args.assert_exprs)
    if checks:  # an unknown path fails before any episode runs, with no log or report
        shape = hn.report_shape(cfg.tasks.ids, args.mode or cfg.eval.mode)
        for _, path, _, _ in checks:
            _metric_at(shape, path)
    report = hn.evaluate(cfg, args.mode)
    payload = report.to_dict()
    _emit(payload)
    failures = _check_asserts(payload, checks)
    if failures:
        raise AssertFailure("; ".join(failures))


def _cmd_report(cfg: cf.RunConfig, args) -> None:
    report = hn.report_from_logs(cfg)
    payload = report.to_dict()
    with open(cfg.eval.report_path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    _emit(payload)


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train-estimator": _cmd_train_estimator,
    "calibrate": _cmd_calibrate,
    "roc-tune": _cmd_roc_tune,
    "train-policy": _cmd_train_policy,
    "finetune-policy": _cmd_finetune_policy,
    "post-train": _cmd_post_train,
    "run": _cmd_run,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="riskgate",
                                     description="Dual-arm collision-risk gating pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if name in ("run", "evaluate"):
            p.add_argument("--mode", default=None, choices=cf.MODES)
        if name == "run":
            p.add_argument("--task", required=True, choices=wd.TASK_IDS)
            p.add_argument("--index", type=int, default=0,
                           help="episode index within the seed grid")
        if name == "evaluate":
            p.add_argument("--assert", dest="assert_exprs", action="append",
                           default=[], metavar="PATH<=VALUE",
                           help="threshold check on a report metric; exit 3 on failure")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = cf.load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise cf.ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
            cfg.seed = args.seed
        _COMMANDS[args.command](cfg, args)
    except cf.ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except AssertFailure as e:
        print(f"assertion failed: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # runtime failures map to a distinct code
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
