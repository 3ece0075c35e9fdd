"""Command-line entry points for the full pipeline.

Subcommands: gen-data, train-estimator, calibrate, roc-tune, train-policy,
finetune-policy, post-train, run, evaluate, report. Every command takes
--config and an optional --seed override. Exit codes: 0 success, 1 config
error, 2 runtime error, 3 failed --assert threshold in evaluate.

Datasets (train-estimator, calibrate, roc-tune) and rollout records
(train-policy, finetune-policy, post-train) stay columns.
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
    """(the generated files' samples as one SampleColumns, one training
    batch per horizon, the held-out rows): per file, a seeded share of its
    rows, in line order, is held out and the rest, in the permutation's
    order, is its horizon's phase.

    gen-data deals each task's episodes to the horizons in turn, so with
    fewer episodes per task than horizons some files hold no samples; that
    is a config error here, not in gen-data, which a one-episode warm-up
    may run. So is a file whose held-out share leaves its phase empty."""
    d = cfg.datagen
    if d.episodes_per_task < len(d.horizons):
        raise cf.ConfigError(
            f"datagen.episodes_per_task must be >= the number of datagen.horizons "
            f"({len(d.horizons)}) to train on every horizon, got {d.episodes_per_task}")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 31]))
    paths = [dg.dataset_path(d.out_dir, h) for h in sorted(d.horizons)]
    parts = [dg.read_dataset(path).columns for path in paths]
    columns = dg.SampleColumns.concat(parts)
    train_phases, held = [], []
    for path, part, start in zip(paths, parts, np.cumsum([0] + [len(p.H) for p in parts])):
        order = start + rng.permutation(len(part.H))
        n_held = max(1, int(round(cfg.estimator.heldout_frac * len(part.H))))
        if n_held >= len(part.H):
            raise cf.ConfigError(f"estimator.heldout_frac {cfg.estimator.heldout_frac} holds out "
                                 f"all {len(part.H)} samples of {path}, leaving none to train on")
        held.append(np.sort(order[:n_held]))
        train_phases.append(columns.batch(order[n_held:]))
    return columns, train_phases, np.concatenate(held)


def _cmd_train_estimator(cfg: cf.RunConfig, args) -> None:
    columns, train_phases, held_rows = _split_phases(cfg)
    params = est.train(train_phases, cfg.estimator_train_config())
    train_samples = int(sum(len(b) for b in train_phases))
    del train_phases  # the read and split above are the stage's peak
    params.config_digest = dg.config_digest(cfg.datagen_config())
    est.save_params(params, cfg.estimator.checkpoint_path)
    header = dg.make_header(sorted(set(columns.H[held_rows].tolist())),
                            columns.y_bin[held_rows], cfg.seed, params.config_digest)
    dg.write_dataset(cfg.estimator.heldout_path, header, columns, held_rows)
    held = columns.batch(held_rows)
    risks = est.risk_batch(params, held)
    _emit({
        "checkpoint": cfg.estimator.checkpoint_path,
        "heldout": cfg.estimator.heldout_path,
        "train_samples": train_samples,
        "heldout_samples": len(held),
        "heldout_auc": mt.auc_trapezoid(risks, held.y_bin),
        "param_count": params.count(),
    })


def _cmd_calibrate(cfg: cf.RunConfig, args) -> None:
    params = est.load_params(cfg.estimator.checkpoint_path)
    held = dg.read_dataset(cfg.estimator.heldout_path).columns.batch()
    logit, y = est.logit_batch(params, held), held.y_bin
    params.temperature = est.calibrate_temperature(logit, y)
    est.save_params(params, cfg.estimator.checkpoint_path)
    _emit({
        "temperature": params.temperature,
        "nll_t1": est.heldout_nll(logit, y, 1.0),
        "nll_calibrated": est.heldout_nll(logit, y, params.temperature),
        "ece_before": mt.compute_calibration(est.calibrated_risk(logit, 1.0), y).ece,
        "ece_after": mt.compute_calibration(est.calibrated_risk(logit, params.temperature),
                                            y).ece,
    })


def _cmd_roc_tune(cfg: cf.RunConfig, args) -> None:
    if not cfg.gate.thresholds_path:
        raise cf.ConfigError("gate.thresholds_path must be set for roc-tune")
    params = est.load_params(cfg.estimator.checkpoint_path)
    held = dg.read_dataset(cfg.estimator.heldout_path).columns.batch()
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
                     streams=None) -> pol.Records:
    """Records of `episodes` episodes per task of the grid `tag` names, in
    (task, episode, step) order; streams, when given, makes the jobs'
    streams."""
    jobs = [(tid, hn.episode_seed(cfg.seed, tid, i, tag=tag))
            for tid in cfg.tasks.ids for i in range(episodes)]
    return hn.run_episodes(setup, jobs, streams and streams(jobs), record=True)[1]


def _demonstrations(cfg: cf.RunConfig) -> pol.Records:
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
    d_safe, risk = pol.safety_filter_dataset(pol.Records.concat([demos, records]), est_params,
                                             gate_cfg.tau_down)
    tuned = pol.risk_weighted_finetune(params, d_safe, risk, cfg.policy_train_config(),
                                       kappa=cfg.policy.kappa)
    pol.save_policy(tuned, cfg.policy.finetuned_path)
    _emit({"checkpoint": cfg.policy.finetuned_path, "kept": len(d_safe),
           "demos": len(demos), "rollout_records": len(records),
           "corrected": int(records.corrected.sum()),
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
