"""Labeled (state, plan) dataset generation and line-delimited persistence.

All expert episodes of a run advance in lockstep, as one batch of states;
at every step each live episode's nominal plan plus Gaussian-jittered
candidates are labeled by simulating them with the exact collision
checker, all episodes' candidates in one oracle pass. Each episode keeps
its own random streams and its samples, so the files are those of running
the episodes one at a time. Files are JSONL: one header object, then one
object per sample, partitioned by curriculum horizon.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import estimator as est
from . import policy as pol
from . import world as wd

FORMAT_VERSION = 1
# Episodes advanced together. The oracle's temporaries grow with the rows
# of one lockstep step (episodes x candidates x horizon); 64 episodes keep
# gen-data's peak memory near that of one episode at a time and lose
# little speed to a single batch of every episode.
LOCKSTEP_EPISODES = 64


@dataclass(frozen=True)
class Sample:
    proprio: np.ndarray
    z: np.ndarray
    plan: np.ndarray  # (H, 4)
    H: int
    label: wd.RolloutOutcome
    meta: tuple  # (task_id, episode seed, step index)

    def __post_init__(self):
        plan = np.asarray(self.plan, dtype=float).reshape(self.H, 4)
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "proprio", np.asarray(self.proprio, dtype=float))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        for arr in (self.proprio, self.z, self.plan):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite sample field")


@dataclass
class DatasetHeader:
    format_version: int
    horizons: list
    dims: dict
    counts: dict  # {"samples": int, "positives": int}
    seed: int
    config_digest: str


@dataclass
class Dataset:
    header: DatasetHeader
    samples: list


@dataclass(frozen=True)
class DatagenConfig:
    tasks: tuple = wd.TASK_IDS
    episodes_per_task: int = 200
    n_candidates: int = 8
    sigma_a: float = 0.01
    horizons: tuple = (2, 3, 5)
    d_thresh: float = 0.05
    oversample_factor: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if self.oversample_factor < 1:
            raise ValueError("oversample_factor must be >= 1")
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise ValueError("horizons must be a non-empty list of ints >= 1")
        if self.episodes_per_task < 1:
            raise ValueError(f"episodes_per_task must be >= 1, got {self.episodes_per_task}")
        if not self.sigma_a >= 0:
            raise ValueError(f"sigma_a must be >= 0, got {self.sigma_a}")
        if not self.tasks:
            raise ValueError("tasks must name at least one task")
        for t in self.tasks:
            if t not in wd.TASK_IDS:
                raise ValueError(f"unknown task id {t!r}")


def config_digest(cfg: DatagenConfig) -> str:
    """sha256 of the canonical JSON form of the generation config."""
    payload = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def sample_candidates(nominal: np.ndarray, n: int, sigma_a: float,
                      rng: np.random.Generator, a_max: float) -> np.ndarray:
    """(n, H, 4) candidates: the (H, 4) nominal plan in row 0, then n-1
    Gaussian-jittered variants clipped to the box."""
    if n < 1:
        raise ValueError("need n >= 1")
    noise = rng.normal(0.0, sigma_a, size=(n - 1, *nominal.shape))
    return np.concatenate([nominal[None], np.clip(nominal + noise, -a_max, a_max)])


def _lockstep_samples(episodes, gen_cfg: DatagenConfig, world_cfg: wd.WorldConfig,
                      task_params: wd.TaskParams) -> list:
    """All candidate samples along each expert episode, one list per
    (task_id, ep_seed, horizon) in episodes.

    The live episodes form one batched state. Each step makes one expert
    call, run to the longest live horizon, and one oracle pass over every
    episode's candidates, each row padded to that horizon and labeled over
    its own. The expert's first predicted step is the executed step, and
    the oracle's first-step clearance of candidate 0, the nominal plan, is
    the clearance of the executed state. An episode drops out at collision
    or success.

    Two independent streams per episode: feature noise and candidate jitter.
    Keeping them separate means the executed trajectory (expert, nominal
    actions) does not depend on how many candidates are drawn.
    """
    inits = [wd.task_init(tid, seed, world_cfg, task_params) for tid, seed, _ in episodes]
    state = wd.stack_states([s for s, _ in inits])
    task = wd.stack_tasks([t for _, t in inits])
    streams = [[np.random.default_rng(np.random.SeedSequence(
                    [gen_cfg.seed, wd.task_index(tid), seed, k])) for k in (1, 2)]
               for tid, seed, _ in episodes]
    horizons = np.array([h for _, _, h in episodes])
    n = gen_cfg.n_candidates
    samples = [[] for _ in episodes]
    live = np.arange(len(episodes))
    for step_idx in range(task_params.max_steps):
        h_live = horizons[live]
        h_max = int(h_live.max())
        nominal, state_next = pol.scripted_expert(state, task, h_max, world_cfg)
        proprio = wd.proprio_feature(state)
        z = wd.scene_feature(state, task, world_cfg.noise_sigma, [streams[i][0] for i in live])
        plans = np.zeros((len(live), n, h_max, 4))
        cands = []
        for j, (i, h) in enumerate(zip(live, h_live)):
            cands.append(sample_candidates(nominal[j, :h], n, gen_cfg.sigma_a,
                                           streams[i][1], world_cfg.a_max))
            plans[j, :, :h] = cands[-1]
        d = wd.rollout_clearance(wd.take(state, np.repeat(np.arange(len(live)), n)),
                                 plans.reshape(-1, h_max, 4), world_cfg)
        labels = wd.label_rollouts(d, world_cfg.dt, np.repeat(h_live, n))
        for j, (i, h) in enumerate(zip(live, h_live)):
            p_j, z_j, meta = proprio[j], z[j], (episodes[i][0], int(episodes[i][1]), step_idx)
            samples[i].extend(
                Sample(proprio=p_j, z=z_j, plan=cand, H=int(h), label=label, meta=meta)
                for cand, label in zip(cands[j], labels[j * n:(j + 1) * n]))
        done = (d[0, ::n] < 0.0) | wd.success_check(state_next, task)
        if done.all():
            break
        state = state_next
        if done.any():
            live, state, task = live[~done], wd.take(state, ~done), wd.take(task, ~done)
    return samples


def generate_dataset(gen_cfg: DatagenConfig, world_cfg: wd.WorldConfig, out_dir,
                     task_params: wd.TaskParams = wd.TaskParams()) -> tuple[dict, dict]:
    """Write one JSONL file per curriculum horizon; returns ({H: path},
    {H: header counts}), the counts as written, after oversampling.

    Episodes are assigned to horizons round-robin, giving each phase an
    equal share. Every stage is seeded from (seed, task, episode), so the
    same config writes byte-identical files.
    """
    digest = config_digest(gen_cfg)
    n_phases = len(gen_cfg.horizons)
    episodes = []
    for task_id in gen_cfg.tasks:
        tidx = wd.task_index(task_id)
        for ep in range(gen_cfg.episodes_per_task):
            ep_seed = int(np.random.SeedSequence([gen_cfg.seed, tidx, ep]).generate_state(1)[0])
            episodes.append((task_id, ep_seed, gen_cfg.horizons[ep % n_phases]))
    by_h = {h: [] for h in gen_cfg.horizons}
    for lo in range(0, len(episodes), LOCKSTEP_EPISODES):
        group = episodes[lo:lo + LOCKSTEP_EPISODES]
        for (_, _, horizon), samples in zip(group, _lockstep_samples(
                group, gen_cfg, world_cfg, task_params)):
            by_h[horizon].extend(samples)

    os.makedirs(out_dir, exist_ok=True)
    paths, counts = {}, {}
    for h in gen_cfg.horizons:
        samples = by_h[h]
        dataset = Dataset(header=make_header([h], samples, gen_cfg.seed, digest),
                          samples=samples)
        dataset = oversample_near_miss(dataset, gen_cfg.d_thresh, gen_cfg.oversample_factor)
        path = os.path.join(out_dir, f"risk_H{h}.jsonl")
        write_dataset(path, dataset)
        paths[h], counts[h] = path, dataset.header.counts
    return paths, counts


def make_header(horizons, samples, seed, digest) -> DatasetHeader:
    """Header of a dataset file holding these samples."""
    return DatasetHeader(
        format_version=FORMAT_VERSION,
        horizons=list(horizons),
        dims={"proprio": est.PROPRIO_DIM, "z": est.VISION_DIM, "action": est.ACTION_DIM},
        counts={"samples": len(samples),
                "positives": int(sum(s.label.y_bin for s in samples))},
        seed=int(seed),
        config_digest=digest,
    )


def oversample_near_miss(dataset: Dataset, d_thresh: float, factor: int) -> Dataset:
    """Duplicate near-miss samples (y_d below threshold) factor-1 extra
    times, then reshuffle with the dataset seed. Collisions have negative
    y_d, so every positive is duplicated too; the positive fraction never
    drops."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    samples = list(dataset.samples)
    if factor > 1:
        extra = []
        for s in samples:
            if s.label.y_d < d_thresh:
                extra.extend([s] * (factor - 1))
        samples = samples + extra
        rng = np.random.default_rng(np.random.SeedSequence([dataset.header.seed, 3]))
        order = rng.permutation(len(samples))
        samples = [samples[i] for i in order]
    header = replace(dataset.header,
                     counts={"samples": len(samples),
                             "positives": int(sum(s.label.y_bin for s in samples))})
    return Dataset(header=header, samples=samples)


def _sample_to_obj(s: Sample) -> dict:
    return {
        "proprio": s.proprio.tolist(),
        "z": s.z.tolist(),
        "plan": s.plan.ravel().tolist(),
        "H": int(s.H),
        "y_bin": int(s.label.y_bin),
        "y_d": float(s.label.y_d),
        "y_ttc": float(s.label.y_ttc),
        "meta": list(s.meta),
    }


def _sample_from_obj(obj: dict) -> Sample:
    return Sample(
        proprio=np.array(obj["proprio"], dtype=float),
        z=np.array(obj["z"], dtype=float),
        plan=np.array(obj["plan"], dtype=float).reshape(int(obj["H"]), 4),
        H=int(obj["H"]),
        label=wd.RolloutOutcome(y_bin=int(obj["y_bin"]), y_d=float(obj["y_d"]),
                                y_ttc=float(obj["y_ttc"])),
        meta=(str(obj["meta"][0]), int(obj["meta"][1]), int(obj["meta"][2])),
    )


def write_dataset(path, dataset: Dataset) -> None:
    header = dataset.header
    if header.counts["samples"] != len(dataset.samples):
        raise ValueError("header sample count disagrees with body")
    with open(path, "w") as f:
        f.write(json.dumps(asdict(header), sort_keys=True) + "\n")
        for s in dataset.samples:
            f.write(json.dumps(_sample_to_obj(s), sort_keys=True) + "\n")


def read_dataset(path) -> Dataset:
    """Parse and validate a dataset file; raises ValueError on a version
    mismatch, a malformed line, or a header/body count disagreement."""
    with open(path) as f:
        first = f.readline()
        if not first.strip():
            raise ValueError("empty dataset file")
        try:
            head_obj = json.loads(first)
        except json.JSONDecodeError as e:
            raise ValueError(f"malformed header: {e}") from e
        if head_obj.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported dataset version {head_obj.get('format_version')!r}")
        header = DatasetHeader(
            format_version=int(head_obj["format_version"]),
            horizons=list(head_obj["horizons"]), dims=dict(head_obj["dims"]),
            counts=dict(head_obj["counts"]), seed=int(head_obj["seed"]),
            config_digest=str(head_obj["config_digest"]),
        )
        samples = []
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                samples.append(_sample_from_obj(json.loads(line)))
            except (json.JSONDecodeError, KeyError, ValueError, IndexError) as e:
                raise ValueError(f"malformed sample at line {lineno}: {e}") from e
    if header.counts["samples"] != len(samples):
        raise ValueError(
            f"header declares {header.counts['samples']} samples, body has {len(samples)}")
    return Dataset(header=header, samples=samples)
