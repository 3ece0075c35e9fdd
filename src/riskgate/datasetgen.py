"""Labeled (state, plan) dataset generation and line-delimited persistence.

Expert episodes are replayed step by step; at every step the nominal plan
plus Gaussian-jittered candidates are each labeled by simulating them with
the exact collision checker. Files are JSONL: one header object, then one
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


def _episode_samples(task_id: str, ep_seed: int, horizon: int, gen_cfg: DatagenConfig,
                     world_cfg: wd.WorldConfig, task_params: wd.TaskParams) -> list:
    """All candidate samples along one expert episode.

    Two independent streams per episode: feature noise and candidate jitter.
    Keeping them separate means the executed trajectory (expert, nominal
    actions) does not depend on how many candidates are drawn.
    """
    state, task = wd.task_init(task_id, ep_seed, world_cfg, task_params)
    tidx = wd.task_index(task_id)
    noise_rng = np.random.default_rng(np.random.SeedSequence([gen_cfg.seed, tidx, ep_seed, 1]))
    jitter_rng = np.random.default_rng(np.random.SeedSequence([gen_cfg.seed, tidx, ep_seed, 2]))
    samples = []
    for step_idx in range(task.max_steps):
        nominal = pol.scripted_expert(state, task, horizon, world_cfg)
        candidates = sample_candidates(nominal, gen_cfg.n_candidates, gen_cfg.sigma_a,
                                       jitter_rng, world_cfg.a_max)
        proprio = wd.proprio_feature(state)
        z = wd.scene_feature(state, task, world_cfg.noise_sigma, noise_rng)
        labels = wd.rollout_batch(state, candidates, world_cfg)
        for cand, label in zip(candidates, labels):
            samples.append(Sample(
                proprio=proprio, z=z, plan=cand, H=horizon, label=label,
                meta=(task_id, int(ep_seed), step_idx),
            ))
        state = wd.step(state, nominal[0], world_cfg)
        if wd.min_self_distance(state, world_cfg) < 0.0:
            break
        if wd.success_check(state, task):
            break
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
    by_h = {h: [] for h in gen_cfg.horizons}
    n_phases = len(gen_cfg.horizons)
    for task_id in gen_cfg.tasks:
        tidx = wd.task_index(task_id)
        for ep in range(gen_cfg.episodes_per_task):
            horizon = gen_cfg.horizons[ep % n_phases]
            ep_seed = int(np.random.SeedSequence([gen_cfg.seed, tidx, ep]).generate_state(1)[0])
            by_h[horizon].extend(_episode_samples(task_id, ep_seed, horizon, gen_cfg,
                                                  world_cfg, task_params))
    if all(len(v) == 0 for v in by_h.values()):
        raise RuntimeError("dataset generation produced zero samples")

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
