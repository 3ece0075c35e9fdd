"""Labeled (state, plan) dataset generation and line-delimited persistence.

Expert episodes run in `world.lockstep`; at every step each live
episode's nominal plan plus Gaussian-jittered candidates are labeled by
simulating them with the exact collision checker, all live episodes'
candidates in one oracle pass (`world.rollout_and_step`), which also
executes each episode's nominal first row and makes the expert's plan for
the next step. Each episode keeps its own random streams and its samples,
so the files are those of running the episodes one at a time. Files are
JSONL: one header object, then one object per sample, partitioned by
curriculum horizon.

Every line is exactly the text of `json.dumps(obj, sort_keys=True)`.
`write_dataset` renders it itself: for a list of finite floats, the list's
repr is that text. Every candidate of a step, and every oversampled copy,
shares the step's `proprio` and `z`, so their text is rendered once per
distinct pair in a file, keyed by the arrays' bytes.

Samples are validated as columns by one check, `_check_columns`.
`Sample(...)` runs it on one row; gen-data runs it once per lockstep step,
on that step's arrays; `read_dataset` parses line by line, then converts
and checks slices of `_READ_SLICE` lines at a time, and names the first bad
line. Validated columns become samples through `_assemble`, which checks
nothing again.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import os
from dataclasses import dataclass, asdict, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from . import estimator as est
from . import policy as pol
from . import world as wd

FORMAT_VERSION = 1
# Parsed lines that read_dataset converts and validates together; bounds
# the parsed objects held at once.
_READ_SLICE = 64


@dataclass(frozen=True)
class Sample:
    """One labeled candidate plan.

    The fields hold float64 arrays, an int H, a label of Python scalars and
    a (str, int, int) meta. `Sample(...)` coerces them to these types and
    raises ValueError unless they pass `_check_columns`.
    """

    proprio: np.ndarray
    z: np.ndarray
    plan: np.ndarray  # (H, 4)
    H: int
    label: wd.RolloutOutcome
    meta: tuple  # (task_id, episode seed, step index)

    def __post_init__(self):
        proprio = np.asarray(self.proprio, dtype=float)
        z = np.asarray(self.z, dtype=float)
        plan = np.asarray(self.plan, dtype=float)
        label = self.label
        _check_columns(proprio[None], z[None], plan.ravel(), [plan.size], [self.H],
                       [label.y_bin], [label.y_d], [label.y_ttc])
        task_id, seed, step = self.meta
        for name, value in (
                ("proprio", proprio), ("z", z), ("plan", plan.reshape(-1, 4)),
                ("H", int(self.H)),
                ("label", wd.RolloutOutcome(y_bin=int(label.y_bin), y_d=float(label.y_d),
                                            y_ttc=float(label.y_ttc))),
                ("meta", (str(task_id), int(seed), int(step)))):
            object.__setattr__(self, name, value)


def _assemble(proprio, z, plan, H, label, meta) -> Sample:
    """A Sample of fields that `_check_columns` passed and that already
    have Sample's types; nothing is checked again."""
    s = object.__new__(Sample)
    setattr_ = object.__setattr__  # Sample is frozen
    setattr_(s, "proprio", proprio)
    setattr_(s, "z", z)
    setattr_(s, "plan", plan)
    setattr_(s, "H", H)
    setattr_(s, "label", label)
    setattr_(s, "meta", meta)
    return s


class _BadSample(ValueError):
    """A sample that breaks the format: its row among the columns checked,
    and why."""

    def __init__(self, row: int, reason: str):
        super().__init__(reason)
        self.row = row


def _check_columns(proprio, z, plan_values, plan_sizes, H, y_bin, y_d, y_ttc,
                   horizons=None) -> None:
    """Raise _BadSample for the first of N samples, given as columns, that
    breaks the format.

    proprio and z are (N, width) arrays; plan_values holds the N plans'
    values back to back and plan_sizes their lengths; H, y_bin, y_d and
    y_ttc hold N numbers each. horizons, when given, lists the allowed H.
    """
    H, y_bin, y_d, y_ttc, plan_sizes = (np.asarray(c, dtype=float)
                                        for c in (H, y_bin, y_d, y_ttc, plan_sizes))
    n = len(H)
    plan_rows = np.repeat(np.arange(n), plan_sizes.astype(int))
    checks = (
        (np.full(n, proprio.shape[1:] != (est.PROPRIO_DIM,)),
         f"proprio must hold {est.PROPRIO_DIM} values"),
        (np.full(n, z.shape[1:] != (est.VISION_DIM,)), f"z must hold {est.VISION_DIM} values"),
        (~(H >= 1) | (H % 1 != 0), "H must be an integer >= 1"),
        (np.zeros(n, bool) if horizons is None else ~np.isin(H, horizons),
         f"H not in the header's horizons {horizons}"),
        (plan_sizes != 4 * H, "plan must hold 4*H values"),
        (~np.isfinite(proprio.reshape(n, -1)).all(axis=1), "non-finite proprio"),
        (~np.isfinite(z.reshape(n, -1)).all(axis=1), "non-finite z"),
        (np.bincount(plan_rows, weights=~np.isfinite(plan_values), minlength=n) > 0,
         "non-finite plan"),
        ((y_bin != 0) & (y_bin != 1), "y_bin must be 0 or 1"),
        (y_bin != (y_d < 0), "y_bin != (y_d < 0)"),
        (~np.isfinite(y_d), "non-finite y_d"),
        (~np.isfinite(y_ttc), "non-finite y_ttc"),
    )
    bad = np.stack([mask for mask, _ in checks])
    rows = np.flatnonzero(bad.any(axis=0))
    if rows.size:
        row = int(rows[0])
        raise _BadSample(row, checks[int(np.argmax(bad[:, row]))][1])


# the input widths of the estimator, which every file's header records
_DIMS = {"proprio": est.PROPRIO_DIM, "z": est.VISION_DIM, "action": est.ACTION_DIM}


def _count(v) -> bool:
    return type(v) is int and v >= 0  # JSON's true and false are not counts


# each header key but format_version, with its rule and the rule's description
_HEADER_RULES = {
    "horizons": (lambda v: type(v) is list and len(v) > 0
                 and all(type(h) is int and h >= 1 for h in v), "a non-empty list of ints >= 1"),
    "dims": (lambda v: v == _DIMS and all(type(n) is int for n in v.values()),
             f"the estimator's {_DIMS}"),
    "counts": (lambda v: type(v) is dict and v.keys() == {"samples", "positives"}
               and all(map(_count, v.values())), "ints >= 0 under samples and positives"),
    "seed": (_count, "an int >= 0"),
    "config_digest": (lambda v: type(v) is str, "a string"),
}


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
        if not 0 <= self.sigma_a < np.inf:  # NaN fails too
            raise ValueError(f"sigma_a must be finite and >= 0, got {self.sigma_a}")
        if not np.isfinite(self.d_thresh):
            raise ValueError(f"d_thresh must be finite, got {self.d_thresh}")
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


def generate_dataset(gen_cfg: DatagenConfig, world_cfg: wd.WorldConfig, out_dir,
                     task_params: wd.TaskParams = wd.TaskParams()) -> tuple[dict, dict]:
    """Write one JSONL file per curriculum horizon; returns ({H: path},
    {H: header counts}), the counts as written, after oversampling.

    Episodes are assigned to horizons round-robin, giving each phase an
    equal share. The expert plans to the longest live horizon, by itself
    only at a lockstep group's first step (`pol.roll_plan` of
    `pol.expert_law`). Each step makes one oracle pass
    (`wd.rollout_and_step`) over every live episode's candidates, each row
    padded to the longest live horizon and labeled over its own; the pass
    executes each episode's nominal first row, gives the clearance of the
    state it leads to, and makes the expert's plan there, which the next
    step takes. An episode ends at collision or success. Each step's
    samples pass `_check_columns` once, as columns.

    Two independent streams per episode: feature noise and candidate
    jitter. Keeping them separate means the executed trajectory (expert,
    nominal actions) does not depend on how many candidates are drawn.
    Every stream is seeded from (seed, task, episode), so the same config
    writes byte-identical files.
    """
    digest = config_digest(gen_cfg)
    n_phases = len(gen_cfg.horizons)
    jobs, horizons, streams = [], [], []
    for task_id in gen_cfg.tasks:
        tidx = wd.task_index(task_id)
        for ep in range(gen_cfg.episodes_per_task):
            ep_seed = int(np.random.SeedSequence([gen_cfg.seed, tidx, ep]).generate_state(1)[0])
            jobs.append((task_id, ep_seed))
            horizons.append(gen_cfg.horizons[ep % n_phases])
            streams.append([np.random.default_rng(np.random.SeedSequence(
                [gen_cfg.seed, tidx, ep_seed, k])) for k in (1, 2)])
    horizons = np.array(horizons)
    n = gen_cfg.n_candidates
    by_job = [[] for _ in jobs]

    def advance(step_idx, live, state, task, nominal):
        h_live = horizons[live]
        h_max = int(h_live.max())
        law = pol.expert_law(task, world_cfg.a_max)
        nominal = pol.roll_plan(law, state, h_max, world_cfg) if nominal is None else nominal
        proprio = wd.proprio_feature(state)
        z = wd.scene_feature(state, task, world_cfg.noise_sigma, [streams[i][0] for i in live])
        plans = np.zeros((len(live), n, h_max, 4))
        cands = []
        for j, (i, h) in enumerate(zip(live, h_live)):
            cands.append(sample_candidates(nominal[j, :h], n, gen_cfg.sigma_a,
                                           streams[i][1], world_cfg.a_max))
            plans[j, :, :h] = cands[-1]
        d, state_next, d_next, nominal = wd.rollout_and_step(state, plans, nominal[:, 0],
                                                             world_cfg, law)
        labels = wd.label_rollouts(d.reshape(h_max, -1), world_cfg.dt, np.repeat(h_live, n))
        y = np.array([(lab.y_bin, lab.y_d, lab.y_ttc) for lab in labels])
        _check_columns(np.repeat(proprio, n, axis=0), np.repeat(z, n, axis=0),
                       np.concatenate(cands, axis=None), np.repeat(4 * h_live, n),
                       np.repeat(h_live, n), y[:, 0], y[:, 1], y[:, 2])
        for j, (i, h) in enumerate(zip(live, h_live)):
            p_j, z_j, meta = proprio[j], z[j], (*jobs[i], step_idx)
            by_job[i].extend(_assemble(p_j, z_j, cand, int(h), label, meta)
                             for cand, label in zip(cands[j], labels[j * n:(j + 1) * n]))
        return state_next, (d_next < 0.0) | wd.success_check(state_next, task), nominal

    wd.lockstep(jobs, world_cfg, task_params, advance)
    by_h = {h: [] for h in gen_cfg.horizons}
    for h, samples in zip(horizons.tolist(), by_job):
        by_h[h].extend(samples)

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
        dims=dict(_DIMS),
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


def write_dataset(path, dataset: Dataset) -> None:
    """Write the header line, then one line per sample, each the text of
    `json.dumps(obj, sort_keys=True)` for the sample's object."""
    header = dataset.header
    if header.counts["samples"] != len(dataset.samples):
        raise ValueError("header sample count disagrees with body")
    # (proprio bytes, z bytes) -> their text; kept for the whole file, as
    # oversampling shuffles a step's samples across it
    shared = {}
    with open(path, "w") as f:
        f.write(json.dumps(asdict(header), sort_keys=True) + "\n")
        for s in dataset.samples:
            key = (s.proprio.tobytes(), s.z.tobytes())
            text = shared.get(key)
            if text is None:
                text = shared[key] = (repr(s.proprio.tolist()), repr(s.z.tolist()))
            task_id, seed, step = s.meta
            label = s.label
            f.write(f'{{"H": {s.H}, "meta": [{encode_basestring_ascii(task_id)}, {seed}, '
                    f'{step}], "plan": {s.plan.ravel().tolist()!r}, "proprio": {text[0]}, '
                    f'"y_bin": {label.y_bin}, "y_d": {label.y_d!r}, '
                    f'"y_ttc": {label.y_ttc!r}, "z": {text[1]}}}\n')


# the fields of a parsed sample line that read_dataset keeps, in this order
_line_fields = operator.itemgetter("proprio", "z", "plan", "H", "y_bin", "y_d", "y_ttc", "meta")


def _samples_from_rows(rows, horizons) -> list:
    """Samples of parsed sample lines, each given as its `_line_fields`,
    converted and checked as columns."""
    proprio, z, plans, H, y_bin, y_d, y_ttc, metas = zip(*rows)
    plan_sizes = np.fromiter(map(len, plans), dtype=int, count=len(plans))
    plan_values = np.fromiter(itertools.chain.from_iterable(plans), dtype=float,
                              count=int(plan_sizes.sum()))
    proprio, z, H, y_bin, y_d, y_ttc = (np.array(c, dtype=float)
                                        for c in (proprio, z, H, y_bin, y_d, y_ttc))
    _check_columns(proprio, z, plan_values, plan_sizes, H, y_bin, y_d, y_ttc, horizons)
    ends = np.cumsum(plan_sizes).tolist()
    labels = map(wd.RolloutOutcome, y_bin.astype(int).tolist(), y_d.tolist(), y_ttc.tolist())
    # each sample owns copies of its rows: views would keep the whole
    # slice's columns alive for as long as any one sample is kept
    return [_assemble(p.copy(), zz.copy(), plan_values[end - 4 * h:end].reshape(h, 4).copy(),
                      h, label, (str(m[0]), int(m[1]), int(m[2])))
            for p, zz, end, h, label, m in zip(proprio, z, ends, H.astype(int).tolist(),
                                               labels, metas)]


def _read_rows(rows, linenos, horizons) -> list:
    """`_samples_from_rows`, with errors naming the first bad line."""
    if not rows:
        return []
    try:
        return _samples_from_rows(rows, horizons)
    except _BadSample as e:
        raise ValueError(f"malformed sample at line {linenos[e.row]}: {e}") from None
    except (KeyError, TypeError, ValueError, IndexError) as e:
        if len(rows) == 1:
            raise ValueError(f"malformed sample at line {linenos[0]}: {e}") from e
        for k in range(len(rows)):  # raises at the first line that fails on its own
            _read_rows(rows[k:k + 1], linenos[k:k + 1], horizons)
        raise


def _read_header(line: str) -> DatasetHeader:
    """The header of a dataset file's first line; raises ValueError on a
    version mismatch, or naming the first key that is missing, extra or
    breaks its rule."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed header: {e}") from e
    if not isinstance(obj, dict):
        raise ValueError(f"malformed header: not an object: {obj!r}")
    if obj.get("format_version") != FORMAT_VERSION or type(obj["format_version"]) is not int:
        raise ValueError(f"unsupported dataset version {obj.get('format_version')!r}")
    keys = {"format_version", *_HEADER_RULES}
    if obj.keys() != keys:
        raise ValueError(f"malformed header: keys {sorted(obj)}, not {sorted(keys)}")
    for key, (ok, rule) in _HEADER_RULES.items():
        if not ok(obj[key]):
            raise ValueError(f"malformed header: {key} must be {rule}, got {obj[key]!r}")
    return DatasetHeader(**obj)


def read_dataset(path) -> Dataset:
    """Parse and validate a dataset file; raises ValueError on a header
    `_read_header` rejects, a malformed line, a sample that fails
    `_check_columns` or has an H outside the header's horizons, or header
    counts that disagree with the body. Every error starts with the path;
    a bad sample's error then names its line, and comes before any count
    disagreement."""
    try:
        return _read_dataset(path)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def _read_dataset(path) -> Dataset:
    with open(path) as f:
        first = f.readline()
        if not first.strip():
            raise ValueError("empty dataset file")
        header = _read_header(first)
        samples, rows, linenos = [], [], []
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                rows.append(_line_fields(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError) as e:
                _read_rows(rows, linenos, header.horizons)  # an earlier bad line comes first
                raise ValueError(f"malformed sample at line {lineno}: {e}") from e
            linenos.append(lineno)
            if len(rows) == _READ_SLICE:
                samples += _read_rows(rows, linenos, header.horizons)
                rows, linenos = [], []
        samples += _read_rows(rows, linenos, header.horizons)
    if header.counts["samples"] != len(samples):
        raise ValueError(f"header counts.samples declares {header.counts['samples']} samples, "
                         f"body has {len(samples)}")
    positives = sum(s.label.y_bin for s in samples)
    if header.counts["positives"] != positives:
        raise ValueError(f"header counts.positives declares {header.counts['positives']} "
                         f"positives, body has {positives}")
    return Dataset(header=header, samples=samples)
