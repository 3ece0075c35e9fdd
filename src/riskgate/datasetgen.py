"""Labeled (state, plan) dataset generation and line-delimited persistence.

Expert episodes run in `world.lockstep`. At every step each live
episode draws its nominal plan plus Gaussian-jittered candidates (one
`sample_candidates` call per horizon for all of its episodes) and
executes the plan's first row. The expert is collision-blind, so the
states its plan leads to are stepped once, ahead of time: one kinematics
call per step extends every live episode's carried plan by a row, and
one clearance call measures the states of the next H steps. The
candidates are labeled after the episodes have run, by simulating them
with the exact collision checker from their recorded start
configurations: each horizon's rows in a few chunked oracle passes of
their own (`world.label_in_passes`). Each episode keeps its own random
streams, so the files are those of running the episodes one at a time.
Files are JSONL: one header object, then one object per sample,
partitioned by curriculum horizon.

A set of labeled samples is one `SampleColumns` from file to batch. gen-data
keeps each step's arrays: the features once per live episode, the start
configuration (joint vectors and holding flags, all the labels need) and
the candidates, each horizon's at its own length. A file's samples become
one `SampleColumns`, in which the candidates of one step share that step's
feature row, and near-miss oversampling is a write order over those rows
(`oversample_near_miss`). `SampleColumns.batch` pads and masks the
`estimator.SampleBatch` of any rows; `Dataset.samples` is a row view.

Every line is exactly the text of `json.dumps(obj, sort_keys=True)`.
`write_dataset` renders it itself: for a list of finite floats, the list's
repr is that text. It renders the text of each feature row it writes once
and each sample's line once; a sample written more than once keeps its
line only until its last copy is written.

Samples are validated as columns by one check, `_check_columns`:
`write_dataset` runs it once per file, on every sample of its columns;
`read_dataset` parses line by line, then converts and checks slices of
`_READ_SLICE` lines at a time, names the first bad line, keeps each
slice's columns and joins them at the end. `Sample` itself checks
nothing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import os
from dataclasses import asdict, dataclass, fields
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
    """One labeled candidate plan: float64 arrays, an int H, a label of
    Python scalars and a (str, int, int) meta, as `Dataset.samples` builds
    them from checked columns; the constructor neither converts nor checks."""

    proprio: np.ndarray
    z: np.ndarray
    plan: np.ndarray  # (H, 4)
    H: int
    label: wd.RolloutOutcome
    meta: tuple  # (task_id, episode seed, step index)


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
        (~np.isfinite(proprio).all(axis=tuple(range(1, proprio.ndim))), "non-finite proprio"),
        (~np.isfinite(z).all(axis=tuple(range(1, z.ndim))), "non-finite z"),
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
    columns: SampleColumns

    @property
    def samples(self) -> list:
        """`Sample` objects owning copies of their rows, built anew on each
        access; only the benchmark's dataset checks and the tests read it."""
        c = self.columns
        ends = np.cumsum(4 * c.H).tolist()
        labels = map(wd.RolloutOutcome, c.y_bin.tolist(), c.y_d.tolist(), c.y_ttc.tolist())
        return [Sample(c.proprio[f].copy(), c.z[f].copy(),
                       c.plan[end - 4 * h:end].reshape(h, 4).copy(), h, label, c.meta[f])
                for f, end, h, label in zip(c.feature.tolist(), ends, c.H.tolist(), labels)]


@dataclass(frozen=True)
class SampleColumns:
    """N samples as columns over F feature rows, the states they were
    labeled from.

    Feature row f holds proprio[f] (F, 14), z[f] (F, 10) and meta[f], a
    (task_id, episode seed, step index) tuple. Sample i has the feature
    row feature[i], the horizon H[i], the plan values that plan (a flat
    array) holds for it after those of the samples before it, 4 * H[i] of
    them, and the labels y_bin[i], y_d[i] and y_ttc[i].
    """

    proprio: np.ndarray
    z: np.ndarray
    meta: list
    feature: np.ndarray
    H: np.ndarray
    plan: np.ndarray
    y_bin: np.ndarray
    y_d: np.ndarray
    y_ttc: np.ndarray

    @classmethod
    def concat(cls, parts) -> SampleColumns:
        """The samples of parts, one part after the other, as one
        SampleColumns."""
        parts = [_NO_SAMPLES, *parts]
        starts = np.cumsum([0] + [len(p.meta) for p in parts])  # each part's first feature row
        cols = {f.name: np.concatenate([getattr(p, f.name) for p in parts])
                for f in fields(cls) if f.name not in ("meta", "feature")}
        return cls(meta=[m for p in parts for m in p.meta],
                   feature=np.concatenate([p.feature + s for p, s in zip(parts, starts)]), **cols)

    def batch(self, rows=None) -> est.SampleBatch:
        """The SampleBatch of the samples rows selects (each sample once, in
        order, when rows is None). Plans are right-padded with zero steps to
        the longest, and a mask marks the real steps only when the horizons
        differ: the one place a SampleBatch is padded."""
        rows = np.arange(len(self.H)) if rows is None else np.asarray(rows)
        H, feature = self.H[rows], self.feature[rows]
        real = np.arange(H.max()) < H[:, None]
        # each real step's row in the plan values as (-1, 4) steps: its
        # sample's first step plus its index within the sample
        first = np.cumsum(self.H) - self.H
        steps = np.arange(real.sum()) + np.repeat(first[rows] - (np.cumsum(H) - H), H)
        plan = np.zeros((*real.shape, est.ACTION_DIM))
        plan[real] = self.plan.reshape(-1, est.ACTION_DIM)[steps]
        return est.SampleBatch(proprio=self.proprio[feature], z=self.z[feature], plan=plan,
                               mask=None if real.all() else real.astype(float),
                               y_bin=self.y_bin[rows].astype(float), y_d=self.y_d[rows],
                               y_ttc=self.y_ttc[rows])


_NO_SAMPLES = SampleColumns(
    proprio=np.empty((0, est.PROPRIO_DIM)), z=np.empty((0, est.VISION_DIM)), meta=[],
    feature=np.empty(0, int), H=np.empty(0, int), plan=np.empty(0), y_bin=np.empty(0, int),
    y_d=np.empty(0), y_ttc=np.empty(0))


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
        if len(set(self.horizons)) != len(self.horizons):
            raise ValueError(f"horizons must not repeat a horizon, got {list(self.horizons)}")
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


def sample_candidates(nominal: np.ndarray, n: int, sigma_a: float, rng, a_max: float) -> np.ndarray:
    """(n, H, 4) candidates: the (H, 4) nominal plan in row 0, then n-1
    Gaussian-jittered variants clipped to the box.

    A batch of N nominal plans (N, H, 4) gives (N, n, H, 4), and rng is
    then a sequence of one generator per row, each drawing its own row's
    noise, so a row gets the candidates it gets alone; one concatenate and
    one clip cover the batch.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    nominal = np.asarray(nominal, dtype=float)
    batch = nominal.ndim == 3
    nominal, rngs = (nominal, rng) if batch else (nominal[None], (rng,))
    rows, horizon = nominal.shape[:2]
    noise = np.empty((rows, n - 1, horizon, 4))
    for j, gen in enumerate(rngs):
        noise[j] = gen.normal(0.0, sigma_a, size=(n - 1, horizon, 4))
    cands = np.concatenate([nominal[:, None], np.clip(nominal[:, None] + noise, -a_max, a_max)],
                           axis=1)
    return cands if batch else cands[0]


def dataset_path(out_dir, horizon: int) -> str:
    """Where gen-data writes the samples of one horizon."""
    return os.path.join(out_dir, f"risk_H{horizon}.jsonl")


def generate_dataset(gen_cfg: DatagenConfig, world_cfg: wd.WorldConfig, out_dir,
                     task_params: wd.TaskParams = wd.TaskParams()) -> tuple[dict, dict]:
    """Write one JSONL file per curriculum horizon; returns ({H: path},
    {H: header counts}), the counts as written, after oversampling.

    Episodes are assigned to horizons round-robin, giving each phase an
    equal share. The expert plans to the longest horizon H, by itself only
    at a lockstep group's first step (`pol.roll_plan` of `pol.expert_law`,
    with the states its rows 1..H-1 are chosen at). Each step draws the
    candidates of every live episode of horizon h from the first h rows of
    its plan, one call per horizon, and records them with the features and
    the start configuration. Then one kinematics call moves the newest of
    the states the plan's rows are chosen at by the plan's last row, and
    the expert's row there extends the plan, shifted by its first row: the
    plan `pol.roll_plan` makes from the next state, the oldest of those
    states, which leaves them as the new one joins. When the next state's
    clearance is not yet known, one clearance call measures all H states
    so carried, so that one call serves H steps; a negative clearance ends
    an episode at collision, one check at success.

    A candidate's label never steers its episode, so the labels come after
    the episodes have run: for each horizon h, `wd.label_in_passes` labels
    the first h steps of that horizon's recorded candidates, in a few
    chunked oracle passes, and its file's samples, in (task, episode, step,
    candidate) order, are written as one `SampleColumns`.

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
    n, h_all = gen_cfg.n_candidates, max(gen_cfg.horizons)
    visits = []  # per step: (live jobs, step index, proprio, z, q, holding)
    recorded = {h: [] for h in gen_cfg.horizons}  # per step: the candidates of h's live rows

    def advance(step_idx, live, state, task, carry):
        h_live = horizons[live]
        law = pol.expert_law(task, world_cfg.a_max)
        if carry is None:
            plan, ahead = pol.roll_plan(law, state, h_all, world_cfg, with_states=True)
            carry = plan, ahead, np.empty((len(live), 0))
        # ahead: the states rows 1.. of plan are chosen at; d: the clearances
        # of the first d.shape[1] of them
        plan, ahead, d = carry
        z = wd.scene_feature(state, task, world_cfg.noise_sigma, [streams[i][0] for i in live])
        visits.append((live, step_idx, wd.proprio_feature(state), z, state.q, state.holding))
        for h in recorded:
            rows = h_live == h
            if rows.any():
                recorded[h].append(sample_candidates(plan[rows, :h], n, gen_cfg.sigma_a,
                                                     [streams[i][1] for i in live[rows]],
                                                     world_cfg.a_max))
        ahead = (*ahead, wd.step(ahead[-1] if ahead else state, plan[:, -1], world_cfg))
        plan = np.concatenate([plan[:, 1:], law(ahead[-1])[:, None]], axis=1)
        if not d.shape[1]:
            d = wd.min_self_distance(wd.stack(ahead), world_cfg).T
        state = ahead[0]
        done = (d[:, 0] < 0.0) | wd.success_check(state, task)
        return state, done, (plan, ahead[1:], d[:, 1:])

    wd.lockstep(jobs, world_cfg, task_params, advance)
    live, step_idx, proprio, z, q, holding = zip(*visits)
    del visits
    job, step = np.concatenate(live), np.repeat(step_idx, [len(j) for j in live])
    proprio, z, q, holding = (np.concatenate(c) for c in (proprio, z, q, holding))

    os.makedirs(out_dir, exist_ok=True)
    paths, counts = {}, {}
    for h in gen_cfg.horizons:
        rows = np.flatnonzero(horizons[job] == h)  # in step order, as recorded[h]
        order = np.argsort(job[rows], kind="stable")  # by episode, each in step order
        rows, cands = rows[order], np.concatenate([np.empty((0, n, h, 4)), *recorded.pop(h)])[order]
        labels = wd.label_in_passes(q[rows], holding[rows], cands, world_cfg)
        samples = SampleColumns(
            proprio=proprio[rows], z=z[rows],
            meta=[(*jobs[i], t) for i, t in zip(job[rows].tolist(), step[rows].tolist())],
            feature=np.repeat(np.arange(len(rows)), n), H=np.full(len(rows) * n, h),
            plan=cands.ravel(), y_bin=labels.y_bin, y_d=labels.y_d, y_ttc=labels.y_ttc)
        order = oversample_near_miss(samples.y_d, gen_cfg.seed, gen_cfg.d_thresh,
                                     gen_cfg.oversample_factor)
        header = make_header([h], samples.y_bin[order], gen_cfg.seed, digest)
        path = dataset_path(out_dir, h)
        write_dataset(path, header, samples, order)
        paths[h], counts[h] = path, header.counts
    return paths, counts


def make_header(horizons, y_bin, seed, digest) -> DatasetHeader:
    """Header of a dataset file whose lines have these y_bin labels."""
    return DatasetHeader(
        format_version=FORMAT_VERSION,
        horizons=list(horizons),
        dims=dict(_DIMS),
        counts={"samples": len(y_bin), "positives": int(np.sum(y_bin))},
        seed=int(seed),
        config_digest=digest,
    )


def oversample_near_miss(y_d, seed: int, d_thresh: float, factor: int) -> np.ndarray:
    """The order in which to write N samples of labels y_d: each near miss
    (y_d below threshold) factor times and every other sample once,
    shuffled with the dataset seed; with factor 1, each once in order.
    Collisions have negative y_d, so every positive is repeated too; the
    positive fraction never drops."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    order = np.arange(len(y_d))
    if factor > 1:
        order = np.concatenate([order, np.repeat(np.flatnonzero(y_d < d_thresh), factor - 1)])
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        order = order[rng.permutation(len(order))]
    return order


def write_dataset(path, header: DatasetHeader, samples: SampleColumns, order=None) -> None:
    """Write the header line, then the line of sample order[k] for each k
    (each sample once, in order, when order is None), each the text of
    `json.dumps(obj, sort_keys=True)` for the sample's object. Raises
    ValueError, writing nothing, unless the header counts len(order)
    samples, the plan column holds 4*H values per sample and every sample
    of the columns passes `_check_columns`."""
    s = samples
    order = np.arange(len(s.H)) if order is None else np.asarray(order)
    if header.counts["samples"] != len(order):
        raise ValueError("header sample count disagrees with body")
    if len(s.plan) != 4 * s.H.sum():
        raise ValueError(f"plan must hold 4*H values, {4 * s.H.sum()} in all, got {len(s.plan)}")
    _check_columns(s.proprio[s.feature], s.z[s.feature], s.plan, 4 * s.H, s.H,
                   s.y_bin, s.y_d, s.y_ttc)
    # the text of each feature row that order writes, by row
    rows = np.flatnonzero(np.bincount(s.feature[order], minlength=len(s.meta))).tolist()
    meta = {i: f"[{encode_basestring_ascii(s.meta[i][0])}, {s.meta[i][1]}, {s.meta[i][2]}]"
            for i in rows}
    proprio, z = ({i: repr(v) for i, v in zip(rows, c[rows].tolist())} for c in (s.proprio, s.z))
    ends = np.cumsum(4 * s.H)
    starts, ends = (ends - 4 * s.H).tolist(), ends.tolist()
    feature, H, y_bin, y_d, y_ttc = (c.tolist() for c in (s.feature, s.H, s.y_bin, s.y_d,
                                                          s.y_ttc))
    left = np.bincount(order, minlength=len(H)).tolist()  # lines each sample has still to write
    kept = {}  # sample -> its line, while it has more than one line left
    with open(path, "w") as f:
        f.write(json.dumps(asdict(header), sort_keys=True) + "\n")
        for r in order.tolist():
            line = kept.pop(r, None)
            if line is None:
                i, plan = feature[r], s.plan[starts[r]:ends[r]].tolist()
                line = (f'{{"H": {H[r]}, "meta": {meta[i]}, "plan": {plan!r}, '
                        f'"proprio": {proprio[i]}, "y_bin": {y_bin[r]}, "y_d": {y_d[r]!r}, '
                        f'"y_ttc": {y_ttc[r]!r}, "z": {z[i]}}}\n')
            left[r] -= 1
            if left[r]:
                kept[r] = line
            f.write(line)


# the fields of a parsed sample line that read_dataset keeps, in this order
_line_fields = operator.itemgetter("proprio", "z", "plan", "H", "y_bin", "y_d", "y_ttc", "meta")


def _read_rows(rows, linenos, horizons) -> list:
    """[the columns of parsed sample lines, each given as its
    `_line_fields`, converted and checked, each line its own feature row]
    ([] for no lines); errors name the first bad line."""
    if not rows:
        return []
    try:
        proprio, z, plans, H, y_bin, y_d, y_ttc, metas = zip(*rows)
        plan_sizes = np.fromiter(map(len, plans), dtype=int, count=len(plans))
        plan_values = np.fromiter(itertools.chain.from_iterable(plans), dtype=float,
                                  count=int(plan_sizes.sum()))
        proprio, z, H, y_bin, y_d, y_ttc = (np.array(c, dtype=float)
                                            for c in (proprio, z, H, y_bin, y_d, y_ttc))
        _check_columns(proprio, z, plan_values, plan_sizes, H, y_bin, y_d, y_ttc, horizons)
        return [SampleColumns(proprio=proprio, z=z,
                              meta=[(str(m[0]), int(m[1]), int(m[2])) for m in metas],
                              feature=np.arange(len(rows)), H=H.astype(int), plan=plan_values,
                              y_bin=y_bin.astype(int), y_d=y_d, y_ttc=y_ttc)]
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
        parts, rows, linenos = [], [], []
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
                parts += _read_rows(rows, linenos, header.horizons)
                rows, linenos = [], []
        parts += _read_rows(rows, linenos, header.horizons)
    columns = SampleColumns.concat(parts)
    for key, body in (("samples", len(columns.H)), ("positives", int(columns.y_bin.sum()))):
        if header.counts[key] != body:
            raise ValueError(f"header counts.{key} declares {header.counts[key]} {key}, "
                             f"body has {body}")
    return Dataset(header=header, columns=columns)
