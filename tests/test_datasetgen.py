"""Dataset generation: candidate jitter, exact labels, oversampling,
serialization round-trips, and byte-level determinism."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import label_plans, reset
from riskgate import datasetgen as dg
from riskgate import estimator as est
from riskgate import policy as pol
from riskgate import world as wd


def test_sample_candidates_box_and_identity(world_cfg):
    rng = np.random.default_rng(0)
    nominal = rng.uniform(-0.02, 0.02, size=(3, 4))
    cands = dg.sample_candidates(nominal, 6, 0.05, np.random.default_rng(5), world_cfg.a_max)
    assert cands.shape == (6, 3, 4)
    np.testing.assert_array_equal(cands[0], nominal)
    assert np.all(np.abs(cands[1:]) <= world_cfg.a_max)
    # the same values as one (H, 4) draw per jittered candidate, in order
    ref_rng = np.random.default_rng(5)
    for c in cands[1:]:
        ref = np.clip(nominal + ref_rng.normal(0.0, 0.05, size=(3, 4)),
                      -world_cfg.a_max, world_cfg.a_max)
        np.testing.assert_array_equal(c, ref)
    with pytest.raises(ValueError):
        dg.sample_candidates(nominal, 0, 0.05, rng, world_cfg.a_max)


def test_sample_candidates_batch_equals_each_rows_own_call(world_cfg):
    """One call over N nominal plans, each row with its own generator,
    gives every row with == the candidates of its own call, and leaves
    each generator where its own call does."""
    rng = np.random.default_rng(6)
    nominal = rng.uniform(-0.03, 0.03, size=(4, 5, 4))
    gens = [np.random.default_rng(10 + j) for j in range(4)]
    cands = dg.sample_candidates(nominal, 6, 0.02, gens, world_cfg.a_max)
    assert cands.shape == (4, 6, 5, 4)
    for j in range(4):
        ref_gen = np.random.default_rng(10 + j)
        ref = dg.sample_candidates(nominal[j], 6, 0.02, ref_gen, world_cfg.a_max)
        assert_array_equal(cands[j], ref)
        assert gens[j].random() == ref_gen.random()


def reference_oversample(y_d, seed, d_thresh, factor):
    """The list-based oversampling the index form replaced: each near miss
    appended factor - 1 more times, in row order, then the permutation
    drawn from the dataset seed."""
    rows = list(range(len(y_d)))
    rows += [r for r in rows if y_d[r] < d_thresh for _ in range(factor - 1)]
    order = np.random.default_rng(np.random.SeedSequence([seed, 3])).permutation(len(rows))
    return [rows[i] for i in order]


def test_oversample_multiplicities():
    """Each near miss (collisions included) is written factor times and
    every other sample once, in the order of the list-based oversampling;
    factor 1 writes each sample once, in order."""
    y_d = np.array([0.01, -0.02, 0.3, 0.9, 0.04999, 0.05])
    y_bin = (y_d < 0).astype(int)
    order = dg.oversample_near_miss(y_d, 0, d_thresh=0.05, factor=3)
    assert np.bincount(order).tolist() == [3, 3, 1, 1, 3, 1]
    assert y_bin[order].sum() == 3
    assert order.tolist() == reference_oversample(y_d, 0, 0.05, 3)
    assert order.tolist() != sorted(order.tolist())
    y_d = np.random.default_rng(4).uniform(-0.1, 0.3, size=500)
    for seed, factor in ((7, 2), (2**32 - 1, 4)):
        assert dg.oversample_near_miss(y_d, seed, 0.05, factor).tolist() == \
            reference_oversample(y_d, seed, 0.05, factor)
    assert dg.oversample_near_miss(y_d, 0, 0.05, 1).tolist() == list(range(500))
    assert dg.oversample_near_miss(np.zeros(0), 0, 0.05, 3).size == 0
    with pytest.raises(ValueError):
        dg.oversample_near_miss(y_d, 0, d_thresh=0.05, factor=0)


def test_oversample_never_dilutes_positives():
    y_d = np.array([-0.01] * 3 + [0.5] * 7)
    y_bin = (y_d < 0).astype(int)
    order = dg.oversample_near_miss(y_d, 1, d_thresh=0.05, factor=4)
    frac_before = 3 / 10
    frac_after = y_bin[order].sum() / len(order)
    assert frac_after >= frac_before


def test_roundtrip_and_canonical_bytes(tiny_data, tmp_path):
    src = tiny_data["paths"][2]
    ds = dg.read_dataset(src)
    assert ds.header.config_digest == dg.config_digest(tiny_data["gen_cfg"])
    assert ds.header.dims == {"proprio": est.PROPRIO_DIM, "z": est.VISION_DIM,
                              "action": est.ACTION_DIM}
    dst = tmp_path / "copy.jsonl"
    dg.write_dataset(dst, ds.header, dg.SampleColumns.of(ds.samples))
    assert dst.read_bytes() == open(src, "rb").read()
    back = dg.read_dataset(dst)
    for a, b in zip(ds.samples[:50], back.samples[:50]):
        assert_allclose(a.proprio, b.proprio)
        assert_allclose(a.plan, b.plan)
        assert a.label == b.label and a.meta == b.meta


def test_read_rejects_corrupt_files(tiny_data, tmp_path):
    src = tiny_data["paths"][2]
    lines = open(src).read().splitlines()

    bad_version = tmp_path / "v.jsonl"
    head = json.loads(lines[0])
    head["format_version"] = 999
    bad_version.write_text("\n".join([json.dumps(head)] + lines[1:3]) + "\n")
    with pytest.raises(ValueError, match="version"):
        dg.read_dataset(bad_version)

    bad_count = tmp_path / "c.jsonl"
    bad_count.write_text("\n".join(lines[:3]) + "\n")
    with pytest.raises(ValueError, match="declares"):
        dg.read_dataset(bad_count)

    bad_line = tmp_path / "l.jsonl"
    bad_line.write_text(lines[0] + "\n{not json\n")
    with pytest.raises(ValueError, match="line 2"):
        dg.read_dataset(bad_line)

    empty = tmp_path / "e.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        dg.read_dataset(empty)

    with pytest.raises(ValueError, match="disagrees"):
        ds = dg.read_dataset(src)
        dg.write_dataset(tmp_path / "x.jsonl", ds.header, dg.SampleColumns.of(ds.samples),
                         np.arange(len(ds.samples) - 1))

    # one bad sample among good ones, past the first read slice: the error
    # names its line (lines[k] is line k + 1 of the file)
    k = 300
    assert len(lines) > k + 10

    def corrupt(edit, name):
        obj = json.loads(lines[k])
        edit(obj)
        path = tmp_path / f"{name}.jsonl"
        path.write_text("\n".join(lines[:k] + [json.dumps(obj, sort_keys=True)]
                                  + lines[k + 1:]) + "\n")
        return path

    def clear(o):  # a collision-free label, so only the edited field is wrong
        o.update(y_bin=0, y_d=abs(o["y_d"]))

    cases = [
        ("proprio13", lambda o: o.update(proprio=o["proprio"][:13]), "proprio"),
        ("z11", lambda o: o.update(z=o["z"] + [0.0]), "z must hold"),
        ("ybin2", lambda o: (clear(o), o.update(y_bin=2)), "y_bin must be 0 or 1"),
        ("ybin_disagrees", lambda o: (clear(o), o.update(y_bin=1)), "y_bin != "),
        ("yd_nan", lambda o: (clear(o), o.update(y_d=float("nan"))), "y_d"),
        ("yttc_nan", lambda o: o.update(y_ttc=float("nan")), "y_ttc"),
        ("h_not_in_header", lambda o: o.update(H=3, plan=o["plan"] + [0.0] * 4), "horizons"),
        ("plan_short", lambda o: o.update(plan=o["plan"][:-1]), "plan"),
        ("plan_nan", lambda o: o.update(plan=[float("nan")] + o["plan"][1:]), "plan"),
        ("no_z", lambda o: o.pop("z"), "'z'"),
        ("meta_short", lambda o: o.update(meta=o["meta"][:1]), "index"),
    ]
    for name, edit, what in cases:
        with pytest.raises(ValueError, match=f"line {k + 1}: .*{what}"):
            dg.read_dataset(corrupt(edit, name))

    # a bad sample earlier in the slice than a line that is not JSON is
    # named first, as it is read first
    first_bad = tmp_path / "two_bad.jsonl"
    obj = json.loads(lines[2])
    obj["z"] = obj["z"][:3]
    first_bad.write_text("\n".join([lines[0], lines[1], json.dumps(obj), "{not json"]
                                   + lines[3:]) + "\n")
    with pytest.raises(ValueError, match="line 3: z must hold"):
        dg.read_dataset(first_bad)


@pytest.mark.parametrize("edit, what", [
    (lambda h: h.pop("horizons"), "keys"),
    (lambda h: h.update(extra=1), "keys"),
    (lambda h: h.update(format_version=True), "unsupported dataset version"),
    (lambda h: h.update(horizons=[]), "horizons must be a non-empty list"),
    (lambda h: h.update(horizons=[2.0]), "horizons must be"),
    (lambda h: h.update(horizons=[0, 2]), "horizons must be"),
    (lambda h: h.update(seed="x"), "seed must be an int >= 0"),
    (lambda h: h.update(seed=-1), "seed must be an int >= 0"),
    (lambda h: h.update(counts=[]), "counts must be"),
    (lambda h: h["counts"].pop("positives"), "counts must be"),
    (lambda h: h["counts"].update(samples=True), "counts must be"),
    (lambda h: h.update(dims={"proprio": 3}), "dims must be the estimator's"),
    (lambda h: h["dims"].update(z=10.0), "dims must be"),
    (lambda h: h.update(config_digest=None), "config_digest must be a string"),
    (lambda h: h["counts"].update(positives=h["counts"]["positives"] + 1), "counts.positives"),
    (lambda h: h["counts"].update(samples=h["counts"]["samples"] + 1), "counts.samples"),
])
def test_read_checks_the_header(tiny_data, tmp_path, edit, what):
    """A header without exactly its keys, with a value of the wrong type or
    range, dims other than the estimator's or counts other than the
    body's raises ValueError naming the key; a bad sample line is still
    named before any count disagreement."""
    lines = open(tiny_data["paths"][2]).read().splitlines()
    head = json.loads(lines[0])
    edit(head)
    path = tmp_path / "h.jsonl"
    path.write_text("\n".join([json.dumps(head)] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match=what):
        dg.read_dataset(path)
    if what.startswith("counts."):
        obj = json.loads(lines[5])
        obj["y_bin"] = 1 - obj["y_bin"]
        path.write_text("\n".join([json.dumps(head)] + lines[1:5] + [json.dumps(obj)]
                                  + lines[6:]) + "\n")
        with pytest.raises(ValueError, match=r"line 6: y_bin != \(y_d < 0\)"):
            dg.read_dataset(path)


@pytest.mark.parametrize("edit, what", [
    (lambda c: c.update(proprio=np.zeros((1, 13))), "proprio"),
    (lambda c: c.update(z=np.zeros((1, 11))), "z must hold"),
    (lambda c: c.update(plan=np.zeros(12)), "plan"),
    (lambda c: c.update(H=np.array([0]), plan=np.zeros(0)), "H must be"),
    (lambda c: c.update(plan=np.full(8, np.inf)), "plan"),
    (lambda c: c.update(y_bin=np.array([1])), "y_bin !="),
    (lambda c: c.update(y_ttc=np.array([np.nan])), "y_ttc"),
])
def test_write_runs_the_column_check(tmp_path, edit, what):
    """`write_dataset` raises ValueError naming the fault, and writes
    nothing, on a sample of the wrong widths, an H below 1, plan values
    other than 4*H, a non-finite plan or y_ttc, or a y_bin that disagrees
    with y_d; the unedited sample writes and reads back."""
    cols = dict(proprio=np.zeros((1, est.PROPRIO_DIM)), z=np.zeros((1, est.VISION_DIM)),
                meta=[("crossing_transfer", 3, 4)], feature=np.array([0]), H=np.array([2]),
                plan=np.zeros(8), y_bin=np.array([0]), y_d=np.array([0.5]),
                y_ttc=np.array([0.2]))
    path = tmp_path / "d.jsonl"
    dg.write_dataset(path, dg.make_header([2], cols["y_bin"], 0, "x"), dg.SampleColumns(**cols))
    assert len(dg.read_dataset(path).samples) == 1
    path.unlink()
    edit(cols)
    with pytest.raises(ValueError, match=what):
        dg.write_dataset(path, dg.make_header([2], cols["y_bin"], 0, "x"),
                         dg.SampleColumns(**cols))
    assert not path.exists()


def test_read_samples_have_their_field_types(tiny_data):
    """`read_dataset` builds each Sample from checked columns: float64
    arrays of their shapes, each its own copy, a Python int H, a label of
    a Python int and floats, and a (str, int, int) meta."""
    for h in (2, 3):
        for s in dg.read_dataset(tiny_data["paths"][h]).samples[:100]:
            for arr, shape in ((s.proprio, (est.PROPRIO_DIM,)), (s.z, (est.VISION_DIM,)),
                               (s.plan, (h, 4))):
                assert arr.dtype == np.float64 and arr.shape == shape and arr.base is None
            assert type(s.H) is int and s.H == h
            assert type(s.label) is wd.RolloutOutcome
            assert [type(v) for v in asdict(s.label).values()] == [int, float, float]
            assert type(s.meta) is tuple and [type(v) for v in s.meta] == [str, int, int]


def reference_line(s):
    """The text the per-sample writer produced: json.dumps of the sample's
    object with sorted keys."""
    return json.dumps({
        "proprio": s.proprio.tolist(), "z": s.z.tolist(), "plan": s.plan.ravel().tolist(),
        "H": int(s.H), "y_bin": int(s.label.y_bin), "y_d": float(s.label.y_d),
        "y_ttc": float(s.label.y_ttc), "meta": list(s.meta),
    }, sort_keys=True) + "\n"


def test_write_matches_json_dumps_bytes(tmp_path):
    """Every line of `write_dataset` is json.dumps of the sample's object,
    byte for byte: edge floats, the largest seeds, escaped task ids,
    samples sharing a feature row, pairs whose text differs only in the
    sign of a zero, and samples written several times, in any order."""
    edge = np.array([-0.0, 5e-324, 1e-7, 1e16, 0.1 + 0.2, -1.5e-300, 123456.789, 1 / 3])
    rng = np.random.default_rng(0)
    proprio = np.resize(edge, est.PROPRIO_DIM)
    z = np.resize(edge[::-1], est.VISION_DIM)
    neg_zero = proprio.copy()
    neg_zero[0] = 0.0  # same text as proprio but for one sign
    samples = []
    for i, (h, y_d) in enumerate([(2, -0.0), (3, 5e-324), (5, -1e-7), (2, 1e16), (3, 0.1 + 0.2)]):
        plan = np.resize(np.concatenate([edge, rng.normal(0, 0.01, 40)]), (h, 4))
        for p, zz in ((proprio, z), (neg_zero, z), (proprio.copy(), z.copy()),
                      (proprio, rng.normal(size=est.VISION_DIM))):
            samples.append(dg.Sample(
                proprio=p, z=zz, plan=plan, H=h,
                label=wd.RolloutOutcome(y_bin=int(y_d < 0), y_d=y_d, y_ttc=0.1 * h),
                meta=(["crossing_transfer", 'tâsk "x"\n'][i % 2], 2**32 - 1 - i, i)))
    columns = dg.SampleColumns.of(samples)
    assert len(columns.proprio) == 15 < len(samples)  # each step's first and third share a row
    order = np.concatenate([np.arange(len(samples)), [3, 3, 3, 7, 3, 19]])
    order = order[rng.permutation(len(order))]
    header = dg.make_header([2, 3, 5], columns.y_bin[order], 2**32 - 1, "d" * 64)
    path = tmp_path / "edge.jsonl"
    dg.write_dataset(path, header, columns, order)
    written = [samples[i] for i in order]
    ref = json.dumps(asdict(header), sort_keys=True) + "\n" + "".join(map(reference_line, written))
    assert path.read_bytes() == ref.encode()
    # reading the file back gives samples that render the same lines
    ds = dg.read_dataset(path)
    assert [reference_line(s) for s in ds.samples] == list(map(reference_line, written))
    # without an order, each sample once, in order; no sample is no line
    dg.write_dataset(path, dg.make_header([2, 3, 5], columns.y_bin, 0, "x"), columns)
    assert path.read_text().splitlines(keepends=True)[1:] == list(map(reference_line, samples))
    empty = dg.SampleColumns.of([])
    dg.write_dataset(path, dg.make_header([2], empty.y_bin, 0, "x"), empty)
    assert dg.read_dataset(path).samples == [] and len(path.read_text().splitlines()) == 1


def per_line_reader(path):
    """The per-line reader the column reader replaced: one json.loads and
    one validated Sample per line."""
    with open(path) as f:
        head = json.loads(f.readline())
        samples = []
        for line in f:
            if not line.strip():
                continue
            obj = json.loads(line)
            samples.append(dg.Sample(
                proprio=np.array(obj["proprio"], dtype=float),
                z=np.array(obj["z"], dtype=float),
                plan=np.array(obj["plan"], dtype=float).reshape(int(obj["H"]), 4),
                H=int(obj["H"]),
                label=wd.RolloutOutcome(y_bin=int(obj["y_bin"]), y_d=float(obj["y_d"]),
                                        y_ttc=float(obj["y_ttc"])),
                meta=(str(obj["meta"][0]), int(obj["meta"][1]), int(obj["meta"][2]))))
    return head, samples


def test_read_equals_per_line_reader(tiny_data, tmp_path):
    """`read_dataset` equals the per-line reader on every field of every
    sample: one-horizon files, and a mixed-horizon file (like the held-out
    file) that spans several read slices."""
    mixed = [s for h in (2, 3) for s in dg.read_dataset(tiny_data["paths"][h]).samples[::3]]
    mixed_path = tmp_path / "mixed.jsonl"
    rng = np.random.default_rng(1)
    mixed = [mixed[i] for i in rng.permutation(len(mixed))]
    columns = dg.SampleColumns.of(mixed)
    dg.write_dataset(mixed_path, dg.make_header([2, 3], columns.y_bin, 0, "x"), columns)
    for path in (tiny_data["paths"][2], tiny_data["paths"][3], mixed_path):
        head, ref = per_line_reader(path)
        ds = dg.read_dataset(path)
        assert asdict(ds.header) == head
        assert len(ds.samples) == len(ref) > dg._READ_SLICE
        for got, want in zip(ds.samples, ref):
            for name in ("proprio", "z", "plan"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
                assert np.array_equal(np.signbit(a), np.signbit(b))
            assert (got.H, got.label, got.meta) == (want.H, want.label, want.meta)
            assert [type(v) for v in (got.H, *asdict(got.label).values(), *got.meta)] == \
                [type(v) for v in (want.H, *asdict(want.label).values(), *want.meta)]


def test_stored_labels_are_exact(tiny_data, world_cfg):
    """Rebuild the state from the serialized features (joints and grippers
    from proprio, holding flags from the scene feature) and re-run the
    collision oracle on the stored plan: every label must agree."""
    ds = dg.read_dataset(tiny_data["paths"][3])
    rng = np.random.default_rng(2)
    pick = rng.choice(len(ds.samples), size=min(200, len(ds.samples)), replace=False)
    for idx in pick:
        s = ds.samples[idx]
        q = np.arctan2(s.proprio[0:12:2], s.proprio[1:12:2])
        state = wd.make_state(world_cfg, q[:3], q[3:],
                              g_left=s.proprio[12], g_right=s.proprio[13],
                              holding_left=bool(s.z[8]), holding_right=bool(s.z[9]))
        ref = label_plans(state, s.plan[None], world_cfg)[0]
        assert s.label.y_bin == ref.y_bin
        assert s.label.y_d == pytest.approx(ref.y_d, abs=1e-9)
        assert s.label.y_ttc == pytest.approx(ref.y_ttc, abs=1e-12)


def test_generate_is_byte_deterministic(world_cfg, task_params, tmp_path):
    cfg = dg.DatagenConfig(episodes_per_task=2, horizons=(2,), seed=7)
    p1, counts = dg.generate_dataset(cfg, world_cfg, tmp_path / "a", task_params)
    p2, _ = dg.generate_dataset(cfg, world_cfg, tmp_path / "b", task_params)
    assert open(p1[2], "rb").read() == open(p2[2], "rb").read()
    # the returned counts are those of the header written, after oversampling
    assert counts == {2: dg.read_dataset(p1[2]).header.counts}
    body = open(p1[2]).readlines()[1:]
    assert counts[2]["samples"] == len(body) > len(set(body))
    # a different seed must not reproduce the same file
    p3, _ = dg.generate_dataset(dg.DatagenConfig(episodes_per_task=2, horizons=(2,), seed=8),
                                world_cfg, tmp_path / "c", task_params)
    assert open(p1[2], "rb").read() != open(p3[2], "rb").read()


def test_config_validation():
    with pytest.raises(ValueError):
        dg.DatagenConfig(n_candidates=0)
    with pytest.raises(ValueError):
        dg.DatagenConfig(horizons=())
    with pytest.raises(ValueError):
        dg.DatagenConfig(oversample_factor=0)
    with pytest.raises(ValueError):
        dg.DatagenConfig(tasks=("bogus",))
    for bad in ({"tasks": ()}, {"episodes_per_task": 0}, {"sigma_a": -0.01},
                {"sigma_a": float("nan")}, {"sigma_a": float("inf")}, {"horizons": (2, 2)},
                {"horizons": (3, 2, 3)}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            dg.DatagenConfig(**bad)


def configurations(name, args):
    """The configurations a `dls_ik_step` call (joint origins (..., 2, n+1,
    2)) or a `segment_pairs_distance` call (coordinate planes (2, ...,
    pairs)) works on."""
    shape = args[1].shape[:-3] if name == "dls_ik_step" else args[0].shape[1:-1]
    return int(np.prod(shape))


def one_episode_at_a_time(gen_cfg, world_cfg, task_params):
    """Reference generator: each episode alone, from the per-episode calls.
    Returns the samples per horizon, in (task, episode, step) order, and
    how each episode ended."""
    by_h = {h: [] for h in gen_cfg.horizons}
    endings = []
    for task_id in gen_cfg.tasks:
        tidx = wd.task_index(task_id)
        for ep in range(gen_cfg.episodes_per_task):
            h = gen_cfg.horizons[ep % len(gen_cfg.horizons)]
            seed = int(np.random.SeedSequence([gen_cfg.seed, tidx, ep]).generate_state(1)[0])
            state, task = reset(task_id, seed, world_cfg, task_params)
            noise, jitter = (np.random.default_rng(np.random.SeedSequence(
                [gen_cfg.seed, tidx, seed, k])) for k in (1, 2))
            ending = "budget"
            for t in range(task_params.max_steps):
                nominal = pol.roll_plan(pol.expert_law(task, world_cfg.a_max), state, h, world_cfg)
                cands = dg.sample_candidates(nominal, gen_cfg.n_candidates, gen_cfg.sigma_a,
                                             jitter, world_cfg.a_max)
                proprio = wd.proprio_feature(state)
                z = wd.scene_feature(state, task, world_cfg.noise_sigma, noise)
                for cand, label in zip(cands, label_plans(state, cands, world_cfg)):
                    by_h[h].append((proprio, z, cand, h, label, (task_id, seed, t)))
                state = wd.step(state, nominal[0], world_cfg)
                if wd.min_self_distance(state, world_cfg) < 0.0:
                    ending = "collision"
                    break
                if wd.success_check(state, task):
                    ending = "success"
                    break
            endings.append(ending)
    return by_h, endings


@pytest.mark.parametrize("group", [wd.LOCKSTEP_EPISODES, 4])
def test_lockstep_equals_one_episode_at_a_time(world_cfg, task_params, tmp_path,
                                               monkeypatch, group):
    """`generate_dataset` steps episodes together, in groups of `group`;
    every sample equals, with ==, the one the per-episode reference makes
    by rolling the expert's plan at every step, in the same order, over
    both tasks, horizons 2, 3 and 5, and episodes that end by collision and
    by success at different steps.

    Each group's reset makes one clearance call on its starts, all clear
    at the first draw. The expert plans by itself once per group, with
    the H - 1 `wd.step` calls of the longest horizon H = 5. After that each
    step makes one `wd.step` call, one `dls_ik_step` call on its N live
    rows (the newest state a carried plan's row is chosen at, moved by the
    plan's last row), and every H-th step from the group's first one
    clearance call on the N live rows' next H states, which serves those H
    steps: at most ceil(steps / (H - 1)) calls in a group of that many
    steps. The labels come after every step of every group,
    one horizon h at a time in write order, from passes of whole rows, each
    LABEL_CHUNK // (K * h) rows (at least one) but the last: each of a
    pass's h kinematics calls sees K rows per row, and its clearance K * h
    configurations per row, in blocks of CLEARANCE_CHUNK. With groups of 4,
    a group's longest-horizon episode ends first, and the longest live
    horizon shrinks under the plan gen-data carries."""
    monkeypatch.setattr(wd, "LOCKSTEP_EPISODES", group)
    cfg = dg.DatagenConfig(episodes_per_task=3, horizons=(2, 3, 5), oversample_factor=1, seed=4)
    calls = {"dls_ik_step": 0, "step": 0, "segment_pairs_distance": 0}
    seen = []  # (name, configurations) of each dls_ik_step and segment_pairs_distance call
    # per roll_plan, per step and per label pass: (the calls made, what seen gained)
    rolls, per_step, passes, resets = [], [], [], []

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            if name != "step":
                seen.append((name, configurations(name, args)))
            return real(*args)
        return counted

    def measured(log, real):
        def wrapped(*args, **kwargs):
            before, first = dict(calls), len(seen)
            out = real(*args, **kwargs)
            log.append((tuple(calls[name] - before[name] for name in calls), seen[first:]))
            return out
        return wrapped

    def lockstep(jobs, world, params, advance, _real=wd.lockstep):
        _real(jobs, world, params, measured(per_step, advance))
        per_step.append("end")

    with monkeypatch.context() as m:
        for name in calls:
            m.setattr(wd, name, counting(name, getattr(wd, name)))
        m.setattr(pol, "roll_plan", measured(rolls, pol.roll_plan))
        m.setattr(wd, "rollout_and_step", measured(passes, wd.rollout_and_step))
        m.setattr(wd, "task_init", measured(resets, wd.task_init))
        m.setattr(wd, "lockstep", lockstep)
        paths, _ = dg.generate_dataset(cfg, world_cfg, tmp_path, task_params)
    ref, endings = one_episode_at_a_time(cfg, world_cfg, task_params)
    assert {"collision", "success"} <= set(endings)
    for h in cfg.horizons:
        got = dg.read_dataset(paths[h]).samples
        assert len(got) == len(ref[h]) > 0
        for s, (proprio, z, plan, horizon, label, meta) in zip(got, ref[h]):
            assert np.array_equal(s.proprio, proprio) and np.array_equal(s.z, z)
            assert np.array_equal(s.plan, plan) and s.H == horizon
            assert s.label == label and s.meta == meta
    steps = {}
    for samples in ref.values():
        for *_, (task_id, seed, t) in samples:
            steps[task_id, seed] = max(steps.get((task_id, seed), 0), t + 1)
    assert len(steps) == 6 and len(set(steps.values())) > 2  # episodes drop out at different steps
    per_job = [(cfg.horizons[ep % len(cfg.horizons)], steps[task_id, int(np.random.SeedSequence(
                    [cfg.seed, wd.task_index(task_id), ep]).generate_state(1)[0])])
               for task_id in cfg.tasks for ep in range(cfg.episodes_per_task)]
    groups = [per_job[lo:lo + group] for lo in range(0, len(per_job), group)]
    assert resets == [((0, 0, 1), [("segment_pairs_distance", len(g))]) for g in groups]
    assert rolls == [((4, 4, 0), [("dls_ik_step", len(g))] * 4) for g in groups]
    assert calls["step"] == sum(counts[1] for counts, _ in rolls) + len(per_step) - 1
    k, h_all, want = cfg.n_candidates, max(cfg.horizons), []
    for g in groups:
        for t in range(max(n for _, n in g)):
            live = [h for h, n in g if n > t]
            roll = rolls.pop(0) if t == 0 else ((0, 0, 0), [])
            measure = t % h_all == 0
            want.append((tuple(a + b for a, b in zip(roll[0], (1, 1, measure))),
                         roll[1] + [("dls_ik_step", len(live))]
                         + [("segment_pairs_distance", h_all * len(live))] * measure))
    assert per_step == want + ["end"]  # every label pass comes after the last step
    want = []
    for h in cfg.horizons:
        rows = sum(n for hj, n in per_job if hj == h)  # one per step of each episode of h
        per_pass = max(1, wd.LABEL_CHUNK // (k * h))
        for lo in range(0, rows, per_pass):
            size = k * h * min(per_pass, rows - lo)
            blocks = [min(wd.CLEARANCE_CHUNK, size - b) for b in range(0, size, wd.CLEARANCE_CHUNK)]
            want.append(((h, 0, len(blocks)), [("dls_ik_step", size // h)] * h
                         + [("segment_pairs_distance", b) for b in blocks]))
    assert passes == want
    assert len(passes) > len(cfg.horizons) and max(counts[2] for counts, _ in passes) > 1
    longest_ends_first = [max(n for h, n in g if h == max(g)[0]) < max(n for _, n in g)
                          for g in groups]
    assert any(longest_ends_first) == (group == 4)


@pytest.mark.parametrize("horizons, group", [((1,), wd.LOCKSTEP_EPISODES), ((2, 3, 5), 4)])
def test_carried_plan_equals_the_plan_rolled_from_each_executed_state(
        world_cfg, task_params, tmp_path, monkeypatch, horizons, group):
    """At every step, for every live episode, the plan gen-data carries to
    the next step equals with == `pol.roll_plan` of the expert from the
    state the step executed into, at the longest horizon H, the H - 1
    states it carries are the ones that roll's rows 1..H-1 are chosen at,
    and the clearances it carries are those of the first of them, as many
    as the H steps served by the last clearance call leave; with H = 1,
    and with groups of 4 whose longest live horizon shrinks while the plan
    keeps its length."""
    monkeypatch.setattr(wd, "LOCKSTEP_EPISODES", group)
    cfg = dg.DatagenConfig(episodes_per_task=3, horizons=horizons, seed=4)
    seen = []  # per step: (step index, live horizons, next state, task, carry)

    def lockstep(jobs, world, params, advance, _real=wd.lockstep):
        def recorded(t, live, state, task, carry):
            out = advance(t, live, state, task, carry)
            # 3 episodes per task: a job's index picks its horizon round-robin
            seen.append((t, np.array(horizons)[live % len(horizons)], out[0], task, out[2]))
            return out
        _real(jobs, world, params, recorded)

    monkeypatch.setattr(wd, "lockstep", lockstep)
    dg.generate_dataset(cfg, world_cfg, tmp_path, task_params)
    shrunk, length = False, max(horizons)
    for t, h_live, state, task, (plan, ahead, d) in seen:
        assert plan.shape[1] == length
        shrunk |= bool(h_live.max() < length)
        ref, ref_ahead = pol.roll_plan(pol.expert_law(task, world_cfg.a_max), state, length,
                                       world_cfg, with_states=True)
        assert_array_equal(plan, ref)
        assert len(ahead) == len(ref_ahead) == length - 1
        for got, want in zip(ahead, ref_ahead):
            for f in ("q", "g", "holding", "origins", "heading"):
                assert_array_equal(getattr(got, f), getattr(want, f), err_msg=f)
        assert d.shape == (len(plan), length - 1 - t % length)
        if d.shape[1]:
            assert_array_equal(d, wd.min_self_distance(wd.stack(ahead[:d.shape[1]]), world_cfg).T)
    assert len(seen) > 20 and shrunk == (group == 4)
