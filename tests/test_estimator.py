"""Risk estimator: architecture invariants, exact gradients vs central
finite differences, masked pooling, training determinism, calibration,
and checkpoint round-trips."""

import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from riskgate import datasetgen as dg
from riskgate import estimator as est
from riskgate import policy as pol
from riskgate import world as wd


def small_batch(tiny_data, n=8):
    return tiny_data["phases"][0].take(np.arange(n))


def mixed_batch(tiny_data, k):
    """The batch of sample k of the H2 file and sample k of the H3 file,
    the first padded to H = 3."""
    h2, h3 = (dg.read_dataset(tiny_data["paths"][h]).columns for h in (2, 3))
    return dg.SampleColumns.concat([h2, h3]).batch([k, len(h2.H) + k])


def horizon(batch, i):
    """The number of real steps in row i of a batch."""
    return batch.plan.shape[1] if batch.mask is None else int(batch.mask[i].sum())


def batch_mean_loss(params, batch, cfg):
    """Independent re-derivation: mean of per-sample losses through the
    public single-sample prediction/loss path."""
    total = 0.0
    for i in range(len(batch)):
        h = horizon(batch, i)
        pred = est.predict_risk(params, batch.proprio[i], batch.z[i], batch.plan[i, :h])
        label = wd.RolloutOutcome(y_bin=int(batch.y_bin[i]), y_d=float(batch.y_d[i]),
                                  y_ttc=float(batch.y_ttc[i]))
        total += est.loss(pred, label, cfg)[0]
    return total / len(batch)


def test_parameter_inventory():
    params = est.init_params(seed=0)
    assert params.count() == 6628
    assert set(params.weights) == {name for name, _ in est._weight_specs(est.D_MODEL)}
    assert params.weights["b_risk"].shape == ()
    assert params.temperature == 1.0
    for name, w in params.weights.items():
        if name.startswith("b_"):
            assert np.all(w == 0.0)
    again = est.init_params(seed=0)
    for name in params.weights:
        assert_array_equal(params.weights[name], again.weights[name])
    other = est.init_params(seed=1)
    assert not np.array_equal(params.weights["w_action"], other.weights["w_action"])


def test_positional_encoding():
    pe = est.positional_encoding(5)
    assert pe.shape == (5, 8)
    assert_array_equal(pe[0], [0, 1, 0, 1, 0, 1, 0, 1])
    freqs = 1.0 / np.power(10000.0, 2.0 * np.arange(4) / 8)
    assert_allclose(pe[3, 0::2], np.sin(3 * freqs))
    assert_allclose(pe[3, 1::2], np.cos(3 * freqs))
    assert np.all(np.abs(pe) <= 1.0)
    # one cached, read-only array per horizon
    assert est.positional_encoding(5) is pe
    assert not pe.flags.writeable
    with pytest.raises(ValueError):
        pe[0, 0] = 1.0


def test_forward_ranges_and_temperature(tiny_data):
    params = est.init_params(seed=2)
    b = small_batch(tiny_data, 4)
    for i in range(4):
        h = horizon(b, i)
        pred = est.predict_risk(replace(params, temperature=1.0), b.proprio[i], b.z[i],
                                b.plan[i, :h])
        assert 0.0 < pred.risk < 1.0
        assert 0.0 < pred.ttc <= params.ttc_cap
        assert pred.risk == pytest.approx(1.0 / (1.0 + np.exp(-pred.logit)))
        params.temperature = 2.5
        cal = est.predict_risk(params, b.proprio[i], b.z[i], b.plan[i, :h])
        assert cal.logit == pred.logit
        # the forward cache it carries is left out of == and repr
        assert cal == replace(cal, cache=None) and "cache" not in repr(cal)
        assert cal.risk == pytest.approx(1.0 / (1.0 + np.exp(-pred.logit / 2.5)))
        params.temperature = 1.0


def test_masked_padding_is_inert(tiny_data):
    """A right-padded short plan must predict exactly like the unpadded one."""
    params = est.init_params(seed=3)
    phases = tiny_data["phases"]
    mixed = mixed_batch(tiny_data, 0)
    assert mixed.plan.shape[1] == 3 and mixed.mask[0, 2] == 0.0
    logit, dist, ttc, _ = est._forward_batch(params, mixed.proprio, mixed.z,
                                             mixed.plan, mixed.mask)
    for i in range(2):
        h = int(mixed.mask[i].sum())
        solo = est.predict_risk(params, mixed.proprio[i], mixed.z[i], mixed.plan[i, :h])
        assert solo.logit == pytest.approx(logit[i], abs=1e-12)
        assert solo.min_dist == pytest.approx(dist[i], abs=1e-12)
        assert solo.ttc == pytest.approx(ttc[i], abs=1e-12)
    # and garbage in the padded rows must not leak through the mask
    poisoned = mixed.plan.copy()
    poisoned[0, 2, :] = 123.0
    logit2, _, _, _ = est._forward_batch(params, mixed.proprio, mixed.z,
                                         poisoned, mixed.mask)
    assert logit2[0] == logit[0]


def test_loss_composition():
    cfg = est.TrainConfig(lambda_bce=2.0, lambda_d=3.0, lambda_ttc=0.5,
                          w_pos=4.0, gamma_early=0.5)
    pred = est.RiskPrediction(risk=0.0, logit=0.3, min_dist=0.1, ttc=0.4)
    pos = wd.RolloutOutcome(y_bin=1, y_d=-0.02, y_ttc=0.2)
    total, parts = est.loss(pred, pos, cfg)
    wgt = 4.0 * 0.5 ** 0.2
    assert parts["bce"] == pytest.approx(wgt * (np.log1p(np.exp(-0.3)) + 0.3 * 0))
    assert parts["bce"] == pytest.approx(wgt * -np.log(1.0 / (1.0 + np.exp(-0.3))))
    assert parts["dist"] == pytest.approx((0.1 + 0.02) ** 2)
    assert parts["ttc"] == pytest.approx(abs(0.4 - 0.2))
    assert total == pytest.approx(2.0 * parts["bce"] + 3.0 * parts["dist"] + 0.5 * parts["ttc"])

    neg = wd.RolloutOutcome(y_bin=0, y_d=0.3, y_ttc=0.5)
    _, parts = est.loss(pred, neg, cfg)
    assert parts["ttc"] == 0.0  # censored negatives carry no TTC signal
    assert parts["bce"] == pytest.approx(np.log1p(np.exp(0.3)))  # unweighted

    bad = est.RiskPrediction(risk=0.5, logit=np.nan, min_dist=0.0, ttc=0.1)
    with pytest.raises(ValueError):
        est.loss(bad, neg, cfg)


def test_param_gradients_match_finite_differences(tiny_data):
    params = est.init_params(seed=5)
    cfg = est.TrainConfig()
    batch = small_batch(tiny_data, 8)
    grads, _ = est.grad(params, batch, cfg)
    rng = np.random.default_rng(6)
    checked = 0
    for name, g in grads.items():
        w = params.weights[name]
        flat = rng.choice(max(w.size, 1), size=min(3, w.size), replace=False)
        for k in flat:
            idx = np.unravel_index(k, w.shape) if w.shape else ()
            eps = 1e-6 * max(1.0, abs(w[idx]))
            w[idx] += eps
            up = batch_mean_loss(params, batch, cfg)
            w[idx] -= 2 * eps
            dn = batch_mean_loss(params, batch, cfg)
            w[idx] += eps
            fd = (up - dn) / (2 * eps)
            denom = max(abs(fd), abs(g[idx]), 1e-8)
            assert abs(fd - g[idx]) / denom < 1e-4, f"{name}[{idx}]"
            checked += 1
    assert checked >= 10


def test_plan_gradients_match_finite_differences(tiny_data):
    params = est.init_params(seed=7)
    b = small_batch(tiny_data, 1)
    h = horizon(b, 0)
    plan = b.plan[0, :h].copy()
    g = est.risk_plan_gradient(params, est.predict_risk(params, b.proprio[0], b.z[0], plan))
    assert g.shape == plan.shape
    for (i, j) in [(0, 0), (0, 3), (h - 1, 1), (h - 1, 2)]:
        eps = 1e-6
        plan[i, j] += eps
        up = est.predict_risk(params, b.proprio[0], b.z[0], plan).logit
        plan[i, j] -= 2 * eps
        dn = est.predict_risk(params, b.proprio[0], b.z[0], plan).logit
        plan[i, j] += eps
        fd = (up - dn) / (2 * eps)
        assert abs(fd - g[i, j]) / max(abs(fd), abs(g[i, j]), 1e-8) < 1e-4


def test_plan_only_backward_matches_full_backward(tiny_data):
    """The plan-only pass gives the full pass's plan gradients bit for bit,
    for any upstream, on a one-horizon batch of each horizon."""
    params = est.init_params(seed=11)
    rng = np.random.default_rng(12)
    for phase in tiny_data["phases"]:
        batch = phase.take(np.arange(8))
        _, _, _, cache = est._forward_batch(params, batch.proprio, batch.z, batch.plan)
        n = len(batch)
        zero = np.zeros(n)
        for ups in ((np.ones(n), zero, zero), tuple(rng.normal(size=(3, n)))):
            full = est._plan_grad(params, est._backward_batch(params, cache, *ups)[1])
            plan_only = est._plan_grad(params, est._plan_backward(
                params, cache, est._trunk_upstream(params, cache, *ups)[0]))
            assert_array_equal(plan_only.view(np.uint64), full.view(np.uint64))


def masked_sigmoid(x):
    """The boolean-mask logistic: 1/(1+exp(-x)) on x >= 0, exp(x)/(1+exp(x))
    elsewhere."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bits_match_masked_formula():
    edge = np.array([0.0, 1e-300, 30.0, 709.0, 800.0, np.inf, np.nan])
    x = np.concatenate([edge, -edge])
    assert_array_equal(est._sigmoid(x).view(np.uint64), masked_sigmoid(x).view(np.uint64))
    wide = np.random.default_rng(13).normal(0.0, 40.0, size=1000)
    assert_array_equal(est._sigmoid(wide).view(np.uint64),
                       masked_sigmoid(wide).view(np.uint64))
    # one value alone, of shape (1,) or (), gets the bits the batch gives it
    both = np.concatenate([x, wide])
    for shape in ((1,), ()):
        alone = np.array([est._sigmoid(v.reshape(shape)).item() for v in both])
        assert_array_equal(alone.view(np.uint64), est._sigmoid(both).view(np.uint64))


def test_grad_and_train_reject_a_padded_batch(tiny_data):
    """`grad` and `train` take one-horizon batches: a padded one, alone or
    among one-horizon phases, raises ValueError before any training."""
    mixed = mixed_batch(tiny_data, 1)
    assert mixed.mask is not None
    cfg = est.TrainConfig(epochs_per_phase=1)
    with pytest.raises(ValueError, match="non-empty batch of one horizon"):
        est.grad(est.init_params(8), mixed, cfg)
    for phases in ([mixed], [tiny_data["phases"][0], mixed]):
        with pytest.raises(ValueError, match="a phase mixes plan horizons"):
            est.train(phases, cfg)


def test_train_is_deterministic_and_learns(tiny_data):
    cfg = est.TrainConfig(epochs_per_phase=2, seed=0)
    a = est.train(tiny_data["phases"], cfg)
    b = est.train(tiny_data["phases"], cfg)
    for name in a.weights:
        assert_array_equal(a.weights[name], b.weights[name])

    batch = small_batch(tiny_data, 64)
    before = batch_mean_loss(est.init_params(seed=0), batch, cfg)
    after = batch_mean_loss(a, batch, cfg)
    assert after < before


def test_train_phase_order_is_by_horizon(tiny_data):
    # feeding phases in reversed order must not change the result
    cfg = est.TrainConfig(epochs_per_phase=2, seed=1)
    fwd = est.train(list(tiny_data["phases"]), cfg)
    rev = est.train(list(reversed(tiny_data["phases"])), cfg)
    for name in fwd.weights:
        assert_array_equal(fwd.weights[name], rev.weights[name])


def reference_grads(params, batch, cfg):
    """The mean-loss parameter gradients of one batch through the masked
    forward, with w_key and w_value from one einsum each."""
    logit, dist, ttc, c = est._forward_batch(params, batch.proprio, batch.z,
                                             batch.plan, batch.mask)
    n, y = len(batch), batch.y_bin
    wgt = est._sample_weights(y, batch.y_ttc, cfg)
    ups = (cfg.lambda_bce * wgt * (est._sigmoid(logit) - y) / n,
           cfg.lambda_d * 2.0 * (dist - batch.y_d) / n,
           cfg.lambda_ttc * y * np.sign(ttc - batch.y_ttc) / n)
    grads, t = est._backward_batch(params, c, *ups)
    g_v = c["attn"].transpose(0, 2, 1) @ t["g_O"]
    g_k = t["g_scores"].transpose(0, 2, 1) @ c["Q"]
    grads["w_key"] = np.einsum("bcd,bce->de", c["C"], g_k)
    grads["w_value"] = np.einsum("bcd,bce->de", c["C"], g_v)
    return grads


def reference_train(phases, cfg, params=None):
    """The training loop in its per-array form: a velocity per weight array
    and a `take` copy per batch."""
    phases = sorted(phases, key=lambda b: b.plan.shape[1])
    params = est.init_params(cfg.seed) if params is None else params.copy()
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 11]))
    velocity = {k: np.zeros_like(v) for k, v in params.weights.items()}
    for batch_all in phases:
        n = len(batch_all)
        for _ in range(cfg.epochs_per_phase):
            order = rng.permutation(n)
            for lo in range(0, n, cfg.batch_size):
                sub = batch_all.take(order[lo: lo + cfg.batch_size])
                for k, gk in reference_grads(params, sub, cfg).items():
                    velocity[k] = cfg.momentum * velocity[k] - cfg.lr * gk
                    params.weights[k] = params.weights[k] + velocity[k]
    return params


def test_train_keeps_the_bits_of_the_per_array_loop(tiny_data):
    """`train` (flat weight vector, one gather per batch, one K/V einsum)
    gives every weight the bits of the per-array loop: on the one-horizon
    tiny phases in either order (it runs them by increasing horizon), and
    continuing given params for one phase (post-training), which it leaves
    as they were."""
    h2, h3 = tiny_data["phases"]
    assert h2.mask is None and h3.mask is None
    given = rough_params(4)
    before = given.copy()
    cases = [([h2, h3], est.TrainConfig(epochs_per_phase=2, seed=0), None),
             ([h3, h2], est.TrainConfig(epochs_per_phase=3, seed=2), None),
             ([h3], est.TrainConfig(epochs_per_phase=2, seed=5), given)]
    for phases, cfg, params in cases:
        got = est.train(phases, cfg, params=params)
        want = reference_train(phases, cfg, params=params)
        assert list(got.weights) == list(want.weights)
        for k in want.weights:
            assert_array_equal(bits(got.weights[k]), bits(want.weights[k]), err_msg=k)
    assert (got.temperature, got.config_digest) == (given.temperature, given.config_digest)
    for k in given.weights:
        assert_array_equal(bits(given.weights[k]), bits(before.weights[k]), err_msg=k)
        assert not np.shares_memory(got.weights[k], given.weights[k]), k


def test_an_empty_phase_draws_nothing(tiny_data):
    """A phase without rows is skipped without drawing a permutation:
    training with it, before or after a real phase, gives the bits of
    training on the real phase alone."""
    h2, h3 = tiny_data["phases"]
    cfg = est.TrainConfig(epochs_per_phase=2, seed=3)
    for phases, alone in (([h2.take(slice(0, 0)), h3], h3), ([h2, h3.take(slice(0, 0))], h2)):
        got, want = est.train(phases, cfg), est.train([alone], cfg)
        for k in want.weights:
            assert_array_equal(bits(got.weights[k]), bits(want.weights[k]), err_msg=k)


class RecordingColumn:
    """An array's rows that remember how many rows each index selects."""

    def __init__(self, values):
        self.values, self.sizes = values, []

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, rows):
        self.sizes.append(len(self.values[rows]))
        return self.values[rows]


def test_sgd_gathers_each_batch_from_the_permutation():
    """`sgd` never indexes a column for more than batch_size rows: each
    epoch, it gathers every batch's rows from that epoch's permutation, so
    the batches are the permutation's consecutive slices."""
    column = RecordingColumn(np.arange(10.0))
    seen = []

    def step(model, rows):
        seen.append(rows.copy())
        return 0.0, {"w": np.zeros(1)}

    est.sgd({"w": np.zeros(1)}, lambda views: views, step, [(column,)], lr=0.1, momentum=0.9,
            batch_size=4, epochs=3, rng=np.random.default_rng(8))
    assert column.sizes == [4, 4, 2] * 3
    rng = np.random.default_rng(8)
    want = [order[lo:lo + 4] for order in (rng.permutation(10) for _ in range(3))
            for lo in range(0, 10, 4)]
    assert len(seen) == len(want)
    for got, rows in zip(seen, want):
        assert_array_equal(got, rows)


def test_train_raises_on_divergence(tiny_data):
    params = est.init_params(seed=9)
    params.weights["w_dist"] = params.weights["w_dist"] * 1e200
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(RuntimeError, match="diverged"):
        est.train([small_batch(tiny_data, 16)], est.TrainConfig(epochs_per_phase=1),
                  params=params)


def test_grad_rejects_empty_batch(tiny_data):
    with pytest.raises(ValueError):
        est.grad(est.init_params(0), small_batch(tiny_data, 8).take(np.array([], dtype=int)),
                 est.TrainConfig())


def test_calibration_never_hurts(trained_tiny, tiny_data):
    """The fitted temperature's NLL is at most T = 1's; the logits do not
    depend on the stored temperature, so calibrating again gives the same
    T, and the risks at any T are `calibrated_risk` of them."""
    held = tiny_data["heldout"]
    t = trained_tiny.temperature
    assert 0.25 <= t <= 4.0
    logit = est.logit_batch(trained_tiny, held)
    assert est.heldout_nll(logit, held.y_bin, t) <= est.heldout_nll(logit, held.y_bin, 1.0)
    clone = trained_tiny.copy()
    clone.temperature = 1.0
    assert_array_equal(est.logit_batch(clone, held), logit)
    assert est.calibrate_temperature(logit, held.y_bin) == t
    for params in (clone, trained_tiny):
        assert_array_equal(est.risk_batch(params, held),
                           est.calibrated_risk(logit, params.temperature))


def _blas() -> str:
    """The BLAS numpy was built with, as its build config names it."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return ", ".join(str(blas[k]) for k in ("name", "version", "openblas configuration")
                     if k in blas) or "unknown"


@pytest.mark.parametrize("horizons", [(2,), (2, 3)])
def test_logit_batch_blocks_keep_the_whole_forwards_bits(trained_tiny, tiny_data, horizons):
    """logit_batch scores in blocks of INFER_CHUNK rows and its logits
    equal, with ==, one whole forward's: on a batch of one horizon and on a
    padded mixed-horizon batch, each of 2 * INFER_CHUNK + 3 rows, so the
    last block is short."""
    columns = dg.SampleColumns.concat([dg.read_dataset(tiny_data["paths"][h]).columns
                                       for h in horizons])
    rows = np.random.default_rng(3).integers(0, len(columns.H), size=2 * est.INFER_CHUNK + 3)
    batch = columns.batch(rows)
    assert (batch.mask is None) == (len(horizons) == 1)
    whole = est._forward_batch(trained_tiny, batch.proprio, batch.z, batch.plan, batch.mask)[0]
    differ = int((est.logit_batch(trained_tiny, batch) != whole).sum())
    assert differ == 0, (f"{differ} of {len(batch)} logits in {est.INFER_CHUNK}-row blocks "
                         f"differ from one whole forward's; BLAS: {_blas()}")


def test_calibration_rejects_single_class(tiny_data):
    held = tiny_data["heldout"]
    neg_only = np.flatnonzero(held.y_bin < 0.5)[:10]
    logit = est.logit_batch(est.init_params(0), held.take(neg_only))
    with pytest.raises(ValueError, match="both classes"):
        est.calibrate_temperature(logit, held.y_bin[neg_only])


def test_predict_risk_over_plans_matches_loop(trained_tiny, tiny_data):
    b = small_batch(tiny_data, 1)
    h = horizon(b, 0)
    rng = np.random.default_rng(10)
    plans = rng.uniform(-0.02, 0.02, size=(5, h, 4))
    many = est.predict_risk(trained_tiny, np.tile(b.proprio[0], (5, 1)),
                            np.tile(b.z[0], (5, 1)), plans)
    assert many.risk.shape == (5,)
    for i in range(5):
        one = est.predict_risk(trained_tiny, b.proprio[0], b.z[0], plans[i])
        assert many.risk[i] == pytest.approx(one.risk, abs=1e-12)
        assert many.logit[i] == pytest.approx(one.logit, abs=1e-12)
        assert many.min_dist[i] == pytest.approx(one.min_dist, abs=1e-12)
        assert many.ttc[i] == pytest.approx(one.ttc, abs=1e-12)


def test_checkpoint_roundtrip(trained_tiny, tmp_path):
    path = tmp_path / "est.json"
    est.save_params(replace(trained_tiny, config_digest="abc"), path)
    back = est.load_params(path)
    assert back.config_digest == "abc"
    assert back.temperature == trained_tiny.temperature
    assert back.d_model == trained_tiny.d_model
    assert back.ttc_cap == trained_tiny.ttc_cap
    for name in trained_tiny.weights:
        assert_array_equal(back.weights[name], trained_tiny.weights[name])

    import json
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="version"):
        est.load_params(bad)

    payload["format_version"] = est.CHECKPOINT_VERSION
    payload["kind"] = "policy"
    bad.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="kind"):
        est.load_params(bad)


def save_params_reference(params, path):
    """The writer `save_params` replaced: json.dump of the same payload."""
    payload = {
        "format_version": est.CHECKPOINT_VERSION, "kind": "risk_estimator",
        "dims": {"d_model": params.d_model, "action": est.ACTION_DIM,
                 "proprio": est.PROPRIO_DIM, "vision": est.VISION_DIM,
                 "pos_enc": est.POS_ENC_DIM},
        "shapes": {k: list(v.shape) for k, v in params.weights.items()},
        "weights": {k: v.ravel().tolist() for k, v in params.weights.items()},
        "temperature": params.temperature, "ttc_cap": params.ttc_cap,
        "config_digest": params.config_digest,
    }
    with open(path, "w") as f:
        json.dump(payload, f)
        f.write("\n")


def test_save_params_bytes_match_json_dump(trained_tiny, tmp_path):
    params = replace(trained_tiny, config_digest="abc")
    params.weights = dict(params.weights, b_risk=np.array(-0.0), b_dist=np.array(5e-324))
    est.save_params(params, tmp_path / "new.json")
    save_params_reference(params, tmp_path / "ref.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("edit, key", [
    (lambda p: p["weights"]["w_risk"].__setitem__(3, float("nan")), "w_risk"),
    (lambda p: (p["weights"].pop("w_ttc"), p["shapes"].pop("w_ttc")), "w_ttc"),
    (lambda p: p["weights"].update(w_extra=[0.0]), "w_extra"),
    (lambda p: p["shapes"].update(w_query=[4, 8]), "w_query"),
    (lambda p: p["weights"]["b_value"].pop(), "b_value"),
    (lambda p: p["weights"].update(b_key="zeros"), "b_key"),
    (lambda p: p.update(temperature=-1.0), "temperature"),
    (lambda p: p.update(temperature=float("inf")), "temperature"),
    (lambda p: p.pop("temperature"), "temperature"),
    (lambda p: p.update(ttc_cap=0.0), "ttc_cap"),
    (lambda p: p["dims"].update(d_model=0), "d_model"),
    (lambda p: p.update(dims=[32]), "d_model"),
    (lambda p: p.pop("config_digest"), "config_digest"),
])
def test_load_params_rejects_bad_checkpoints(trained_tiny, tmp_path, edit, key):
    """A checkpoint whose weights are missing, extra, misshapen or not
    finite, or whose temperature or ttc_cap is not a finite number > 0,
    raises ValueError naming the key."""
    path = tmp_path / "est.json"
    est.save_params(trained_tiny, path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=key):
        est.load_params(path)


def set_key(key, value):
    """An edit of a checkpoint's text that sets one top-level key."""
    return lambda text: json.dumps({**json.loads(text), key: value})


def set_dim(key, value):
    """An edit of a checkpoint's text that sets one entry of its dims."""
    def edit(text):
        payload = json.loads(text)
        payload["dims"][key] = value
        return json.dumps(payload)
    return edit


CHECKPOINT_WRITERS = {
    "estimator": (lambda path: est.save_params(est.init_params(0), path), est.load_params),
    "policy": (lambda path: pol.save_policy(pol.init_policy(seed=5), path, config_digest="d"),
               pol.load_policy),
}


@pytest.mark.parametrize("kind, edit, what", [
    (kind, edit, what) for kind in CHECKPOINT_WRITERS for edit, what in [
        (lambda text: "[]", "not a checkpoint: a JSON list"),
        (lambda text: text[:-10], "not JSON"),
        (set_key("format_version", True), "unsupported checkpoint version True"),
        (set_key("config_digest", 7), "config_digest must be a string, got 7"),
        (set_key("extra", 1), "checkpoint keys"),
    ]] + [
    ("estimator", set_key("temperature", "2.5"), "temperature must be a finite number > 0"),
    ("estimator", set_key("ttc_cap", True), "ttc_cap must be a finite number > 0"),
    ("estimator", set_dim("proprio", 13), "dims must be an int d_model >= 1"),
    ("policy", set_key("a_max", True), "a_max must be a finite number > 0, got True"),
    ("policy", set_key("a_max", "0.5"), "a_max must be a finite number > 0"),
    ("policy", set_dim("hidden", 16), "dims must be the policy's"),
])
def test_checkpoint_readers_reject_bad_input(tmp_path, kind, edit, what):
    """Both networks' checkpoint readers raise ValueError, starting with the
    path, on a file that is not JSON or not an object, a bool version, an
    extra key, a field of the wrong type (a bool or a string is not a
    number) and dims other than the network's."""
    write, load = CHECKPOINT_WRITERS[kind]
    path = tmp_path / "ckpt.json"
    write(path)
    load(path)
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: ") and what in str(info.value)


def test_train_config_validation():
    with pytest.raises(ValueError):
        est.TrainConfig(gamma_early=0.0)
    with pytest.raises(ValueError):
        est.TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        est.TrainConfig(batch_size=-1)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def rough_params(seed):
    """Random weights scaled up so risks spread over (0, 1), with T != 1."""
    rng = np.random.default_rng(seed)
    params = est.init_params(seed=seed)
    for k in params.weights:
        params.weights[k] = 3.0 * params.weights[k] + rng.normal(0.0, 0.3, params.weights[k].shape)
    params.temperature = 1.7
    return params


def fields(pred):
    return pred.risk, pred.logit, pred.min_dist, pred.ttc


@pytest.mark.parametrize("groups", [1, 3, 8])
def test_grouped_predict_risk_equals_one_call_per_group(groups):
    """An (E, N, H, 4) call with broadcast contexts gives each group, with
    ==, the outputs of its own (N, H, 4) call; (E, 1, H, 4) descent rows
    give each row the outputs and plan gradient of its single (H, 4)
    plan."""
    params = rough_params(groups)
    rng = np.random.default_rng(40 + groups)
    for n, h in ((8, 5), (1, 3), (5, 1)):
        proprio = rng.normal(size=(groups, est.PROPRIO_DIM))
        z = rng.normal(size=(groups, est.VISION_DIM))
        plans = rng.uniform(-0.02, 0.02, size=(groups, n, h, 4))
        grouped = est.predict_risk(
            params, np.broadcast_to(proprio[:, None], (groups, n, est.PROPRIO_DIM)),
            np.broadcast_to(z[:, None], (groups, n, est.VISION_DIM)), plans)
        assert all(out.shape == (groups, n) for out in fields(grouped))
        for e in range(groups):
            alone = est.predict_risk(params, np.broadcast_to(proprio[e], (n, est.PROPRIO_DIM)),
                                     np.broadcast_to(z[e], (n, est.VISION_DIM)), plans[e])
            for got, want in zip(fields(grouped), fields(alone)):
                assert_array_equal(bits(got[e]), bits(want))
        rows = est.predict_risk(params, proprio[:, None], z[:, None], plans[:, :1])
        grads = est.risk_plan_gradient(params, rows)
        assert grads.shape == (groups, 1, h, 4)
        for e in range(groups):
            one = est.predict_risk(params, proprio[e], z[e], plans[e, 0])
            assert (one.risk, one.logit, one.min_dist, one.ttc) == \
                tuple(out[e, 0] for out in fields(rows))
            assert_array_equal(bits(grads[e, 0]), bits(est.risk_plan_gradient(params, one)))


@pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
def test_one_plan_is_row_0_0_of_a_one_block_call(h):
    """One (H, 4) plan runs through the batched forward as it is: its
    outputs have shape () and equal, with ==, row (0, 0) of the
    (1, 1, H, 4) call, and so does its plan gradient."""
    params = rough_params(7 + h)
    rng = np.random.default_rng(70 + h)
    for _ in range(20):
        proprio = rng.normal(size=est.PROPRIO_DIM)
        z = rng.normal(size=est.VISION_DIM)
        plan = rng.uniform(-0.02, 0.02, size=(h, 4))
        one = est.predict_risk(params, proprio, z, plan)
        block = est.predict_risk(params, proprio[None, None], z[None, None], plan[None, None])
        for got, want in zip(fields(one), fields(block)):
            assert np.shape(got) == ()
            assert_array_equal(bits(got), bits(want[0, 0]))
        grad = est.risk_plan_gradient(params, one)
        assert grad.shape == (h, 4)
        assert_array_equal(bits(grad), bits(est.risk_plan_gradient(params, block)[0, 0]))


def test_plan_gradient_skips_the_zero_upstream_heads(trained_tiny):
    """risk_plan_gradient, which feeds w_risk straight to the trunk, gives
    the bits of the path that also runs the distance and TTC heads with
    zero upstream, on (H, 4), (E, 1, H, 4) and (E, N, H, 4) plans."""
    params = trained_tiny
    rng = np.random.default_rng(61)
    for lead in ((), (3, 1), (3, 8)):
        proprio = rng.normal(size=(*lead, est.PROPRIO_DIM))
        z = rng.normal(size=(*lead, est.VISION_DIM))
        plans = rng.uniform(-0.02, 0.02, size=(*lead, 5, 4))
        pred = est.predict_risk(params, proprio, z, plans)
        ups = np.ones(lead or (1,)), np.zeros(lead or (1,)), np.zeros(lead or (1,))
        old = est._plan_grad(params, est._plan_backward(
            params, pred.cache, est._trunk_upstream(params, pred.cache, *ups)[0]))
        got = est.risk_plan_gradient(params, pred)
        assert got.shape == plans.shape
        assert_array_equal(bits(got), bits(old.reshape(plans.shape)))


@pytest.mark.parametrize("b", [1, 8])
def test_unmasked_forward_equals_all_ones_mask(b):
    """mask=None, the inference forward, and the plan gradient taken on its
    cache equal, with ==, the explicit all-ones-mask forward and the full
    backward on its cache."""
    params = rough_params(5)
    rng = np.random.default_rng(50 + b)
    for h in (1, 3, 5):
        proprio = rng.normal(size=(b, est.PROPRIO_DIM))
        z = rng.normal(size=(b, est.VISION_DIM))
        plan = rng.uniform(-0.02, 0.02, size=(b, h, 4))
        *masked, m_cache = est._forward_batch(params, proprio, z, plan, np.ones((b, h)))
        *unmasked, u_cache = est._forward_batch(params, proprio, z, plan)
        for got, want in zip(unmasked, masked):
            assert_array_equal(bits(got), bits(want))
        ups = (np.ones(b), np.zeros(b), np.zeros(b))
        want = est._plan_grad(params, est._backward_batch(params, m_cache, *ups)[1])
        got = est._plan_grad(params, est._plan_backward(
            params, u_cache, est._trunk_upstream(params, u_cache, *ups)[0]))
        assert_array_equal(bits(got), bits(want))
        if b == 1:
            pred = est.predict_risk(params, proprio[0], z[0], plan[0])
            assert (pred.logit, pred.min_dist, pred.ttc) == \
                (masked[0][0], masked[1][0], masked[2][0])
            assert_array_equal(bits(est.risk_plan_gradient(params, pred)), bits(want[0]))


def test_malformed_estimator_inputs_raise():
    """A plan without 4 columns or without steps, or a context that does not
    match the plans, raises naming the shapes instead of broadcasting."""
    params = est.init_params(seed=0)
    p, z = np.zeros(est.PROPRIO_DIM), np.zeros(est.VISION_DIM)
    plan = np.zeros((3, 4))
    for args in ((p, z, np.zeros((5, 1))), (p, z, np.zeros((0, 4))), (p, z, np.zeros(4)),
                 (p, z, np.zeros((1, 3, 4))), (np.zeros(13), z, plan),
                 (p, np.zeros((1, est.VISION_DIM)), plan)):
        with pytest.raises(ValueError, match=r"got (plans|proprio) \("):
            est.predict_risk(params, *args)
    # over a leading shape, the contexts must cover exactly that shape
    groups = np.zeros((2, 8, 3, 4))
    pg, zg = np.zeros((2, 8, est.PROPRIO_DIM)), np.zeros((2, 8, est.VISION_DIM))
    for args in ((pg, zg, np.zeros((2, 8, 5, 1))), (pg, zg, np.zeros((2, 8, 0, 4))),
                 (p, z, groups), (pg[:, 0], zg[:, 0], groups), (pg, zg, np.zeros((8, 3, 4))),
                 (pg[:1], zg, groups), (pg, zg[..., :9], groups)):
        with pytest.raises(ValueError, match=r"got (plans|proprio) \("):
            est.predict_risk(params, *args)


def test_scoring_an_encoded_context_equals_predict_risk():
    """`score_plans` against `encode_context` gives `predict_risk`'s outputs
    and plan gradient with ==, on (H, 4), (E, 1, H, 4) and (E, N, H, 4)
    plans, and so do the rows a context's `take` keeps; shapes that do not
    fit raise naming them."""
    params = rough_params(7)
    rng = np.random.default_rng(71)
    for lead in ((), (4, 1), (4, 8)):
        proprio = rng.normal(size=(*lead, est.PROPRIO_DIM))
        z = rng.normal(size=(*lead, est.VISION_DIM))
        plans = rng.uniform(-0.02, 0.02, size=(*lead, 5, 4))
        want = est.predict_risk(params, proprio, z, plans)
        ctx = est.encode_context(params, proprio, z)
        got = est.score_plans(params, ctx, plans)
        for f in ("risk", "logit", "min_dist", "ttc"):
            assert_array_equal(bits(getattr(got, f)), bits(getattr(want, f)), err_msg=f)
        assert_array_equal(bits(est.risk_plan_gradient(params, got)),
                           bits(est.risk_plan_gradient(params, want)))
        if lead:
            keep = np.array([True, False, True, True])
            part = est.score_plans(params, ctx.take(keep), plans[keep])
            assert_array_equal(bits(part.logit), bits(want.logit[keep]))
    p, z = np.zeros((2, est.PROPRIO_DIM)), np.zeros((2, est.VISION_DIM))
    for args in ((p[:, :13], z), (p, z[:1]), (p, z[:, :9]), (p[0], z)):
        with pytest.raises(ValueError, match=r"got proprio \("):
            est.encode_context(params, *args)
    ctx = est.encode_context(params, p, z)
    for plan in (np.zeros((3, 4)), np.zeros((2, 0, 4)), np.zeros((2, 3, 5)), np.zeros((1, 3, 4))):
        with pytest.raises(ValueError, match="leading shape"):
            est.score_plans(params, ctx, plan)


@pytest.mark.parametrize("blocks", [1, 3, 8])
@pytest.mark.parametrize("rows", [1, 8])
def test_stacked_matmul_equals_per_block_calls(blocks, rows):
    """numpy runs a stacked matmul as one call per leading block, so each
    block has the bits of its own call; the grouped estimator forward and
    the batched policy plan rest on this. Checked for every product of the
    estimator forward at its shapes, on the BLAS path (contiguous operands)
    and on the no-BLAS path numpy takes for the stride-0 context rows of a
    broadcast (proprio, z), for the policy network's two products on
    (E, 1, features) blocks, and for the plan-only backward's products on
    the (E, 1, ...) rows of a batched descent. A numpy or BLAS upgrade that
    breaks this fails here rather than silently moving bits."""
    rng = np.random.default_rng(60 + blocks * rows)
    d, h = est.D_MODEL, 5
    lead = (blocks, rows)
    w = {k: rng.normal(size=s) for k, s in (("action", (12, d)), ("square", (d, d)),
                                             ("proprio", (est.PROPRIO_DIM, d)), ("head", (d,)))}
    tokens = rng.normal(size=(*lead, h, d))
    cases = [
        (rng.normal(size=(*lead, h, 12)), w["action"]),                   # action tokens
        (tokens, w["square"]),                                             # query
        (rng.normal(size=(*lead, 2, d)), w["square"]),                    # key, value
        (tokens, np.swapaxes(rng.normal(size=(*lead, 2, d)), -1, -2)),    # scores
        (rng.normal(size=(*lead, h, 2)), rng.normal(size=(*lead, 2, d))),  # attention
        (rng.normal(size=(*lead, d)), w["square"]),                       # trunk
        (rng.normal(size=(*lead, d)), w["head"]),                         # heads
        (np.broadcast_to(rng.normal(size=(blocks, 1, est.PROPRIO_DIM)),   # stride-0 context
                         (*lead, est.PROPRIO_DIM)), w["proprio"]),
        (rng.normal(size=(blocks, 1, pol.POLICY_IN)),                     # policy hidden layer
         rng.normal(size=(pol.POLICY_IN, pol.POLICY_HIDDEN))),
        (rng.normal(size=(blocks, 1, pol.POLICY_HIDDEN)),                 # policy output
         rng.normal(size=(pol.POLICY_HIDDEN, pol.POLICY_OUT))),
    ]
    # the plan-only backward on (E, 1, ...) descent rows, against its B=1
    # shapes, with the transposed weight views it multiplies by
    desc = (blocks, 1)
    cases += [
        (rng.normal(size=(*desc, d)), w["square"].T),                     # a2, a1 -> trunk
        (rng.normal(size=(*desc, h, d)),                                  # g_O @ V.mT
         np.swapaxes(rng.normal(size=(*desc, 2, d)), -1, -2)),
        (rng.normal(size=(*desc, h, 2)), rng.normal(size=(*desc, 2, d))),  # g_scores @ K
        (rng.normal(size=(*desc, h, d)), w["square"].T),                  # g_Q @ w_query.T
        (rng.normal(size=(*desc, h, d)), w["action"].T),                  # g_act_pre @ w_action.T
    ]
    for a, b in cases:
        stacked = a @ b
        for e in range(blocks):
            alone = a[e] @ (b[e] if b.ndim == a.ndim else b)
            assert_array_equal(bits(stacked[e]), bits(alone))
