"""Config parsing: strict keys, type coercion rules, validation, and the
mapping onto the runtime config objects."""

import json
from dataclasses import fields

import pytest

from riskgate import cli
from riskgate import config as cf
from riskgate import datasetgen as dg
from riskgate import estimator as est
from riskgate import policy as pol
from riskgate import safeguard as sg
from riskgate import world as wd


def test_defaults_from_empty_dict():
    cfg = cf.config_from_dict({})
    assert cfg.seed == 0
    assert cfg.eval.mode == "gated"
    assert cfg.world.a_max == 0.02
    assert cfg.tasks.ids == list(wd.TASK_IDS)


def test_omitted_keys_take_the_runtime_defaults():
    cfg = cf.config_from_dict({})
    pairs = ((cfg.world_config(), wd.default_world()),
             (cfg.task_params(), wd.TaskParams()),
             (cfg.datagen_config(), dg.DatagenConfig()),
             (cfg.gate_config(), sg.GateConfig()),
             (cfg.estimator_train_config(), est.TrainConfig()),
             (cfg.policy_train_config(), pol.PolicyTrainConfig()))
    for built, default in pairs:
        for f in fields(default):
            if f.name not in ("arm_left", "arm_right"):
                assert getattr(built, f.name) == getattr(default, f.name), \
                    (type(default).__name__, f.name)


def test_unknown_keys_are_rejected():
    with pytest.raises(cf.ConfigError, match="top-level"):
        cf.config_from_dict({"wat": {}})
    with pytest.raises(cf.ConfigError, match="unknown keys"):
        cf.config_from_dict({"gate": {"tau_upp": 0.5}})
    with pytest.raises(cf.ConfigError, match="must be an object"):
        cf.config_from_dict({"gate": 3})


def test_type_rules():
    # ints accepted where floats are expected
    cfg = cf.config_from_dict({"estimator": {"lr": 1}})
    assert cfg.estimator.lr == 1.0 and isinstance(cfg.estimator.lr, float)
    # integral floats accepted where ints are expected
    cfg = cf.config_from_dict({"eval": {"workers": 2.0}})
    assert cfg.eval.workers == 2 and isinstance(cfg.eval.workers, int)
    for bad in ({"eval": {"workers": 2.5}},
                {"eval": {"workers": True}},
                {"eval": {"soft_gate": 1}},
                {"eval": {"logs_dir": 5}},
                {"gate": {"tau_up": "high"}},
                {"datagen": {"horizons": [2.5]}},
                {"datagen": {"horizons": [True]}},
                {"datagen": {"horizons": ["a"]}},
                {"seed": "zero"},
                {"seed": True},
                {"seed": -3}):
        with pytest.raises(cf.ConfigError):
            cf.config_from_dict(bad)


def test_semantic_validation():
    for bad in ({"eval": {"mode": "yolo"}},
                {"eval": {"H": 0}},
                {"eval": {"H": 11}},
                {"eval": {"n_candidates": 0}},
                {"datagen": {"horizons": [0]}},
                {"tasks": {"ids": ["flying"]}},
                {"tasks": {"ids": []}},
                {"tasks": {"ids": ["parallel_place", "parallel_place"]}},
                {"estimator": {"heldout_frac": 0.0}},
                {"gate": {"tau_up": 0.2, "tau_down": 0.4}},
                {"gate": {"r_sat": 0.1}}):
        with pytest.raises(cf.ConfigError):
            cf.config_from_dict(bad)
    # values the runtime dataclasses reject, each named in the message
    for section, key, value in (("world", "dt", 0.0), ("world", "dt", -0.1),
                                ("world", "dt", float("inf")), ("world", "noise_sigma", -0.001),
                                ("world", "a_max", 0.0), ("world", "a_max", float("inf")),
                                ("world", "mu", float("nan")), ("world", "mu", -0.05),
                                ("world", "inflation", -0.05),
                                ("world", "inflation", float("nan")),
                                ("world", "grasp_length", -0.1),
                                ("world", "grasp_radius", float("inf")),
                                ("datagen", "sigma_a", -0.01), ("datagen", "sigma_a", float("nan")),
                                ("datagen", "episodes_per_task", 0),
                                ("datagen", "horizons", [2, 2]),
                                ("datagen", "horizons", [5, 2, 3, 2]),
                                ("tasks", "max_steps", 0),
                                ("tasks", "success_tolerance", float("nan")),
                                ("tasks", "success_tolerance", -1.0),
                                ("tasks", "success_tolerance", 0.0),
                                ("tasks", "min_start_clearance", -float("inf")),
                                ("tasks", "goal_jitter", float("nan")),
                                ("tasks", "goal_jitter", -0.01),
                                ("tasks", "start_q_jitter", float("inf")),
                                ("tasks", "max_reset_draws", 0),
                                ("gate", "eta", 0.0), ("gate", "eta", -0.05),
                                ("gate", "eta", float("nan")), ("gate", "eta", float("inf")),
                                ("gate", "max_iters", 0), ("gate", "max_halvings", -1),
                                ("gate", "lambda_reg", -0.1), ("gate", "alpha", -1.0),
                                ("gate", "beta", -2.0), ("gate", "beta", float("nan")),
                                ("eval", "latency_trials", 0), ("eval", "latency_warmup", -1),
                                ("eval", "sigma_a", -0.01), ("eval", "sigma_a", float("nan")),
                                ("eval", "workers", 0), ("tasks", "episodes_per_task", 0),
                                ("gate", "fn_target", 2.0), ("gate", "fn_target", -0.1),
                                ("gate", "fn_target", float("nan")),
                                ("estimator", "lr", float("nan")),
                                ("estimator", "momentum", float("nan")),
                                ("estimator", "w_pos", float("nan")),
                                ("estimator", "lr", float("inf")),
                                ("policy", "batch_size", 0), ("policy", "epochs", -1),
                                ("policy", "lr", float("nan")), ("policy", "lr", 0.0),
                                ("policy", "momentum", float("inf")),
                                ("policy", "kappa", float("nan")), ("policy", "kappa", -1.0),
                                ("policy", "kappa", float("inf")),
                                ("policy", "explore_noise", -1.0),
                                ("policy", "explore_noise", float("nan")),
                                ("policy", "demo_episodes_per_task", 0),
                                ("policy", "rollout_episodes_per_task", 0)):
        with pytest.raises(cf.ConfigError, match=key):
            cf.config_from_dict({section: {key: value}})
    with pytest.raises(cf.ConfigError, match="success_tolerance"):
        cf.config_from_dict(json.loads('{"tasks": {"success_tolerance": NaN}}'))


NON_FINITE = (("gate", "d0", float("nan")), ("gate", "d0", float("inf")),
              ("gate", "d0", -float("inf")), ("gate", "r_sat", float("nan")),
              ("gate", "alpha", float("inf")), ("gate", "beta", float("inf")),
              ("gate", "lambda_reg", float("inf")),
              ("estimator", "lambda_bce", float("nan")), ("estimator", "lambda_bce", -1.0),
              ("estimator", "lambda_d", float("nan")), ("estimator", "lambda_d", -1.0),
              ("estimator", "lambda_ttc", float("nan")), ("estimator", "lambda_ttc", -0.5),
              ("datagen", "d_thresh", float("nan")),
              ("datagen", "sigma_a", float("inf")), ("eval", "sigma_a", float("inf")))


@pytest.mark.parametrize("section,key,value", NON_FINITE)
def test_non_finite_gate_loss_and_label_settings(section, key, value, tmp_path, capsys):
    """A gate, loss-weight or near-miss setting that is NaN, infinite or a
    negative weight is a config error (exit 1) naming the key; zero loss
    weights and an infinite r_sat (no halting) still load."""
    with pytest.raises(cf.ConfigError, match=key):
        cf.config_from_dict({section: {key: value}})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {key: value}}))
    assert cli.main(["gen-data", "--config", str(path)]) == 1
    assert key in capsys.readouterr().err
    cfg = cf.config_from_dict({"estimator": {"lambda_bce": 0, "lambda_d": 0.0, "lambda_ttc": 0},
                               "gate": {"r_sat": float("inf")}})
    assert cfg.estimator_train_config().lambda_d == 0.0


def test_load_config_errors(tmp_path):
    with pytest.raises(cf.ConfigError, match="not found"):
        cf.load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(cf.ConfigError, match="valid JSON"):
        cf.load_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"seed": 3, "eval": {"mode": "ungated"}}))
    cfg = cf.load_config(good)
    assert cfg.seed == 3 and cfg.eval.mode == "ungated"


def test_world_values_from_json_text_are_checked(tmp_path, capsys):
    """json reads NaN and Infinity literals; a world value that would make
    every clearance or step meaningless is a config error (exit 1) whose
    message names the key, while zero inflation and grasp size pass."""
    for text, key in (('{"mu": NaN}', "mu"), ('{"inflation": -0.05}', "inflation"),
                      ('{"a_max": Infinity}', "a_max")):
        path = tmp_path / "cfg.json"
        path.write_text('{"eval": {"mode": "ungated"}, "world": %s}' % text)
        with pytest.raises(cf.ConfigError, match=key):
            cf.load_config(path)
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(path)]) == 1
        assert f"config error: world.{key} must be finite" in capsys.readouterr().err
    cfg = cf.config_from_dict({"world": {"inflation": 0, "grasp_length": 0.0,
                                         "grasp_radius": 0.0}})
    assert cfg.world_config().inflation == 0.0


@pytest.mark.parametrize("section,key,value,message", [
    ("world", "mu", float("nan"), "world.mu must be finite and > 0, got nan"),
    ("tasks", "max_steps", 0, "tasks.max_steps must be >= 1, got 0"),
    ("gate", "eta", 0.0, "gate.eta must be positive and finite, got 0.0"),
    ("gate", "tau_down", 0.9, "gate: need 0 < tau_down < tau_up < 1"),
    ("datagen", "sigma_a", float("inf"), "datagen.sigma_a must be finite and >= 0, got inf"),
    ("estimator", "lr", float("nan"), "estimator.lr must be finite and > 0, got nan"),
    ("policy", "lr", 0.0, "policy.lr must be finite and > 0, got 0.0")])
def test_runtime_config_errors_name_their_section(section, key, value, message, tmp_path,
                                                  capsys):
    """A value a runtime dataclass rejects is a config error (exit 1) whose
    message names its section, so datagen.sigma_a and eval.sigma_a read
    apart; a message that opens with no key of the section follows a
    colon."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {key: value}}))
    assert cli.main(["gen-data", "--config", str(path)]) == 1
    assert f"config error: {message}\n" in capsys.readouterr().err


def test_derived_configs_carry_values():
    cfg = cf.config_from_dict({
        "seed": 9,
        "world": {"a_max": 0.03, "inflation": 0.001},
        "tasks": {"ids": ["crossing_transfer"], "max_steps": 120},
        "datagen": {"horizons": [2, 4], "episodes_per_task": 5},
        "gate": {"tau_up": 0.6, "tau_down": 0.2, "lambda_reg": 0.3, "eta": 0.01},
        "estimator": {"epochs_per_phase": 7},
        "policy": {"epochs": 11},
    })
    w = cfg.world_config()
    assert w.a_max == 0.03 and w.inflation == 0.001
    assert cfg.task_params().max_steps == 120
    d = cfg.datagen_config()
    assert d.seed == 9 and d.horizons == (2, 4) and d.tasks == ("crossing_transfer",)
    g = cfg.gate_config()
    assert g.tau_up == 0.6 and g.a_max == 0.03
    assert g.lambda_reg == 0.3 and g.eta == 0.01
    assert cfg.estimator_train_config().epochs_per_phase == 7
    assert cfg.estimator_train_config().seed == 9
    assert cfg.policy_train_config().epochs == 11


def test_shipped_default_config_is_valid():
    import pathlib
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "default.json"
    cfg = cf.load_config(path)
    assert cfg.eval.mode == "gated"
    assert cfg.datagen.episodes_per_task >= 100  # criterion-scale dataset
    assert cfg.tasks.episodes_per_task >= 100
