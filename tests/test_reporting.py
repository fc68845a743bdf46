import argparse
import re

import pytest

from selfreid import cli, data
from selfreid.errors import SelfReidError
from selfreid.reporting import (
    RETIRED_KEYS,
    config_from_dict,
    config_values,
    read_keyvalue,
    write_keyvalue,
)
from selfreid.trainer import TrainConfig

# write_keyvalue(TrainConfig().values()) as written while the keys were
# still listed by hand: the same keys, order and repr floats must come out.
DEFAULT_MANIFEST = """\
epochs = 20
iterations = 50
n_identities = 8
n_instances = 4
tau_agnostic = 0.5
tau_cross = 0.07
tau_hard = 0.1
tau_soft = 0.4
lambda_hard = 1.0
lambda_soft = 10.0
k1 = 30
k2 = 6
eps = 0.55
min_samples = 4
noise_sigma = 0.1
dropout = 0.15
restyle_prob = 0.5
alpha = 0.999
base_lr = 0.00035
warmup_epochs = 10
weight_decay = 0.0005
memory_mode = aware
n_neg = 50
out_dim = 32
seed = 0
labels_mode = pseudo
checkpoint_every = 0
eval_every = 0
"""
PINNED = dict(line.split(" = ") for line in DEFAULT_MANIFEST.splitlines())

STRING_CHOICES = {"memory_mode": "agnostic", "labels_mode": "oracle"}


def non_default_values():
    values = {}
    for key, value in TrainConfig().values().items():
        if isinstance(value, str):
            values[key] = STRING_CHOICES[key]
        elif isinstance(value, int):
            values[key] = value + 1
        else:
            values[key] = value / 2
    return values


def test_default_manifest_is_pinned(tmp_path):
    path = tmp_path / "manifest.txt"
    write_keyvalue(path, TrainConfig().values())
    assert path.read_text() == DEFAULT_MANIFEST


def test_train_config_leaves_are_the_pinned_manifest_keys_in_order():
    assert [key for key, _, _ in TrainConfig.leaves()] == list(PINNED)


def test_every_key_round_trips_with_a_non_default_value(tmp_path):
    values = non_default_values()
    defaults = TrainConfig().values()
    assert all(values[key] != defaults[key] for key in defaults)
    cfg = config_from_dict(values)
    assert cfg.values() == values
    assert (cfg.batch.n_instances, cfg.temperatures.cross, cfg.weights.soft,
            cfg.cluster.eps, cfg.perturbation.dropout) == (
        values["n_instances"], values["tau_cross"], values["lambda_soft"],
        values["eps"], values["dropout"])
    path = tmp_path / "config.txt"
    write_keyvalue(path, values)
    assert config_from_dict(read_keyvalue(path)).values() == values


@pytest.mark.parametrize("block_bytes", [5, data._BLOCK_BYTES])
def test_keyvalue_lines_across_blocks(tmp_path, monkeypatch, block_bytes):
    monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
    path = tmp_path / "config.txt"
    path.write_bytes("# r\u00e9sum\u00e9\r\nepochs = 3\rseed = 7\n\nepochs = 4\n".encode())
    with pytest.raises(SelfReidError, match=re.escape(
            f"{path}:5: key epochs repeated (first on line 2)")):
        read_keyvalue(path)
    # a byte that is not UTF-8 comes first, wherever it is
    path.write_bytes(b"epochs\n" + b"seed = 7\n" * 4 + b"# \xd0\n")
    with pytest.raises(SelfReidError, match=re.escape(
            f"{path}: not UTF-8 text: byte 0xd0 at offset 45 cannot be decoded")):
        read_keyvalue(path)


def test_unknown_key_rejected():
    with pytest.raises(SelfReidError, match=re.escape("unknown config keys: ['tau']")):
        config_from_dict({"epochs": 3, "tau": 0.1})
    with pytest.raises(SelfReidError, match=re.escape("run.cfg: unknown config keys: ['tau']")):
        config_values({"epochs": 3, "tau": 0.1}, "run.cfg")


@pytest.mark.parametrize("key, value", [
    ("epochs", "abc"),
    ("epochs", "2.0"),
    ("epochs", 2.0),
    ("seed", "x"),
    ("tau_cross", "warm"),
])
def test_wrong_type_rejected(key, value):
    with pytest.raises(SelfReidError, match=re.escape(f"config key {key}: expected ")) as info:
        config_from_dict({key: value})
    assert repr(value) in str(info.value)
    with pytest.raises(SelfReidError, match=re.escape(f"run.cfg: config key {key}: ")):
        config_values({key: value}, "run.cfg")


@pytest.mark.parametrize("key, value", [("hard_negatives", "hardest"),
                                        ("consistency_variant", "strong_strong"),
                                        ("hidden_dim", "256"), ("restyle_scale", "0.5")])
def test_retired_key_with_a_removed_variant_rejected(key, value):
    with pytest.raises(SelfReidError, match=re.escape(
            f"old.txt: config key {key} = {value}: that variant was removed; "
            f"only {key} = {RETIRED_KEYS[key]} remains")):
        config_values({"epochs": "3", key: value}, "old.txt")


def test_train_flags_keep_metavar_and_default_in_help():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in subparsers.choices["train"]._actions if a.dest in PINNED}
    assert list(flags) == list(PINNED)
    for key, text in PINNED.items():
        action = flags[key]
        # floats are written with repr, so only they hold a '.'
        metavar = "STR" if key in STRING_CHOICES else "FLOAT" if "." in text else "INT"
        assert action.option_strings == [f"--{key.replace('_', '-')}"]
        assert action.metavar == metavar
        assert action.help.endswith(f" (default: {text})")
