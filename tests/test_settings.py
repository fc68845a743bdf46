"""Each setting's declared allowed values: what the one checker accepts, the
hand-written rules it replaced, and the keys its messages name."""

import dataclasses
import functools
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selfreid.data import SyntheticSpec, generate_synthetic
from selfreid.errors import SelfReidError
from selfreid.losses import LossWeights, Temperatures
from selfreid.rerank import ClusterConfig
from selfreid.settings import Settings
from selfreid.trainer import TrainConfig, train

from oracles import settings_oracle, train_rejects

# Every bound the rules name, each with its neighbours on either side.
BOUNDS = (0.0, 1.0, 2.0)
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308,
               *(x for b in BOUNDS
                 for x in (math.nextafter(b, -math.inf), b, -b, math.nextafter(b, math.inf)))]
EDGE_INTS = [-2**63, -10**30, -2, -1, 0, 1, 2, 3, 2**31, 2**63, 10**30, 10**400]
VALUES = {
    float: st.sampled_from(EDGE_FLOATS) | st.floats(),
    int: st.sampled_from(EDGE_INTS) | st.integers(),
    str: st.sampled_from(["aware", "agnostic", "pseudo", "oracle", "", "AWARE", " aware"])
    | st.text(max_size=3),
}

# (key, the settings object that holds it, field) for a fresh TrainConfig and SyntheticSpec
TRAIN_KEYS = list(TrainConfig.leaves())
SPEC_FIELDS = dataclasses.fields(SyntheticSpec)


def holder(config, path):
    return functools.reduce(getattr, path[:-1], config)


def rejects(settings) -> bool:
    try:
        settings.validate()
    except SelfReidError:
        return True
    return False


@pytest.mark.parametrize("key, path, f", TRAIN_KEYS, ids=[key for key, _, _ in TRAIN_KEYS])
@given(data=st.data())
def test_train_config_key_is_checked_as_the_hand_written_rules_did(key, path, f, data):
    config = TrainConfig()
    group = holder(config, path)
    setattr(group, path[-1], data.draw(VALUES[f.type], label=key))
    assert rejects(config) == settings_oracle(config)
    assert rejects(group) == settings_oracle(group)


@pytest.mark.parametrize("f", SPEC_FIELDS, ids=[f.name for f in SPEC_FIELDS])
@given(data=st.data())
def test_synthetic_spec_field_is_checked_as_the_hand_written_rules_did(f, data):
    spec = SyntheticSpec(**{f.name: data.draw(VALUES[f.type], label=f.name)})
    assert rejects(spec) == settings_oracle(spec)


@given(st.sampled_from(EDGE_INTS) | st.integers(-2, 40),
       st.integers(-2, 2) | st.sampled_from(EDGE_INTS))
def test_k1_and_k2_pairs_are_checked_as_the_hand_written_rules_did(k1, offset):
    # offsets of -2..2 put k2 on both sides of k2 <= k1 and at it
    config = TrainConfig(cluster=ClusterConfig(k1=k1, k2=k1 + offset))
    assert rejects(config) == settings_oracle(config)
    assert rejects(config.cluster) == settings_oracle(config.cluster)


@given(st.data())
def test_several_bad_keys_are_checked_as_the_hand_written_rules_did(data):
    config = TrainConfig()
    for key, path, f in data.draw(st.lists(st.sampled_from(TRAIN_KEYS), max_size=4)):
        setattr(holder(config, path), path[-1], data.draw(VALUES[f.type], label=key))
    assert rejects(config) == settings_oracle(config)


LEAVES = ([(key, holder(TrainConfig(), path), f) for key, path, f in TRAIN_KEYS]
          + [(f.name, SyntheticSpec(), f) for f in SPEC_FIELDS])


@pytest.mark.parametrize("key, settings, f", LEAVES, ids=[key for key, _, _ in LEAVES])
def test_every_key_declares_allowed_values_that_its_default_passes(key, settings, f):
    # a key added without settings.setting(default, help, allowed) fails here
    assert isinstance(settings, Settings)
    assert f.metadata.keys() >= {"help", "allowed", "allows"}, f"{key} declares no rule"
    assert f.metadata["allows"](settings, f.default), f"{key}'s default is not allowed"


@pytest.mark.parametrize("group, keys", [
    (Temperatures, ["tau_agnostic", "tau_cross", "tau_hard", "tau_soft"]),
    (LossWeights, ["lambda_hard", "lambda_soft"]),
], ids=["temperatures", "weights"])
def test_a_group_alone_yields_its_prefixed_keys(group, keys):
    assert [key for key, _, _ in group.leaves()] == keys
    assert list(group().values()) == keys


@pytest.mark.parametrize("settings", [TrainConfig(), SyntheticSpec(), Temperatures()],
                         ids=["train", "spec", "temperatures"])
def test_each_leaf_path_reaches_the_attribute_it_names(settings):
    for key, path, f in type(settings).leaves():
        assert path[-1] == f.name, key
        assert f in dataclasses.fields(holder(settings, path)), key
        assert functools.reduce(getattr, path, settings) == f.default, key
    assert settings.values() == {key: f.default for key, _, f in type(settings).leaves()}


def test_the_first_bad_key_in_manifest_order_is_named():
    bad = {int: -1, float: math.nan, str: "none"}
    config = TrainConfig()
    for _, path, f in TRAIN_KEYS:
        setattr(holder(config, path), path[-1], bad[f.type])
    for key, path, f in TRAIN_KEYS:
        with pytest.raises(SelfReidError) as info:
            config.validate()
        assert str(info.value) == f"need {key} in {f.metadata['allowed']}, got {bad[f.type]!r}"
        setattr(holder(config, path), path[-1], f.default)
    config.validate()


@pytest.mark.parametrize("settings, message", [
    (Temperatures(cross=0.0), "need tau_cross in (0, inf), got 0.0"),
    (LossWeights(soft=math.inf), "need lambda_soft in [0, inf), got inf"),
    (ClusterConfig(k1=5, k2=8), "need k2 in [1, k1], got 8"),
    (TrainConfig(memory_mode="both"), "need memory_mode in ('aware', 'agnostic'), got 'both'"),
    (SyntheticSpec(n_cameras=0), "need n_cameras in [1, inf), got 0"),
], ids=["temperature", "weight", "k2-above-k1", "choice", "spec"])
def test_message_names_the_key_its_allowed_values_and_the_value(settings, message):
    with pytest.raises(SelfReidError, match=f"^{re.escape(message)}$"):
        settings.validate()


def test_train_checks_the_settings_once(monkeypatch):
    dataset = generate_synthetic(SyntheticSpec(n_identities=10))[0]
    checked, validate = [], Settings.validate

    def counting(settings):
        checked.append(type(settings).__name__)
        validate(settings)

    monkeypatch.setattr(Settings, "validate", counting)
    # pseudo labels and steps in every epoch, so each kernel that took a group ran
    _, reports = train(TrainConfig(epochs=2, iterations=10), dataset)
    assert [r.skipped_iterations for r in reports] == [0, 0]
    assert checked == ["TrainConfig"]


def test_callers_that_check_a_group_alone_name_its_keys_as_the_cli_does(monkeypatch):
    # total_loss trusts its caller; train checks the weights before the first step
    train_rejects(monkeypatch, TrainConfig(weights=LossWeights(hard=-1.0)),
                  "need lambda_hard in [0, inf), got -1.0")
    with pytest.raises(SelfReidError, match=re.escape("need sigma_camera in [0, inf), got nan")):
        generate_synthetic(SyntheticSpec(sigma_camera=math.nan))
