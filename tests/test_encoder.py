import re
from types import SimpleNamespace

import numpy as np
import pytest

from selfreid.encoder import (
    ADAM_EPS,
    BETA1,
    BETA2,
    PARAM_FIELDS,
    EncoderParams,
    backward,
    effective_lr,
    ema_update,
    forward,
    init_optimizer,
    init_pair,
    init_params,
    load_checkpoint,
    normalize_rows_vjp,
    optimizer_step,
    save_checkpoint,
)
from selfreid.errors import SelfReidError
from selfreid.trainer import TrainConfig

from oracles import (
    adam_oracle,
    ema_oracle,
    finite_difference,
    max_rel_err,
    scalar_forward,
    train_rejects,
    write_version_1_checkpoint,
)


def small_params(seed, d_in=6, hidden=5, d_out=4):
    rng = np.random.default_rng(seed)
    return init_params(d_in, hidden, d_out, rng)


def test_forward_rows_are_unit():
    params = small_params(0)
    rng = np.random.default_rng(1)
    out = forward(params, rng.normal(size=(9, 6))).out
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)


def test_forward_zero_final_layer_is_input_independent():
    params = small_params(2)
    params.w2[:] = 0.0
    params.b2[:] = np.array([3.0, 4.0, 0.0, 0.0])
    rng = np.random.default_rng(3)
    out = forward(params, rng.normal(size=(5, 6))).out
    np.testing.assert_allclose(out, np.tile([0.6, 0.8, 0.0, 0.0], (5, 1)), atol=1e-12)


def test_forward_matches_scalar_oracle():
    params = small_params(4)
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(7, 6))
    np.testing.assert_allclose(forward(params, batch).out, scalar_forward(params, batch),
                               atol=1e-12)


def test_stacked_forward_matches_separate_passes():
    params = small_params(12, d_in=64, hidden=128, d_out=32)
    rng = np.random.default_rng(13)
    perturbed, clean = rng.normal(size=(32, 64)), rng.normal(size=(32, 64))
    stacked = forward(params, np.concatenate((perturbed, clean))).out
    np.testing.assert_allclose(stacked[:32], forward(params, perturbed).out, rtol=0, atol=1e-15)
    np.testing.assert_allclose(stacked[32:], forward(params, clean).out, rtol=0, atol=1e-15)


def test_forward_norms_are_linalg_norms_bit_for_bit():
    # w1 = I and one-hot inputs give row j the raw output tanh(0.8) * w2[j],
    # so rows reach 1e-160 (squares below the normal range) and 1e160
    # (squares overflow); the random rows mix every scale
    rng = np.random.default_rng(14)
    scales = np.array([[1.0], [1e-160], [1e160], [3.0]])
    params = EncoderParams(w1=np.eye(4), b1=np.zeros(4), w2=rng.normal(size=(4, 5)) * scales,
                           b2=np.zeros(5))
    batch = np.vstack((0.8 * np.eye(4), rng.normal(size=(6, 4))))
    with np.errstate(over="ignore"):
        fwd = forward(params, batch)
        raw = fwd.hidden @ params.w2 + params.b2
        expected = np.linalg.norm(raw, axis=1, keepdims=True)
    assert fwd.norms.tobytes() == expected.tobytes()
    assert 0.0 < fwd.norms[1, 0] < 1e-150 and np.isinf(fwd.norms[2, 0])


def test_forward_dimension_mismatch():
    with pytest.raises(SelfReidError, match=re.escape("batch shape (3, 7), encoder expects (*, 6)")):
        forward(small_params(0), np.zeros((3, 7)))


def test_backward_zero_gradient_gives_zero():
    params = small_params(6)
    rng = np.random.default_rng(7)
    grads = backward(params, forward(params, rng.normal(size=(4, 6))), np.zeros((4, 4)))
    for f in PARAM_FIELDS:
        assert np.all(getattr(grads, f) == 0.0)


def test_normalize_vjp_at_3_4_matches_finite_differences():
    v = np.array([[3.0, 4.0]])
    g_out = np.array([[0.7, -1.3]])

    def objective(vec):
        return float(np.sum((vec / np.linalg.norm(vec)) * g_out))

    analytic = normalize_rows_vjp(v / 5.0, np.array([[5.0]]), g_out)
    fd = finite_difference(lambda x: objective(x), v.copy())
    assert max_rel_err(analytic, fd) < 1e-4


@pytest.mark.parametrize("seed", range(8))
def test_backward_matches_finite_differences(seed):
    params = small_params(seed)
    rng = np.random.default_rng(100 + seed)
    batch = rng.normal(size=(3, 6))
    g_out = rng.normal(size=(3, 4))
    analytic = backward(params, forward(params, batch), g_out)
    for f in PARAM_FIELDS:
        tensor = getattr(params, f)

        def objective(_):
            return float(np.sum(forward(params, batch).out * g_out))

        fd = finite_difference(objective, tensor)
        assert max_rel_err(getattr(analytic, f), fd) < 1e-4, f"param {f}"


def test_ema_update_basic_value():
    pair = init_pair(3, 4, 2, np.random.default_rng(0))
    pair.momentum.w1[:] = 0.0
    pair.online.w1[:] = 1.0
    ema_update(pair, 0.999)
    np.testing.assert_allclose(pair.momentum.w1, 0.001, atol=1e-15)


def test_ema_update_frozen_and_copy_extremes():
    pair = init_pair(3, 4, 2, np.random.default_rng(1))
    before = pair.momentum.w1.copy()
    pair.online.w1 += 5.0
    ema_update(pair, 1.0)
    np.testing.assert_array_equal(pair.momentum.w1, before)

    ema_update(pair, 0.0)
    np.testing.assert_array_equal(pair.momentum.w1, pair.online.w1)


def test_fields_are_views_of_the_flat_buffer():
    params = small_params(14)
    assert params.flat.size == sum(getattr(params, f).size for f in PARAM_FIELDS)
    for f in PARAM_FIELDS:
        assert np.shares_memory(getattr(params, f), params.flat)
    params.b2[1] = 7.0
    assert params.flat[params.w1.size + params.b1.size + params.w2.size + 1] == 7.0
    copy = params.copy()
    copy.flat[:] = 0.0
    assert params.b2[1] == 7.0


def unpacked(params):
    """Separate copies of the four arrays, outside any flat buffer."""
    return SimpleNamespace(**{f: getattr(params, f).copy() for f in PARAM_FIELDS})


def test_flat_adam_and_ema_are_bit_equal_to_per_field_updates():
    rng = np.random.default_rng(15)
    pair = init_pair(6, 5, 4, rng)
    state = init_optimizer(pair.online)
    online, momentum = unpacked(pair.online), unpacked(pair.momentum)
    m, v = unpacked(state.m), unpacked(state.v)
    for step in range(1, 6):
        grads = EncoderParams(*(rng.normal(size=getattr(pair.online, f).shape)
                               for f in PARAM_FIELDS))
        optimizer_step(state, pair.online, grads, lr=0.003, weight_decay=0.01)
        adam_oracle(m, v, online, grads, step, 0.003, 0.01, BETA1, BETA2, ADAM_EPS)
        ema_update(pair, 0.9)
        ema_oracle(momentum, online, 0.9)
        for f in PARAM_FIELDS:
            for actual, expected in ((pair.online, online), (pair.momentum, momentum),
                                     (state.m, m), (state.v, v)):
                np.testing.assert_array_equal(getattr(actual, f), getattr(expected, f))


def test_ema_update_invalid_alpha(monkeypatch):
    # ema_update trusts its caller; train checks alpha before the first step
    train_rejects(monkeypatch, TrainConfig(alpha=1.5), "need alpha in [0, 1], got 1.5")


def test_ema_closed_form_after_three_steps():
    alpha = 0.9
    pair = init_pair(3, 4, 2, np.random.default_rng(3))
    theta0 = {f: getattr(pair.momentum, f).copy() for f in PARAM_FIELDS}
    pair.online.w1 += 0.37  # held fixed afterwards
    for _ in range(3):
        ema_update(pair, alpha)
    for f in PARAM_FIELDS:
        expected = alpha**3 * theta0[f] + (1 - alpha**3) * getattr(pair.online, f)
        np.testing.assert_allclose(getattr(pair.momentum, f), expected, atol=1e-12)


def test_momentum_initialized_as_exact_copy():
    pair = init_pair(5, 6, 3, np.random.default_rng(4))
    for f in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(pair.momentum, f),
                                      getattr(pair.online, f))


def test_warmup_schedule_values():
    assert effective_lr(0.00035, 10, 4) == pytest.approx(0.000175)
    assert effective_lr(0.00035, 10, 10) == pytest.approx(0.00035)
    assert effective_lr(0.00035, 10, 25) == pytest.approx(0.00035)


def test_optimizer_zero_gradients_zero_decay_is_noop():
    params = small_params(8)
    state = init_optimizer(params)
    before = {f: getattr(params, f).copy() for f in PARAM_FIELDS}
    zeros = EncoderParams(*(np.zeros_like(getattr(params, f)) for f in PARAM_FIELDS))
    optimizer_step(state, params, zeros, lr=0.00035, weight_decay=0.0)
    for f in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(params, f), before[f])


def test_optimizer_moves_against_gradient():
    params = small_params(9)
    state = init_optimizer(params)
    before = params.w1.copy()
    ones = EncoderParams(*(np.ones_like(getattr(params, f)) for f in PARAM_FIELDS))
    optimizer_step(state, params, ones, lr=0.01, weight_decay=0.0)
    assert np.all(params.w1 < before)


def test_optimizer_rejects_non_finite():
    params = small_params(10)
    state = init_optimizer(params)
    bad = EncoderParams(*(np.zeros_like(getattr(params, f)) for f in PARAM_FIELDS))
    bad.w2[0, 0] = np.nan
    with pytest.raises(SelfReidError, match="gradient w2 contains NaN/inf"):
        optimizer_step(state, params, bad, lr=0.00035, weight_decay=0.0005)


@pytest.mark.parametrize("field", PARAM_FIELDS)
def test_optimizer_names_the_non_finite_field(field):
    params = small_params(16)
    state = init_optimizer(params)
    bad = EncoderParams(*(np.zeros_like(getattr(params, f)) for f in PARAM_FIELDS))
    getattr(bad, field).flat[-1] = np.inf
    before = params.flat.copy()
    with pytest.raises(SelfReidError, match=f"gradient {field} contains NaN/inf"):
        optimizer_step(state, params, bad, lr=0.00035, weight_decay=0.0005)
    np.testing.assert_array_equal(params.flat, before)
    assert state.step == 0


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    pair = init_pair(6, 5, 4, rng)
    state = init_optimizer(pair.online)
    grads = EncoderParams(*(rng.normal(size=getattr(pair.online, f).shape)
                           for f in PARAM_FIELDS))
    optimizer_step(state, pair.online, grads, lr=0.002, weight_decay=0.001)
    ema_update(pair, 0.97)

    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, pair, state)
    pair2, state2 = load_checkpoint(path)

    assert state2.step == state.step == 1
    for f in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(pair2.online, f),
                                      getattr(pair.online, f))
        np.testing.assert_array_equal(getattr(pair2.momentum, f),
                                      getattr(pair.momentum, f))
        np.testing.assert_array_equal(getattr(state2.m, f), getattr(state.m, f))
        np.testing.assert_array_equal(getattr(state2.v, f), getattr(state.v, f))


@pytest.mark.parametrize("name, content", [
    ("text.npz", b"epoch = 3\n"),
    ("empty.npz", b""),
    ("truncated.npz", b"PK\x03\x04"),
])
def test_load_checkpoint_rejects_non_checkpoint_files(tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(SelfReidError, match="not a checkpoint file"):
        load_checkpoint(path)


def test_load_checkpoint_names_text_file_not_an_archive(tmp_path):
    path = tmp_path / "notes.npz"
    path.write_bytes(b"epoch = 3")
    with pytest.raises(SelfReidError) as info:
        load_checkpoint(path)
    message = str(info.value)
    assert message == f"{path}: not a checkpoint file (not an .npz archive)"
    assert "pickle" not in message


def test_load_checkpoint_rejects_single_array_and_missing_keys(tmp_path):
    single = tmp_path / "single.npy"
    np.save(single, np.zeros(3))
    with pytest.raises(SelfReidError, match="single array"):
        load_checkpoint(single)
    partial = tmp_path / "partial.npz"
    np.savez(partial, version=np.array(2))
    with pytest.raises(SelfReidError, match="missing step, online_w1"):
        load_checkpoint(partial)


def test_load_checkpoint_rejects_version_1(tmp_path):
    path = write_version_1_checkpoint(tmp_path / "v1.npz")
    with pytest.raises(SelfReidError, match="version 1") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and "--from-manifest" in str(info.value)


@pytest.mark.parametrize("key, value, shown", [
    ("version", np.array("two"), "'two'"),
    ("version", np.array([2, 2]), "[2, 2]"),
    ("step", np.array(1.5), "1.5"),
])
def test_load_checkpoint_rejects_non_integer_version_and_step(tmp_path, key, value, shown):
    pair = init_pair(6, 5, 4, np.random.default_rng(0))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, pair, init_optimizer(pair.online))
    with np.load(path) as data:
        arrays = {**{k: data[k] for k in data.files}, key: value}
    np.savez(path, **arrays)
    with pytest.raises(SelfReidError, match=f"checkpoint {key} must be an integer") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and shown in str(info.value)


def rewrite_checkpoint(path, **changes):
    """Re-save a checkpoint with some arrays replaced."""
    with np.load(path) as data:
        arrays = {**{k: data[k] for k in data.files}, **changes}
    np.savez(path, **arrays)


@pytest.mark.parametrize("key, value, message", [
    ("version", np.array(None, dtype=object), "checkpoint version cannot be read"),
    ("online_b1", np.array([None] * 5, dtype=object), "checkpoint online_b1 cannot be read"),
    ("online_w1", np.zeros((3, 3)), "checkpoint online_b1 has shape (5,), expected (3,)"),
    ("online_w2", np.zeros(4), "online_w1 and online_w2 must be matrices"),
    ("opt_v_w2", np.zeros((4, 4)), "checkpoint opt_v_w2 has shape (4, 4), expected (5, 4)"),
    ("momentum_b1", np.full(5, np.nan), "checkpoint momentum_b1 must hold finite numbers"),
    ("opt_m_w1", np.full((6, 5), np.inf), "checkpoint opt_m_w1 must hold finite numbers"),
    ("online_b2", np.array(["a"] * 4), "checkpoint online_b2 must hold finite numbers"),
])
def test_load_checkpoint_rejects_bad_tables(tmp_path, key, value, message):
    pair = init_pair(6, 5, 4, np.random.default_rng(0))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, pair, init_optimizer(pair.online))
    rewrite_checkpoint(path, **{key: value})
    with pytest.raises(SelfReidError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and message in str(info.value)
