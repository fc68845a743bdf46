import numpy as np
import pytest

from selfreid.encoder import (
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
from selfreid.errors import (
    DimensionMismatch,
    InvalidMomentum,
    NonFiniteGradient,
    SelfReidError,
)

from oracles import finite_difference, max_rel_err, scalar_forward, write_version_1_checkpoint


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


def test_forward_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
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


def test_backward_shape_mismatch():
    params = small_params(0)
    fwd = forward(params, np.random.default_rng(1).normal(size=(3, 6)))
    with pytest.raises(DimensionMismatch):
        backward(params, fwd, np.zeros((3, 5)))


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


def test_ema_update_invalid_alpha():
    pair = init_pair(3, 4, 2, np.random.default_rng(2))
    with pytest.raises(InvalidMomentum):
        ema_update(pair, 1.5)


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
    with pytest.raises(NonFiniteGradient):
        optimizer_step(state, params, bad, lr=0.00035, weight_decay=0.0005)


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
