import numpy as np
import pytest

from selfreid.errors import DegenerateVector, InvalidTemperature
from selfreid.linalg import normalize_rows, softmax_rows

from oracles import softmax_row


def test_l2_normalize_345_triangle():
    np.testing.assert_allclose(normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]], atol=1e-15)


def test_l2_normalize_identity_case():
    np.testing.assert_array_equal(normalize_rows([[1.0, 0.0, 0.0]]), [[1.0, 0.0, 0.0]])


def test_l2_normalize_zero_vector_raises():
    with pytest.raises(DegenerateVector):
        normalize_rows([[0.0, 0.0]])


def test_normalize_rows_unit_norms():
    rng = np.random.default_rng(0)
    mat = normalize_rows(rng.normal(size=(40, 7)))
    np.testing.assert_allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-9)


def softmax_one(sims, tau):
    return softmax_rows(np.asarray(sims, dtype=np.float64)[None, :], tau)[0]


def test_softmax_uniform_on_equal_logits():
    np.testing.assert_allclose(softmax_one(np.zeros(3), 1.0), np.full(3, 1 / 3))


def test_softmax_two_entry_value():
    expected = np.array([np.e**2 / (np.e**2 + 1), 1 / (np.e**2 + 1)])
    np.testing.assert_allclose(softmax_one([1.0, 0.0], 0.5), expected, atol=1e-12)
    assert softmax_one([1.0, 0.0], 0.5)[0] == pytest.approx(0.8808, abs=1e-4)


def test_softmax_single_entry():
    np.testing.assert_allclose(softmax_one([4.2], 0.07), [1.0])


def test_softmax_temperature_validation():
    with pytest.raises(InvalidTemperature):
        softmax_rows(np.array([[1.0, 2.0]]), 0.0)
    with pytest.raises(InvalidTemperature):
        softmax_rows(np.ones((2, 2)), -1.0)


@pytest.mark.parametrize("tau", [0.07, 0.1, 0.4, 0.5])
def test_softmax_sums_to_one_randomized(tau):
    rng = np.random.default_rng(int(tau * 1000))
    for _ in range(2500):
        probs = softmax_one(rng.normal(size=rng.integers(1, 12)), tau)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs > 0)


def test_softmax_duplicated_logits_share_probability():
    probs = softmax_one([0.3, 1.7, 0.3, -0.2, 1.7], 0.4)
    assert probs[0] == pytest.approx(probs[2], abs=1e-15)
    assert probs[1] == pytest.approx(probs[4], abs=1e-15)


def test_softmax_rows_matches_row_version():
    rng = np.random.default_rng(11)
    sims = rng.normal(size=(6, 9))
    batched = softmax_rows(sims, 0.4)
    for i in range(6):
        np.testing.assert_allclose(batched[i], softmax_row(sims[i], 0.4), atol=1e-14)
