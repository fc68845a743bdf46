import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfreid.encoder import PARAM_FIELDS, backward, forward, init_params
from selfreid.errors import SelfReidError
from selfreid.linalg import normalize_rows
from selfreid.losses import (
    LossWeights,
    Temperatures,
    consistency_distributions,
    cross_camera_loss_batch,
    hard_instance_loss,
    kl_value,
    proxy_agnostic_loss,
    soft_consistency_loss,
    total_loss,
)
from selfreid.proxies import ProxyMemory, build_proxies
from selfreid.rerank import ClusterAssignment
from selfreid.trainer import TrainConfig

from oracles import cross_camera_oracle, finite_difference, max_rel_err, train_rejects


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_batch(rng, n_labels=4, per_label=3, d=6):
    labels = np.repeat(np.arange(n_labels), per_label)
    feats = normalize_rows(rng.normal(size=(labels.size, d)))
    return feats, labels


def make_memory(rng, n_clusters=5, n_cams=3, d=6):
    labels = np.repeat(np.arange(n_clusters), n_cams)
    cameras = np.tile(np.arange(n_cams), n_clusters)
    bank = normalize_rows(rng.normal(size=(labels.size, d)))
    assignment = ClusterAssignment(labels=labels, cluster_count=n_clusters)
    return build_proxies(bank, assignment, cameras)


# --- proxy agnostic loss ------------------------------------------------------

def test_agnostic_one_positive_one_negative_value():
    feats = np.array([[1.0, 0.0]])
    proxies = np.array([[1.0, 0.0], [0.0, 1.0]])
    value, _ = proxy_agnostic_loss(feats, [0], proxies, tau=0.5)
    assert value == pytest.approx(math.log(1 + math.exp(-2.0)), abs=1e-12)
    assert value == pytest.approx(0.12693, abs=1e-5)


def test_agnostic_identical_proxies_gives_log_count():
    rng = np.random.default_rng(0)
    feats = normalize_rows(rng.normal(size=(4, 5)))
    proxies = np.tile(unit(rng.normal(size=5)), (7, 1))
    value, grads = proxy_agnostic_loss(feats, [0, 3, 6, 2], proxies, tau=0.5)
    assert value == pytest.approx(math.log(7), abs=1e-12)
    np.testing.assert_allclose(grads, 0.0, atol=1e-12)


def test_agnostic_missing_proxy():
    with pytest.raises(SelfReidError, match=re.escape("labels [2] have no proxy")):
        proxy_agnostic_loss(np.eye(2), [2], np.eye(2), tau=0.5)


@pytest.mark.parametrize("seed", range(10))
def test_agnostic_gradient_vs_finite_differences(seed):
    rng = np.random.default_rng(seed)
    feats, labels = random_batch(rng)
    proxies = normalize_rows(rng.normal(size=(6, 6)))
    _, analytic = proxy_agnostic_loss(feats, labels, proxies, tau=0.5)
    fd = finite_difference(
        lambda f: proxy_agnostic_loss(f, labels, proxies, tau=0.5)[0], feats.copy())
    assert max_rel_err(analytic, fd) < 1e-4


# --- cross camera loss --------------------------------------------------------

def test_cross_single_camera_cluster_contributes_zero():
    rng = np.random.default_rng(1)
    bank = normalize_rows(rng.normal(size=(4, 6)))
    assignment = ClusterAssignment(labels=np.array([0, 0, 1, 1]), cluster_count=2)
    cameras = np.array([0, 0, 0, 1])  # cluster 0 lives in camera 0 only
    memory = build_proxies(bank, assignment, cameras)
    value, grads = cross_camera_loss_batch(bank[:2], cameras[:2], [0, 0], memory,
                                           tau=0.07, n_neg=50)
    assert value == 0.0
    np.testing.assert_array_equal(grads, 0.0)
    # in a mixed batch the single-camera anchor's gradient row stays zero
    _, grads = cross_camera_loss_batch(bank[[0, 2]], [0, 0], [0, 1], memory,
                                       tau=0.07, n_neg=50)
    np.testing.assert_array_equal(grads[0], 0.0)
    assert np.any(grads[1] != 0.0)


def test_cross_pinned_value():
    e1, e2 = np.eye(2)
    bank = np.array([e1, e1, e2])
    assignment = ClusterAssignment(labels=np.array([0, 0, 1]), cluster_count=2)
    cameras = np.array([0, 1, 0])
    memory = build_proxies(bank, assignment, cameras)
    value, _ = cross_camera_loss_batch(e1[None, :], [0], [0], memory,
                                       tau=0.07, n_neg=50)
    assert value == pytest.approx(math.log1p(math.exp(-1 / 0.07)), rel=1e-9)
    assert value < 1e-6  # ~6e-7


@pytest.mark.parametrize("n_neg", [0, -1])
def test_cross_n_neg_below_one_rejected(n_neg, monkeypatch):
    # cross_camera_loss_batch trusts its caller; train checks n_neg before the first step
    train_rejects(monkeypatch, TrainConfig(n_neg=n_neg), f"need n_neg in [1, inf), got {n_neg}")


def assert_matches_oracle(feats, cameras, labels, memory, tau, n_neg):
    value, grads = cross_camera_loss_batch(feats, cameras, labels, memory, tau, n_neg)
    ref_value, ref_grads = cross_camera_oracle(feats, cameras, labels, memory,
                                               tau, n_neg)
    assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-300)
    assert max_rel_err(grads, ref_grads) <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_cross_matches_per_anchor_oracle(seed):
    # random table sizes, ragged camera coverage and n_neg both below and
    # above the number of other-cluster proxies
    rng = np.random.default_rng(600 + seed)
    n_clusters = int(rng.integers(2, 8))
    n_cams = int(rng.integers(1, 5))
    d = int(rng.integers(2, 9))
    labels = np.repeat(np.arange(n_clusters), 6)
    cameras = rng.integers(0, n_cams, size=labels.size)
    bank = normalize_rows(rng.normal(size=(labels.size, d)))
    memory = build_proxies(bank, ClusterAssignment(labels, n_clusters), cameras)
    feats = normalize_rows(rng.normal(size=(12, d)))
    batch_labels = rng.integers(0, n_clusters, size=12)
    batch_cameras = rng.integers(0, n_cams, size=12)
    n_neg = int(rng.integers(1, 2 * memory.camera_ids.size))
    assert_matches_oracle(feats, batch_cameras, batch_labels, memory,
                          tau=0.07, n_neg=n_neg)


def test_cross_fewer_candidates_than_n_neg():
    rng = np.random.default_rng(4)
    memory = make_memory(rng, n_clusters=3, n_cams=2)  # 4 other-cluster proxies
    feats, labels = random_batch(rng, n_labels=3, per_label=2)
    cameras = np.array([0, 1, 0, 1, 0, 1])
    assert_matches_oracle(feats, cameras, labels, memory, tau=0.07, n_neg=50)
    every = cross_camera_loss_batch(feats, cameras, labels, memory, 0.07, 4)
    clamped = cross_camera_loss_batch(feats, cameras, labels, memory, 0.07, 50)
    assert clamped[0] == every[0]
    np.testing.assert_array_equal(clamped[1], every[1])


def test_cross_tied_proxies_break_by_table_order():
    # the anchor e1 is equally similar to both proxies of cluster 1 (mirror
    # images); with n_neg = 1 only the earlier table row may be the negative
    c, s = math.cos(1.0), math.sin(1.0)
    e1 = np.array([1.0, 0.0])
    bank = np.array([e1, e1, [c, s], [c, -s], [-1.0, 0.0]])
    labels = np.array([0, 0, 1, 1, 2])
    cameras = np.array([0, 1, 0, 1, 0])
    memory = build_proxies(bank, ClusterAssignment(labels, 3), cameras)
    first = int(np.flatnonzero(memory.camera_cluster_ids == 1)[0])
    value, grads = cross_camera_loss_batch(e1[None, :], [0], [0], memory,
                                           tau=0.07, n_neg=1)
    assert_matches_oracle(e1[None, :], [0], [0], memory, tau=0.07, n_neg=1)
    # recompute with the first tied row as the only negative
    negative = memory.camera_vectors[first]
    positive = e1
    logits = np.array([positive @ e1, negative @ e1]) / 0.07
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    assert value == pytest.approx(-math.log(probs[0]), rel=1e-12)
    expected = (probs[0] * positive + probs[1] * negative - positive) / 0.07
    np.testing.assert_allclose(grads[0], expected, rtol=1e-12, atol=1e-15)


def test_cross_single_cluster_memory_has_no_negatives():
    rng = np.random.default_rng(5)
    memory = make_memory(rng, n_clusters=1, n_cams=3)
    feats = normalize_rows(rng.normal(size=(4, 6)))
    value, grads = cross_camera_loss_batch(feats, [0, 1, 2, 0], [0, 0, 0, 0],
                                           memory, tau=0.07, n_neg=5)
    assert value == 0.0
    np.testing.assert_array_equal(grads, 0.0)
    assert_matches_oracle(feats, [0, 1, 2, 0], [0, 0, 0, 0], memory,
                          tau=0.07, n_neg=5)


@pytest.mark.parametrize("seed", range(10))
def test_cross_gradient_vs_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    memory = make_memory(rng)
    feats, labels = random_batch(rng, n_labels=5, per_label=2)
    cameras = rng.integers(0, 3, size=labels.size)
    _, analytic = cross_camera_loss_batch(feats, cameras, labels, memory,
                                          tau=0.07, n_neg=6)
    fd = finite_difference(
        lambda f: cross_camera_loss_batch(f, cameras, labels, memory,
                                          tau=0.07, n_neg=6)[0], feats.copy())
    assert max_rel_err(analytic, fd) < 1e-4


# Rows with entries in {-0.5, 0, 0.5}: every dot product is a multiple of
# 0.25 and exact in floating point, so the loss and the oracle see the
# same similarities and the same ties.
GRID = np.array([v for v in itertools.product((-0.5, 0.0, 0.5), repeat=4) if any(v)])


@st.composite
def cross_cases(draw):
    """A camera-proxy table and a batch built from few GRID rows.

    Duplicated rows make exact ties at the n_neg boundary common; the
    table may hold a single cluster, an anchor's cluster may have no
    proxy under another camera (or none at all), and n_neg may exceed the
    number of other-cluster proxies.
    """
    n_clusters = draw(st.integers(1, 4), label="clusters")
    cells = sorted(draw(st.lists(st.tuples(st.integers(0, n_clusters - 1), st.integers(0, 2)),
                                 min_size=1, max_size=12, unique=True), label="cells"))
    pool = draw(st.integers(1, len(GRID)), label="pool")
    rows = st.integers(0, pool - 1)
    p = len(cells)
    memory = ProxyMemory(
        cluster_vectors=np.empty((0, 4)),
        camera_cluster_ids=np.array([c for c, _ in cells]),
        camera_ids=np.array([b for _, b in cells]),
        camera_vectors=GRID[draw(st.lists(rows, min_size=p, max_size=p), label="proxies")])
    n = draw(st.integers(1, 6), label="anchors")
    feats = GRID[draw(st.lists(rows, min_size=n, max_size=n), label="feats")]
    labels = np.array(draw(st.lists(st.integers(0, n_clusters - 1), min_size=n, max_size=n)))
    cameras = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    n_neg = draw(st.integers(1, p + 2), label="n_neg")
    tau = draw(st.sampled_from([0.07, 0.5]), label="tau")
    return feats, cameras, labels, memory, tau, n_neg


def assert_near_oracle(feats, cameras, labels, memory, tau, n_neg):
    """Loss and gradient within 1e-12 of the oracle, on the scale of their
    terms: a log-probability of order one, and proxy rows over tau. (A
    loss or gradient that cancels to near zero has no relative accuracy.)"""
    value, grads = cross_camera_loss_batch(feats, cameras, labels, memory, tau, n_neg)
    ref_value, ref_grads = cross_camera_oracle(feats, cameras, labels, memory, tau, n_neg)
    assert abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value))
    term = np.abs(memory.camera_vectors).max() / tau
    assert np.abs(grads - ref_grads).max() <= 1e-12 * max(1.0, term)


@settings(max_examples=200)
@given(cross_cases())
def test_cross_property_matches_oracle(case):
    assert_near_oracle(*case)


@settings(max_examples=60)
@given(cross_cases(), st.integers(0, 2**32 - 1))
def test_cross_property_gradient_matches_finite_differences(case, seed):
    feats, cameras, labels, memory, tau, n_neg = case
    # jitter off the grid; the negative sets must then stay put within
    # the finite-difference step, unless the rows tied at the boundary
    # are the same vector
    feats = feats + 0.05 * np.random.default_rng(seed).normal(size=feats.shape)
    sims = feats @ memory.camera_vectors.T
    for i in range(len(labels)):
        ranked = np.sort(sims[i, memory.camera_cluster_ids != labels[i]])[::-1]
        if ranked.size > n_neg:
            gap = ranked[n_neg - 1] - ranked[n_neg]
            assume(gap == 0.0 or gap > 1e-3)
    assert_near_oracle(feats, cameras, labels, memory, tau, n_neg)
    _, analytic = cross_camera_loss_batch(feats, cameras, labels, memory, tau, n_neg)
    fd = finite_difference(
        lambda f: cross_camera_loss_batch(f, cameras, labels, memory, tau, n_neg)[0],
        feats.copy())
    term = np.abs(memory.camera_vectors).max() / tau
    np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-7 * term)


def wide_case(rng, pool):
    """Far more proxies than anchors: 60 clusters x 4 cameras = 240 camera
    proxies, each one of the first `pool` GRID rows, so rows repeat, and
    a 32-row P x K batch of 8 clusters x 4 GRID rows."""
    memory = ProxyMemory(
        cluster_vectors=np.empty((0, 4)),
        camera_cluster_ids=np.repeat(np.arange(60), 4),
        camera_ids=np.tile(np.arange(4), 60),
        camera_vectors=GRID[rng.integers(0, pool, size=240)])
    feats = GRID[rng.integers(0, pool, size=32)]
    labels = np.repeat(rng.choice(60, size=8, replace=False), 4)
    return feats, rng.integers(0, 4, size=32), labels, memory


def boundary_gaps(feats, labels, memory, n_neg):
    """Each anchor's gap between its n_neg-th and next most similar
    other-cluster proxy."""
    sims = feats @ memory.camera_vectors.T
    return np.array([np.subtract(*np.sort(sims[i, memory.camera_cluster_ids != labels[i]])
                                 [::-1][n_neg - 1:n_neg + 1]) for i in range(len(labels))])


@pytest.mark.parametrize("pool", [6, 20, len(GRID)])
@pytest.mark.parametrize("tau", [0.07, 0.5])
def test_cross_wide_table_matches_oracle(pool, tau):
    feats, cameras, labels, memory = wide_case(np.random.default_rng(pool), pool)
    # Repeated rows tie several keys at every anchor's 50th.
    assert np.all(boundary_gaps(feats, labels, memory, 50) == 0.0)
    assert_near_oracle(feats, cameras, labels, memory, tau, 50)


@pytest.mark.parametrize("seed", range(3))
def test_cross_wide_table_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(700 + seed)
    feats, cameras, labels, memory = wide_case(rng, 20)
    feats = feats + 0.05 * rng.normal(size=feats.shape)
    # Off the grid, the keys tied at the 50th are repeats of one proxy row,
    # which the finite-difference step moves together; distinct rows there
    # stay apart by more than the step.
    gaps = boundary_gaps(feats, labels, memory, 50)
    assert np.any(gaps == 0.0) and np.all((gaps == 0.0) | (gaps > 1e-3))
    assert_near_oracle(feats, cameras, labels, memory, 0.07, 50)
    _, analytic = cross_camera_loss_batch(feats, cameras, labels, memory, 0.07, 50)
    fd = finite_difference(
        lambda f: cross_camera_loss_batch(f, cameras, labels, memory, 0.07, 50)[0],
        feats.copy())
    np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-7 / 0.07)


# --- hard instance loss ---------------------------------------------------------

def angle_vec(theta):
    return np.array([math.cos(theta), math.sin(theta)])


def test_hard_mining_picks_lowest_cosine():
    f = np.array([angle_vec(0.0), angle_vec(2.0)])
    # positives for anchor 0 at cosines 0.9, 0.5, 0.7 -- plus anchor 0's own
    # twin placed far (cos 0.2) so mining must choose among explicit values
    m = np.vstack([
        angle_vec(math.acos(0.2)),
        angle_vec(math.acos(0.5)),
        angle_vec(2.0),
        angle_vec(2.1),
    ])
    labels = np.array([0, 0, 1, 1])
    feats = np.vstack([f[0], angle_vec(math.acos(0.9)), f[1], angle_vec(2.05)])
    # direct check through similarity ordering: mined positive of anchor 0 is
    # the 0.2-cosine twin (own twin included among candidates)
    sims = feats @ m.T
    pos = sims[0, :2]
    assert pos.min() == pytest.approx(0.2, abs=1e-12)


def test_hard_loss_pinned_value():
    # one anchor: hardest positive cosine 0.5, single negative cosine 0.1
    anchor = np.array([1.0, 0.0])
    twin = angle_vec(math.acos(0.5))
    other_f = angle_vec(1.8)
    other_m = angle_vec(math.acos(0.1))
    feats = np.vstack([anchor, other_f])
    momentum = np.vstack([twin, other_m])
    labels = np.array([0, 1])
    value, _ = hard_instance_loss(feats, momentum, labels, tau=0.1)
    anchor0 = math.log(1 + math.exp((0.1 - 0.5) / 0.1))
    assert anchor0 == pytest.approx(math.log(1 + math.exp(-4.0)), abs=1e-12)
    # batch mean includes the second anchor's own term
    s_pos = float(other_f @ other_m)
    s_neg = float(other_f @ twin)
    anchor1 = math.log(1 + math.exp((s_neg - s_pos) / 0.1))
    assert value == pytest.approx((anchor0 + anchor1) / 2, abs=1e-12)


def scalar_hard_loss(feats, momentum, labels, tau):
    """Literal per-anchor evaluation: hardest positive against all negatives."""
    total = 0.0
    n = len(labels)
    for i in range(n):
        sims = [float(feats[i] @ momentum[j]) for j in range(n)]
        pos = [sims[j] for j in range(n) if labels[j] == labels[i]]
        neg = [sims[j] for j in range(n) if labels[j] != labels[i]]
        mined = min(pos)
        denom = math.exp(mined / tau) + sum(math.exp(s / tau) for s in neg)
        total += -math.log(math.exp(mined / tau) / denom)
    return total / n


def test_hard_loss_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    feats, labels = random_batch(rng, n_labels=4, per_label=3)
    momentum = normalize_rows(rng.normal(size=feats.shape))
    value, _ = hard_instance_loss(feats, momentum, labels, tau=0.1)
    expected = scalar_hard_loss(feats, momentum, labels, 0.1)
    assert value == pytest.approx(expected, abs=1e-12)


def test_hard_loss_single_identity_rejected():
    rng = np.random.default_rng(4)
    feats = normalize_rows(rng.normal(size=(4, 5)))
    with pytest.raises(SelfReidError, match="batch holds a single pseudo identity"):
        hard_instance_loss(feats, feats, np.zeros(4, int), tau=0.1)


@pytest.mark.parametrize("seed", range(10))
def test_hard_gradient_vs_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    feats, labels = random_batch(rng)
    momentum = normalize_rows(rng.normal(size=feats.shape))
    _, analytic = hard_instance_loss(feats, momentum, labels, tau=0.1)
    fd = finite_difference(
        lambda f: hard_instance_loss(f, momentum, labels, tau=0.1)[0], feats.copy())
    assert max_rel_err(analytic, fd) < 1e-4


def test_hard_loss_monotone_in_similarities():
    # raising the mined positive's cosine lowers the loss; raising a
    # negative's cosine raises it
    momentum = np.vstack([angle_vec(0.5), angle_vec(2.5)])
    labels = np.array([0, 1])

    def loss_at(anchor_angle):
        feats = np.vstack([angle_vec(anchor_angle), angle_vec(2.5)])
        return hard_instance_loss(feats, momentum, labels, tau=0.1)[0]

    # moving the anchor towards its positive (angle 0.5) increases the mined
    # cosine and decreases the loss
    assert loss_at(0.7) < loss_at(1.1)

    def loss_with_negative(neg_angle):
        feats = np.vstack([angle_vec(0.0), angle_vec(2.5)])
        m = np.vstack([angle_vec(0.5), angle_vec(neg_angle)])
        return hard_instance_loss(feats, m, labels, tau=0.1)[0]

    # moving the negative towards the anchor (angle 0) increases its cosine
    # with the anchor and the loss
    assert loss_with_negative(1.2) > loss_with_negative(2.0)


def test_hard_loss_triplet_sign_pattern_single_negative():
    # J = 1: gradient w.r.t. the positive similarity is negative, w.r.t. the
    # negative similarity positive, matching a smooth triplet objective
    tau = 0.1
    s_pos, s_neg = 0.55, 0.25

    def value(sp, sn):
        return math.log(1 + math.exp((sn - sp) / tau))

    h = 1e-6
    d_pos = (value(s_pos + h, s_neg) - value(s_pos - h, s_neg)) / (2 * h)
    d_neg = (value(s_pos, s_neg + h) - value(s_pos, s_neg - h)) / (2 * h)
    assert d_pos < 0
    assert d_neg > 0


# --- consistency -----------------------------------------------------------------

def test_consistency_p_equals_q_without_perturbation():
    rng = np.random.default_rng(5)
    params = init_params(5, 4, 3, rng)
    batch = rng.normal(size=(6, 5))
    out = forward(params, batch).out  # same weights, same inputs for all roles
    p, q = consistency_distributions(out, out, out, tau=0.4)
    np.testing.assert_allclose(p, q, atol=1e-9)
    value, grads = soft_consistency_loss(out, out, out, tau=0.4)
    assert value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(grads, 0.0, atol=1e-12)


def test_consistency_uniform_when_similarities_equal():
    n, d = 6, 4
    feats = np.tile(unit(np.ones(d)), (n, 1))
    m = np.tile(unit(np.ones(d)), (n, 1))
    p, _ = consistency_distributions(feats, m, m, tau=0.4)
    np.testing.assert_allclose(p, 1.0 / n, atol=1e-12)


def test_consistency_rows_sum_to_one():
    rng = np.random.default_rng(6)
    feats, _ = random_batch(rng)
    m_aug = normalize_rows(rng.normal(size=feats.shape))
    m_clean = normalize_rows(rng.normal(size=feats.shape))
    p, q = consistency_distributions(feats, m_aug, m_clean, tau=0.4)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)


def test_kl_two_point_pinned_value():
    p = np.array([0.8, 0.2])
    q = np.array([0.5, 0.5])
    expected = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
    assert expected == pytest.approx(0.19274, abs=1e-5)
    kl = float(np.sum(p * np.log(p / q)))
    assert kl == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_consistency_chain_gradient_vs_finite_differences(seed):
    rng = np.random.default_rng(300 + seed)
    feats, _ = random_batch(rng)
    m_aug = normalize_rows(rng.normal(size=feats.shape))
    m_clean = normalize_rows(rng.normal(size=feats.shape))

    def value(f):
        return soft_consistency_loss(f, m_aug, m_clean, tau=0.4)[0]

    _, analytic = soft_consistency_loss(feats, m_aug, m_clean, tau=0.4)
    fd = finite_difference(value, feats.copy())
    assert max_rel_err(analytic, fd) < 1e-4


def test_argmax_is_temperature_invariant():
    rng = np.random.default_rng(8)
    feats, labels = random_batch(rng)
    m = normalize_rows(rng.normal(size=feats.shape))
    proxies = normalize_rows(rng.normal(size=(6, 6)))
    for tau_a, tau_b in ((0.07, 0.5), (0.1, 0.4)):
        pa, _ = consistency_distributions(feats, m, m, tau=tau_a)
        pb, _ = consistency_distributions(feats, m, m, tau=tau_b)
        np.testing.assert_array_equal(pa.argmax(axis=1), pb.argmax(axis=1))
        from selfreid.linalg import softmax_rows
        sa = softmax_rows(feats @ proxies.T, tau_a)
        sb = softmax_rows(feats @ proxies.T, tau_b)
        np.testing.assert_array_equal(sa.argmax(axis=1), sb.argmax(axis=1))


# --- gradient properties -------------------------------------------------------

@st.composite
def batch_cases(draw):
    """A batch of 2-6 anchors in two or three pseudo identities.

    The anchors and both momentum views are GRID rows drawn from a small
    pool, so tied similarities are common; the anchors, which the
    gradient is taken against, are then jittered off the grid.
    """
    n = draw(st.integers(2, 6), label="anchors")
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)
                           .filter(lambda ls: len(set(ls)) > 1), label="labels"))
    pool = draw(st.integers(1, len(GRID)), label="pool")
    rows = st.lists(st.integers(0, pool - 1), min_size=n, max_size=n)
    feats = GRID[draw(rows, label="feats")]
    momentum_aug = GRID[draw(rows, label="momentum_aug")]
    momentum_clean = GRID[draw(rows, label="momentum_clean")]
    seed = draw(st.integers(0, 2**32 - 1), label="jitter")
    feats = feats + 0.05 * np.random.default_rng(seed).normal(size=feats.shape)
    tau = draw(st.sampled_from([0.07, 0.1, 0.4]), label="tau")
    return feats, momentum_aug, momentum_clean, labels, tau


def assert_gradient_matches_fd(loss, feats, scale):
    """Analytic gradient of loss(feats) -> (value, grads) against central
    differences, up to the differences' own error on the term scale."""
    _, analytic = loss(feats)
    fd = finite_difference(lambda f: loss(f)[0], feats.copy())
    np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-7 * scale)


@settings(max_examples=60)
@given(batch_cases(), st.lists(st.integers(0, len(GRID) - 1), min_size=3, max_size=6))
def test_agnostic_property_gradient_matches_finite_differences(case, proxy_rows):
    feats, _, _, labels, tau = case
    proxies = GRID[proxy_rows]
    assert_gradient_matches_fd(lambda f: proxy_agnostic_loss(f, labels, proxies, tau),
                               feats, np.abs(proxies).max() / tau)


@settings(max_examples=60)
@given(batch_cases())
def test_hard_property_gradient_matches_finite_differences(case):
    feats, momentum, _, labels, tau = case
    # the mined positive must stay put within the finite-difference step,
    # unless the rows tied for it are equal
    sims = feats @ momentum.T
    same = labels[:, None] == labels[None, :]
    for i in range(len(labels)):
        keys = np.sort(sims[i, same[i]])
        if keys.size > 1:
            gap = keys[1] - keys[0]
            assume(gap == 0.0 or gap > 1e-3)
    assert_gradient_matches_fd(
        lambda f: hard_instance_loss(f, momentum, labels, tau),
        feats, np.abs(momentum).max() / tau)


@settings(max_examples=60)
@given(batch_cases())
def test_consistency_property_gradient_matches_finite_differences(case):
    feats, momentum_aug, momentum_clean, _, tau = case

    def loss(f):
        return soft_consistency_loss(f, momentum_aug, momentum_clean, tau)

    assert_gradient_matches_fd(loss, feats, np.abs(momentum_aug).max() / tau)


# --- total loss --------------------------------------------------------------

def zero_grads(shape=(2, 3)):
    return np.zeros(shape)


def test_total_loss_arithmetic():
    weights = LossWeights(hard=1.0, soft=10.0)
    breakdown = total_loss((0.6, zero_grads()), (0.8, zero_grads()),
                           (2.0, zero_grads()), (3.0, zero_grads()), weights)
    assert breakdown.agnostic + 0.5 * breakdown.cross == pytest.approx(0.6 + 0.5 * 0.8)
    assert breakdown.total == pytest.approx(1.0 + 2.0 + 30.0)


def test_total_loss_simple_numbers():
    weights = LossWeights(hard=1.0, soft=10.0)
    breakdown = total_loss((1.0, zero_grads()), (0.0, zero_grads()),
                           (2.0, zero_grads()), (3.0, zero_grads()), weights)
    assert breakdown.total == pytest.approx(33.0)


def test_total_loss_baseline_reduction():
    weights = LossWeights(hard=0.0, soft=0.0)
    breakdown = total_loss((1.3, zero_grads()), (0.4, zero_grads()),
                           (9.0, zero_grads()), (7.0, zero_grads()), weights)
    assert breakdown.total == pytest.approx(breakdown.agnostic + 0.5 * breakdown.cross)


def test_total_loss_gradient_linearity():
    rng = np.random.default_rng(9)
    grads = [rng.normal(size=(2, 3)) for _ in range(4)]
    weights = LossWeights(hard=1.0, soft=10.0)
    breakdown = total_loss((1.0, grads[0]), (1.0, grads[1]), (1.0, grads[2]),
                           (1.0, grads[3]), weights)
    expected = grads[0] + 0.5 * grads[1] + 1.0 * grads[2] + 10.0 * grads[3]
    np.testing.assert_allclose(breakdown.grads, expected, atol=1e-15)


def test_losses_non_negative():
    rng = np.random.default_rng(10)
    for seed in range(5):
        r = np.random.default_rng(seed)
        feats, labels = random_batch(r)
        momentum = normalize_rows(r.normal(size=feats.shape))
        proxies = normalize_rows(r.normal(size=(5, 6)))
        assert proxy_agnostic_loss(feats, labels % 5, proxies, 0.5)[0] >= 0
        assert hard_instance_loss(feats, momentum, labels, 0.1)[0] >= 0
        assert soft_consistency_loss(feats, momentum, momentum, 0.4)[0] >= 0
        assert kl_value(*consistency_distributions(feats, momentum, momentum, 0.4)) >= 0


# --- gradients through the encoder ------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_encoder_loss_composition_gradients(seed):
    """Backward through encoder + each loss matches finite differences."""
    rng = np.random.default_rng(500 + seed)
    params = init_params(5, 4, 3, rng)
    batch = rng.normal(size=(8, 5))
    labels = np.repeat(np.arange(4), 2)
    cameras = rng.integers(0, 3, size=8)
    memory = make_memory(rng, n_clusters=5, n_cams=3, d=3)
    proxies = memory.cluster_vectors
    m_aug = normalize_rows(rng.normal(size=(8, 3)))
    m_clean = normalize_rows(rng.normal(size=(8, 3)))

    def losses(f):
        out = [proxy_agnostic_loss(f, labels, proxies, 0.5),
               hard_instance_loss(f, m_aug, labels, 0.1),
               soft_consistency_loss(f, m_aug, m_clean, 0.4)]
        if seed % 2:  # odd seeds add the cross-camera loss
            out.append(cross_camera_loss_batch(f, cameras, labels, memory,
                                               0.07, 4))
        return out

    fwd = forward(params, batch)
    for loss_index in range(len(losses(fwd.out))):
        def objective(_):
            return losses(forward(params, batch).out)[loss_index][0]

        _, grad_f = losses(fwd.out)[loss_index]
        analytic = backward(params, fwd, grad_f)
        for fname in PARAM_FIELDS:
            fd = finite_difference(objective, getattr(params, fname))
            assert max_rel_err(getattr(analytic, fname), fd) < 1e-4, \
                f"seed {seed} loss {loss_index} param {fname}"
