import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selfreid.errors import SelfReidError
from selfreid.linalg import normalize_rows
from selfreid.losses import cross_camera_loss_batch
from selfreid.proxies import build_proxies
from selfreid.rerank import OUTLIER, ClusterAssignment

from oracles import cross_camera_oracle, max_rel_err, proxies_oracle


def make_assignment(labels):
    labels = np.asarray(labels, dtype=np.int64)
    count = int(labels.max()) + 1 if np.any(labels != OUTLIER) else 0
    return ClusterAssignment(labels=labels, cluster_count=count)


def test_two_member_cluster_proxy():
    bank = np.array([[1.0, 0.0], [0.0, 1.0]])
    memory = build_proxies(bank, make_assignment([0, 0]), np.array([0, 0]))
    np.testing.assert_allclose(memory.cluster_vectors[0],
                               [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)


def test_singleton_camera_proxy_equals_member():
    rng = np.random.default_rng(0)
    bank = normalize_rows(rng.normal(size=(3, 5)))
    memory = build_proxies(bank, make_assignment([0, 0, 0]),
                           np.array([0, 0, 1]))
    lone = [i for i in range(len(memory.camera_ids)) if memory.camera_ids[i] == 1]
    np.testing.assert_allclose(memory.camera_vectors[lone[0]], bank[2], atol=1e-12)


def test_outliers_are_excluded():
    rng = np.random.default_rng(2)
    bank = normalize_rows(rng.normal(size=(6, 4)))
    labels = np.array([0, 0, 0, OUTLIER, OUTLIER, 0])
    memory = build_proxies(bank, make_assignment(labels), np.zeros(6, int))
    expected = normalize_rows(bank[[0, 1, 2, 5]].mean(axis=0)[None, :])[0]
    np.testing.assert_allclose(memory.cluster_vectors[0], expected, atol=1e-12)


def test_no_clusters_raises():
    bank = np.eye(3)
    with pytest.raises(SelfReidError, match="clustering produced no inlier clusters"):
        build_proxies(bank, make_assignment([OUTLIER] * 3), np.zeros(3, int))


def test_one_member_cluster_proxy_is_member():
    rng = np.random.default_rng(3)
    bank = normalize_rows(rng.normal(size=(5, 8)))
    labels = np.array([0, 1, 1, 1, 1])
    memory = build_proxies(bank, make_assignment(labels), np.zeros(5, int))
    np.testing.assert_allclose(memory.cluster_vectors[0], bank[0], atol=1e-12)


def test_proxies_order_independent():
    rng = np.random.default_rng(4)
    bank = normalize_rows(rng.normal(size=(12, 6)))
    labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 2, 2])
    cameras = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
    base = build_proxies(bank, make_assignment(labels), cameras)
    perm = rng.permutation(12)
    permuted = build_proxies(bank[perm], make_assignment(labels[perm]),
                             cameras[perm])
    np.testing.assert_allclose(base.cluster_vectors, permuted.cluster_vectors,
                               atol=1e-12)


def test_cluster_proxy_is_count_weighted_camera_mean():
    # recomputed from raw members: the normalized count-weighted mean of the
    # camera cells' unnormalized means equals the cluster proxy
    rng = np.random.default_rng(5)
    bank = normalize_rows(rng.normal(size=(10, 7)))
    labels = np.zeros(10, dtype=np.int64)
    cameras = np.array([0] * 3 + [1] * 5 + [2] * 2)
    memory = build_proxies(bank, make_assignment(labels), cameras)
    weighted = np.zeros(7)
    for b, size in ((0, 3), (1, 5), (2, 2)):
        cell_mean = bank[cameras == b].mean(axis=0)
        weighted += size * cell_mean
    np.testing.assert_allclose(memory.cluster_vectors[0],
                               normalize_rows(weighted[None, :] / 10)[0], atol=1e-12)


def test_cluster_without_members_rejected():
    # cluster 1 of 0..2 has no members; rejected before any mean is taken
    bank = normalize_rows(np.random.default_rng(6).normal(size=(4, 3)))
    assignment = ClusterAssignment(labels=np.array([0, 2, OUTLIER, 0]), cluster_count=3)
    with pytest.raises(SelfReidError, match=r"cluster ids \[1\]"):
        build_proxies(bank, assignment, np.zeros(4, int))


@pytest.mark.parametrize("bank, labels, cameras, message", [
    ([1, 1, 1, -1], [0, 0, 1, 1], [0, 1, 0, 1], "cluster 1"),
    ([1, 1, 1, -1, 1], [0, 0, 1, 1, 1], [0, 0, 0, 0, 1], "cluster 1 under camera 0"),
], ids=["cluster", "camera cell"])
def test_a_proxy_whose_members_cancel_is_named(bank, labels, cameras, message):
    # 1-d embeddings, as out_dim = 1 gives: the named proxy's members are +1 and -1
    with pytest.raises(SelfReidError, match=f"^the momentum embeddings of {message} cancel: "
                                            f"their mean is the zero vector"):
        build_proxies(np.array(bank, dtype=float)[:, None], make_assignment(labels),
                      np.array(cameras))


@st.composite
def clustered_banks(draw):
    """A bank with labels covering 0..k-1 plus outliers, and camera ids.

    Small sizes make single-member cells, clusters seen by one camera and
    cameras missing from some clusters common; k may be 1.
    """
    k = draw(st.integers(1, 5), label="clusters")
    extra = draw(st.lists(st.integers(OUTLIER, k - 1), max_size=25), label="extra labels")
    labels = np.array(draw(st.permutations(list(range(k)) + extra)), dtype=np.int64)
    n = len(labels)
    cameras = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                       dtype=np.int64)
    seed = draw(st.integers(0, 2**32 - 1), label="bank seed")
    bank = normalize_rows(np.random.default_rng(seed).normal(size=(n, 5)))
    return bank, ClusterAssignment(labels=labels, cluster_count=k), cameras


@given(clustered_banks())
def test_build_proxies_matches_loop_oracle(case):
    bank, assignment, cameras = case
    memory = build_proxies(bank, assignment, cameras)
    expected = proxies_oracle(bank, assignment.labels, cameras, assignment.cluster_count)
    for name in ("camera_cluster_ids", "camera_ids"):
        np.testing.assert_array_equal(getattr(memory, name), expected[name], err_msg=name)
    for name in ("cluster_vectors", "camera_vectors"):
        np.testing.assert_allclose(getattr(memory, name), expected[name], rtol=0,
                                   atol=1e-14, err_msg=name)


# --- nearest negatives, as the cross-camera loss selects them ----------------

def aware_memory(rng, n_clusters=8, n_cams=5, d=6):
    labels = np.repeat(np.arange(n_clusters), n_cams)
    cameras = np.tile(np.arange(n_cams), n_clusters)
    bank = normalize_rows(rng.normal(size=(n_clusters * n_cams, d)))
    return build_proxies(bank, make_assignment(labels), cameras)


def loss_with_negatives(anchor, positive, negatives, tau):
    """One-positive cross-camera loss against an explicit negative list."""
    logits = np.array([positive @ anchor] + [v @ anchor for v in negatives]) / tau
    return float(np.log(np.sum(np.exp(logits - logits[0]))))


def test_nearest_negatives_clamped_when_few():
    rng = np.random.default_rng(6)
    memory = aware_memory(rng, n_clusters=2, n_cams=2)
    anchor = memory.camera_vectors[0]  # cluster 0, camera 0
    value, _ = cross_camera_loss_batch(anchor[None, :], [0], [0], memory,
                                       tau=0.07, n_neg=50)
    # only cluster 1's two camera proxies qualify as negatives
    others = memory.camera_vectors[memory.camera_cluster_ids == 1]
    assert len(others) == 2
    expected = loss_with_negatives(anchor, memory.camera_vectors[1], others, 0.07)
    assert value == pytest.approx(expected, rel=1e-12)


def test_nearest_negatives_identical_proxy_ranks_first():
    rng = np.random.default_rng(7)
    memory = aware_memory(rng, n_clusters=4, n_cams=3)
    target_row = np.flatnonzero(memory.camera_cluster_ids == 2)[0]
    anchor = memory.camera_vectors[target_row]
    value, _ = cross_camera_loss_batch(anchor[None, :], [0], [0], memory,
                                       tau=0.07, n_neg=1)
    positives = memory.camera_vectors[(memory.camera_cluster_ids == 0)
                                      & (memory.camera_ids != 0)]
    expected = np.mean([loss_with_negatives(anchor, p, [anchor], 0.07)
                        for p in positives])
    assert value == pytest.approx(expected, rel=1e-12)


def test_nearest_negatives_match_full_sort_oracle():
    rng = np.random.default_rng(8)
    memory = aware_memory(rng, n_clusters=8, n_cams=5)
    anchors = normalize_rows(rng.normal(size=(4, 6)))
    cameras, labels = [0, 1, 2, 4], [3, 3, 0, 7]
    value, grads = cross_camera_loss_batch(anchors, cameras, labels, memory,
                                           tau=0.07, n_neg=5)
    ref_value, ref_grads = cross_camera_oracle(anchors, cameras, labels, memory,
                                               tau=0.07, n_neg=5)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert max_rel_err(grads, ref_grads) <= 1e-12

