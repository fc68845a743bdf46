import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfreid import rerank
from selfreid.errors import SelfReidError
from selfreid.linalg import normalize_rows
from selfreid.rerank import (
    OUTLIER,
    ClusterConfig,
    dbscan,
    generate_pseudo_labels,
    jaccard_distance_matrix,
)

from oracles import (
    dbscan_oracle,
    dense_jaccard,
    jaccard_oracle,
    pairs_from_dense,
    pairs_well_formed,
    partitions_equal,
    scipy_weight_vectors,
    traced_peak,
)

# The largest max_distance: the pairs hold every distance below 1, so
# their dense view is the whole Jaccard matrix.
EVERY = np.nextafter(1.0, 0.0)


def jaccard_dense(features, k1, k2):
    return np.asarray(jaccard_distance_matrix(features, k1, k2, EVERY))


def unit_cloud(rng, n, d):
    return normalize_rows(rng.normal(size=(n, d)))


def blob_bank(rng, n_groups, per_group, d, spread=0.02):
    """Well-separated groups of nearly coincident unit vectors."""
    centers = unit_cloud(rng, n_groups, d)
    rows = []
    for c in centers:
        rows.extend(c + spread * rng.normal(size=(per_group, d)))
    return normalize_rows(np.array(rows))


# Unit vectors with four entries of +-0.5 in 8 dimensions: every dot
# product is a multiple of 0.25 and exact in floating point, so BLAS and
# the oracle's Python sums give the same distances and the same ties.
def dyadic_vectors():
    rows = []
    for support in itertools.combinations(range(8), 4):
        for signs in itertools.product((0.5, -0.5), repeat=4):
            row = np.zeros(8)
            row[list(support)] = signs
            rows.append(row)
    return np.array(rows)


DYADIC = dyadic_vectors()


# --- jaccard ---------------------------------------------------------------

def test_jaccard_coincident_points_distance_zero():
    rng = np.random.default_rng(0)
    others = unit_cloud(rng, 8, 16)
    dup = normalize_rows(np.array([[1.0] + [0.0] * 15]))
    feats = np.vstack([dup, dup, -others])  # duplicates far from the rest
    dist = jaccard_dense(feats, k1=4, k2=2)
    assert dist[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_jaccard_disjoint_neighborhoods_distance_one():
    # two tight, antipodal groups: expanded reciprocal sets never mix
    rng = np.random.default_rng(1)
    group = blob_bank(rng, 1, 6, 12, spread=0.01)
    feats = np.vstack([group, -group])
    dist = jaccard_dense(feats, k1=3, k2=2)
    assert dist[0, 7] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_jaccard_matches_set_algebra_oracle(seed):
    rng = np.random.default_rng(seed)
    feats = unit_cloud(rng, 20, 8)
    fast = jaccard_dense(feats, k1=6, k2=3)
    slow = jaccard_oracle(feats, k1=6, k2=3)
    np.testing.assert_allclose(fast, slow, atol=1e-12)


def blobs_and_cloud(rng):
    return np.vstack([blob_bank(rng, 10, 20, 16, spread=0.1), unit_cloud(rng, 100, 16)])


def duplicates_across_block_boundaries(rng):
    """Seven row blocks; rows b - 2 .. b + 1 at every block boundary b
    are copies of row b - 2, and rows 5 and 300 are copies of row 400."""
    feats = np.vstack([blob_bank(rng, 12, 30, 16, spread=0.1), unit_cloud(rng, 60, 16)])
    for boundary in range(rerank._BLOCK_ROWS, len(feats), rerank._BLOCK_ROWS):
        feats[boundary - 1:boundary + 2] = feats[boundary - 2]
    feats[[5, 300]] = feats[400]
    return feats


# 257 and 641 rows leave a one-row last block, which joins the block
# before it; 255 and 256 leave none.
@pytest.mark.parametrize("k1, k2, bank", [
    pytest.param(30, 6, blobs_and_cloud, id="30-6"),
    pytest.param(8, 3, blobs_and_cloud, id="8-3"),
    pytest.param(20, 4, duplicates_across_block_boundaries, id="20-4-duplicates"),
    *[pytest.param(30, 6, lambda rng, n=n: unit_cloud(rng, n, 16), id=f"30-6-cloud-{n}")
      for n in (255, 256, 257, 641)],
])
def test_jaccard_matches_dense_reference(k1, k2, bank):
    feats = bank(np.random.default_rng(10))
    # Min-sum blocks split the distance blocks, so both passes run over
    # at least three blocks.
    assert len(feats) > 2 * rerank._BLOCK_ROWS
    fast = jaccard_dense(feats, k1, k2)
    assert np.any((fast > 0.0) & (fast < 1.0))
    np.testing.assert_allclose(fast, dense_jaccard(feats, k1, k2), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(fast, fast.T)
    np.testing.assert_array_equal(np.diag(fast), 0.0)
    # At a lower max_distance a block keeps the same values, fewer of them.
    pairs = jaccard_distance_matrix(feats, k1, k2, 0.55)
    for got, expected in zip(pairs, pairs_from_dense(fast, 0.55)):
        np.testing.assert_array_equal(got, expected, strict=True)


def test_permuting_the_bank_permutes_the_pairs_and_the_clusters():
    # Generic rows: no distance ties, so neighbor order never falls back
    # on the row index, and BLAS sums may differ only in the last bits.
    rng = np.random.default_rng(0)
    bank = np.vstack([blob_bank(rng, 10, 20, 16, spread=0.25), unit_cloud(rng, 100, 16)])
    perm = rng.permutation(len(bank))
    config = ClusterConfig()
    pairs = jaccard_distance_matrix(bank, 30, 6, config.eps)
    permuted = jaccard_distance_matrix(bank[perm], 30, 6, config.eps)
    dist = np.asarray(pairs)
    np.testing.assert_allclose(np.asarray(permuted), dist[np.ix_(perm, perm)], rtol=0, atol=1e-12)

    base = dbscan(pairs, config)
    restored = np.empty_like(base.labels)
    restored[perm] = dbscan(permuted, config).labels
    # A border point within eps of cores in two clusters takes the lower
    # id, and ids follow the lowest core index, so its cluster follows
    # row order.
    within = dist <= config.eps
    core = np.count_nonzero(within, axis=1) >= config.min_samples
    tied = [p for p in np.flatnonzero(~core)
            if len(set(base.labels[core & within[p]].tolist())) > 1]
    kept = np.setdiff1d(np.arange(len(bank)), tied)
    assert base.cluster_count == 5 and base.outlier_count > 0 and len(tied) == 2
    assert not partitions_equal(base.labels, restored)
    assert partitions_equal(base.labels[kept], restored[kept])


def test_jaccard_ties_at_the_k1_boundary_match_oracle():
    # duplicated rows in shuffled order: exact distance ties straddle the
    # k1, k1 // 2 and k2 boundaries and break by index
    rows = np.repeat([0, 1, 17, 300, 555, 1000], [5, 4, 3, 3, 2, 3])
    feats = DYADIC[np.random.default_rng(11).permutation(rows)]
    k1, k2 = 6, 3
    ranked = np.sort(1.0 - feats @ feats.T, axis=1)
    for k in (k1, k1 // 2, k2):
        assert np.any(ranked[:, k - 1] == ranked[:, k])
    np.testing.assert_allclose(jaccard_dense(feats, k1, k2),
                               jaccard_oracle(feats, k1, k2), rtol=0, atol=1e-12)


@settings(max_examples=60)
@given(st.data())
def test_jaccard_property_matches_oracle(data):
    n = data.draw(st.integers(6, 30), label="n")
    pool = data.draw(st.integers(2, len(DYADIC)), label="pool")  # small: many duplicates
    rows = data.draw(st.lists(st.integers(0, pool - 1), min_size=n, max_size=n), label="rows")
    k1 = data.draw(st.integers(1, n - 1), label="k1")
    k2 = data.draw(st.integers(1, k1), label="k2")
    feats = DYADIC[rows]
    np.testing.assert_allclose(jaccard_dense(feats, k1, k2),
                               jaccard_oracle(feats, k1, k2), rtol=0, atol=1e-12)


@pytest.mark.parametrize("bank, k1, k2", [
    pytest.param(lambda rng: blob_bank(rng, 20, 32, 32, spread=0.15), 30, 6, id="blobs-640"),
    pytest.param(lambda rng: blob_bank(rng, 60, 32, 32, spread=0.15), 30, 6, id="blobs-1920"),
    pytest.param(lambda rng: DYADIC[rng.integers(0, 60, size=641)], 30, 6, id="grid-641"),
    pytest.param(lambda rng: DYADIC[rng.integers(0, len(DYADIC), size=1921)], 20, 4,
                 id="grid-1921"),
])
def test_weight_vectors_equal_scipy_reference_bytes(bank, k1, k2):
    # The grids are tie-heavy (duplicates, exact distance ties), and
    # n = 641 and 1921 leave a last row that joins the block before it.
    feats = bank(np.random.default_rng(13))
    fast = rerank._weight_vectors(feats, k1, k2)
    reference = scipy_weight_vectors(feats, k1, k2)
    for name in ("indptr", "indices"):
        assert (getattr(fast, name).astype(np.int64).tobytes()
                == getattr(reference, name).astype(np.int64).tobytes())
    assert fast.data.tobytes() == reference.data.tobytes()


@pytest.mark.parametrize("groups", [pytest.param(20, id="blobs-640"),
                                    pytest.param(60, id="blobs-1920")])
def test_weight_vectors_scratch_grows_with_their_output(groups):
    # Int32 columns with per-row counts, and each stage's arrays freed
    # before the next one allocates, keep the weight pass's traced peak
    # at 58 and 40 bytes per returned entry on these banks; 12 of them
    # are the entry itself.
    feats = blob_bank(np.random.default_rng(13), groups, 32, 32, spread=0.15)
    peak, weights = traced_peak(rerank._weight_vectors, feats, 30, 6)
    assert weights.indices.dtype == np.int32
    assert peak < 80 * len(weights.data)


def test_nearest_neighbors_partition_eight_rows_at_a_time():
    # np.partition copies its input. Eight rows at a time, the copy is an
    # eighth of the block; a copy of the whole block would not fit.
    feats = unit_cloud(np.random.default_rng(16), 2000, 16)
    dist = rerank._distances(feats, 0, rerank._BLOCK_ROWS)
    peak, order = traced_peak(rerank._nearest_neighbors, dist, 30)
    np.testing.assert_array_equal(order, np.argsort(dist, axis=1, kind="stable")[:, :30])
    assert peak < dist.nbytes / 4


def test_nearest_neighbors_keep_column_order_among_ties():
    # Dyadic distances are multiples of 0.25, so each row has dozens of
    # columns tied at its k-th smallest value, and one row is all ties.
    dist = 1.0 - DYADIC[::17] @ DYADIC.T
    dist[3] = 0.5
    for k in (1, 5, 30):
        kth = np.sort(dist, axis=1)[:, k - 1:k]
        assert np.count_nonzero(dist <= kth, axis=1).max() > 2 * k
        np.testing.assert_array_equal(rerank._nearest_neighbors(dist, k),
                                      np.argsort(dist, axis=1, kind="stable")[:, :k])


def test_pair_blocks_keep_int32_suffixes_and_entry_lists():
    feats = blob_bank(np.random.default_rng(13), 20, 32, 32, spread=0.15)
    weights = rerank._weight_vectors(feats, 30, 6)
    suffix, blocks = rerank._pair_blocks(weights)
    assert suffix.dtype == np.int32
    assert all(entries.dtype == np.int32 for _, _, entries in blocks)
    assert sum(len(entries) for _, _, entries in blocks) == len(suffix)
    # An entry meets only the members after it: each two members of a
    # column meet once, and no entry meets itself.
    members = np.diff(weights.indptr)
    assert suffix.sum() == np.sum(members * (members - 1) // 2)


# sha256 of the pairs' indptr, indices and data at k1 = 30, k2 = 6 and every
# distance below 1, with OpenBLAS 0.3.31 (Haswell kernels): a refactor of
# re-ranking keeps these bytes. n = 641 ends in a 65-row block, whose edge
# column BLAS sums with other kernels; another BLAS may change the bits.
@pytest.mark.parametrize("n, digest", [
    (640, "ee2c732e4d041d33d91e7de685d6cd48e4b7ebce3a2e6fbbc5ae0912676574ba"),
    (1920, "d23bd79ddefb10e3869772849ca19c937763b1534d24c2258f5f9bcb56bb59fe"),
    (641, "9eb961eb1feb9dedbc95c8b2c6b1d868d1d575686de4055a853202d304545045"),
])
def test_jaccard_pairs_keep_their_bytes(n, digest):
    bank = blob_bank(np.random.default_rng(13), -(-n // 32), 32, 32, spread=0.15)[:n]
    pairs = jaccard_distance_matrix(bank, 30, 6, EVERY)
    assert hashlib.sha256(b"".join(a.tobytes() for a in pairs[:3])).hexdigest() == digest


def test_jaccard_symmetric_zero_diag_unit_range():
    rng = np.random.default_rng(9)
    feats = unit_cloud(rng, 30, 10)
    dist = jaccard_dense(feats, k1=8, k2=4)
    np.testing.assert_allclose(dist, dist.T, atol=1e-12)
    np.testing.assert_array_equal(np.diag(dist), 0.0)
    assert dist.min() >= 0.0 and dist.max() <= 1.0


def test_jaccard_insufficient_samples():
    rng = np.random.default_rng(2)
    with pytest.raises(SelfReidError, match="k1=5, k2=2 must be < n=5"):
        jaccard_distance_matrix(unit_cloud(rng, 5, 4), k1=5, k2=2, max_distance=0.55)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda feats: jaccard_distance_matrix(feats[0], 5, 2, 0.55),
                 r"^need a 2-D matrix of at least 2 samples, got shape \(8,\)$",
                 id="jaccard-1d"),
    pytest.param(lambda feats: jaccard_distance_matrix(feats[None], 5, 2, 0.55),
                 r"^need a 2-D matrix of at least 2 samples, got shape \(1, 20, 8\)$",
                 id="jaccard-3d"),
    pytest.param(lambda feats: jaccard_distance_matrix(feats, 5, 0, 0.55),
                 r"^k1=5, k2=0 must be < n=20 with 1 <= k2 <= k1$", id="jaccard-k2-zero"),
    pytest.param(lambda feats: jaccard_distance_matrix(feats, 0, 0, 0.55),
                 r"^k1=0, k2=0 must be < n=20 with 1 <= k2 <= k1$", id="jaccard-k1-zero"),
    pytest.param(lambda feats: jaccard_distance_matrix(feats, 3, 5, 0.55),
                 r"^k1=3, k2=5 must be < n=20 with 1 <= k2 <= k1$", id="jaccard-k2-above-k1"),
    pytest.param(lambda feats: jaccard_distance_matrix(feats, 5.0, 2, 0.55),
                 r"^need k1 to be an int, got 5\.0$", id="jaccard-k1-float"),
    pytest.param(lambda feats: jaccard_distance_matrix(feats, 5, True, 0.55),
                 r"^need k2 to be an int, got True$", id="jaccard-k2-bool"),
    # at 1.0 the pairs would be every pair, and the dense view could not
    # tell a missing pair from a distance of 1
    *[pytest.param(lambda feats, m=m: jaccard_distance_matrix(feats, 5, 2, m),
                   rf"^need 0 <= max_distance < 1, got {m}$", id=f"jaccard-max-distance-{m}")
      for m in (1.0, -0.5, np.nan)],
])
def test_rerank_rejects_bad_input(call, message):
    feats = unit_cloud(np.random.default_rng(15), 20, 8)
    with pytest.raises(SelfReidError, match=message):
        call(feats)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_jaccard_rejects_non_finite_features(value):
    feats = unit_cloud(np.random.default_rng(14), 50, 8)
    feats[17, 3] = value
    message = f"^re-ranking features: row 17: feature 3 is {value}, not a finite number$"
    with pytest.raises(SelfReidError, match=message):
        jaccard_distance_matrix(feats, k1=10, k2=4, max_distance=0.55)
    with pytest.raises(SelfReidError, match=message):
        generate_pseudo_labels(feats, ClusterConfig(k1=10, k2=4))


# --- dbscan ----------------------------------------------------------------

def dist_from_points(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(-1))


def dbscan_dense(dist, config):
    """dbscan on a dense fixture's pairs within config.eps."""
    return dbscan(pairs_from_dense(dist, config.eps), config)


def test_dbscan_coincident_points_single_cluster():
    dist = np.zeros((5, 5))
    assignment = dbscan_dense(dist, ClusterConfig(eps=0.55, min_samples=4))
    assert assignment.cluster_count == 1
    assert assignment.outlier_count == 0


def test_dbscan_all_far_apart_all_outliers():
    dist = np.full((8, 8), 0.9)
    np.fill_diagonal(dist, 0.0)
    assignment = dbscan_dense(dist, ClusterConfig(eps=0.55, min_samples=4))
    assert assignment.cluster_count == 0
    assert np.all(assignment.labels == OUTLIER)


def test_dbscan_two_blobs():
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.normal(0, 0.02, size=(6, 2)),
                     rng.normal(5, 0.02, size=(6, 2))])
    assignment = dbscan_dense(dist_from_points(pts), ClusterConfig(eps=0.55, min_samples=4))
    assert assignment.cluster_count == 2
    assert len(set(assignment.labels[:6])) == 1
    assert len(set(assignment.labels[6:])) == 1
    assert assignment.labels[0] != assignment.labels[6]


@pytest.mark.parametrize("seed", range(6))
def test_dbscan_matches_reachability_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 50))
    pts = rng.normal(size=(n, 2)) * rng.uniform(0.3, 1.5)
    dist = dist_from_points(pts)
    eps = float(rng.uniform(0.3, 0.9))
    min_samples = int(rng.integers(2, 6))
    assignment = dbscan_dense(dist, ClusterConfig(eps=min(eps, 0.99), min_samples=min_samples))
    expected = dbscan_oracle(dist, min(eps, 0.99), min_samples)
    np.testing.assert_array_equal(assignment.labels, expected)


def test_dbscan_permutation_invariant_partition():
    rng = np.random.default_rng(4)
    pts = np.vstack([rng.normal(0, 0.05, size=(7, 2)),
                     rng.normal(3, 0.05, size=(7, 2)),
                     rng.normal((0, 3), 0.05, size=(7, 2))])
    dist = dist_from_points(pts)
    config = ClusterConfig(eps=0.5, min_samples=4)
    base = dbscan_dense(dist, config)
    perm = rng.permutation(len(pts))
    permuted = dbscan_dense(dist[np.ix_(perm, perm)], config)
    restored = np.empty_like(permuted.labels)
    restored[perm] = permuted.labels
    assert partitions_equal(base.labels, restored)


def test_dbscan_inliers_near_a_core_point():
    rng = np.random.default_rng(5)
    pts = np.vstack([rng.normal(0, 0.1, size=(10, 2)),
                     rng.normal(4, 0.1, size=(10, 2))])
    dist = dist_from_points(pts)
    config = ClusterConfig(eps=0.45, min_samples=4)
    assignment = dbscan_dense(dist, config)
    core = (dist <= config.eps).sum(axis=1) >= config.min_samples
    for i in np.flatnonzero(assignment.labels != OUTLIER):
        same = assignment.labels == assignment.labels[i]
        assert np.any(core & same & (dist[i] <= config.eps))


def test_dbscan_border_point_takes_lowest_cluster_id():
    # cores {1, 2, 3, 8} form cluster 0 and {4, 5, 6, 7} cluster 1; border
    # point 0 is nearest to core 4 but also exactly eps from core 8
    dist = np.full((9, 9), 0.9)
    for group in ([1, 2, 3, 8], [4, 5, 6, 7]):
        dist[np.ix_(group, group)] = 0.2
    dist[0, 4] = dist[4, 0] = 0.1
    dist[0, 8] = dist[8, 0] = 0.5
    np.fill_diagonal(dist, 0.0)
    assignment = dbscan_dense(dist, ClusterConfig(eps=0.5, min_samples=4))
    np.testing.assert_array_equal(assignment.labels, [0, 0, 0, 0, 1, 1, 1, 1, 0])
    np.testing.assert_array_equal(assignment.labels, dbscan_oracle(dist, 0.5, 4))


def test_dbscan_min_samples_one_makes_every_point_a_core():
    dist = np.full((6, 6), 0.9)
    dist[2, 3] = dist[3, 2] = 0.3
    np.fill_diagonal(dist, 0.0)
    assignment = dbscan_dense(dist, ClusterConfig(eps=0.5, min_samples=1))
    np.testing.assert_array_equal(assignment.labels, [0, 1, 2, 2, 3, 4])
    assert assignment.cluster_count == 5
    np.testing.assert_array_equal(assignment.labels, dbscan_oracle(dist, 0.5, 1))


@given(st.data())
def test_dbscan_property_matches_oracle(data):
    # points on a line at integer positions, 1/8 apart: distances are exact,
    # many fall exactly on eps, and sparse stretches leave border points
    # between dense runs
    n = data.draw(st.integers(0, 25), label="n")
    positions = np.array(data.draw(st.lists(st.integers(0, 30), min_size=n, max_size=n),
                                   label="positions"))
    dist = np.minimum(0.125 * np.abs(positions[:, None] - positions[None, :]), 0.875)
    eps = data.draw(st.sampled_from([0.125, 0.25, 0.5]), label="eps")
    min_samples = data.draw(st.integers(1, 6), label="min_samples")
    assignment = dbscan_dense(dist, ClusterConfig(eps=eps, min_samples=min_samples))
    np.testing.assert_array_equal(assignment.labels, dbscan_oracle(dist, eps, min_samples))
    assert assignment.cluster_count == len(set(assignment.labels.tolist()) - {OUTLIER})


def test_dbscan_shuffled_chains_match_oracle():
    # Two chains of points 1/8 apart, their indices shuffled, so that each
    # chain's lowest index spreads through many hooking rounds; the chain
    # ends are border points and a far point is an outlier.
    positions = np.concatenate([np.arange(150), 1000 + np.arange(90), [5000]])
    positions = np.random.default_rng(14).permutation(positions)
    dist = np.minimum(0.125 * np.abs(positions[:, None] - positions[None, :]), 0.875)
    assignment = dbscan_dense(dist, ClusterConfig(eps=0.125, min_samples=3))
    np.testing.assert_array_equal(assignment.labels, dbscan_oracle(dist, 0.125, 3))
    assert assignment.cluster_count == 2
    assert assignment.outlier_count == 1


def four_points():
    """The pairs of four coincident points: every distance is zero, and
    the six pairs p < q are (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)."""
    return pairs_from_dense(np.zeros((4, 4)), 0.55)


def with_pairs(pairs, **fields):
    return pairs._replace(**{name: np.array(value) for name, value in fields.items()})


@pytest.mark.parametrize("fields, eps, message", [
    pytest.param({}, 0.6, r"^eps=0.6 is above the pairs' max_distance=0.55$",
                 id="eps-above-max-distance"),
])
def test_dbscan_rejects_malformed_pairs(fields, eps, message):
    # dbscan trusts the pairs' format (test_jaccard_pairs_are_well_formed) and
    # checks eps alone: pairs cut off below it would drop links silently
    with pytest.raises(SelfReidError, match=message):
        dbscan(with_pairs(four_points(), **fields), ClusterConfig(eps=eps))


@pytest.mark.parametrize("indptr, indices", [
    pytest.param([0, 3, 5, 6, 6], [1, 2, 3, 2, 3, 2], id="diagonal"),  # (2, 2)
    pytest.param([0, 3, 5, 6, 7], [1, 2, 3, 2, 3, 3, 1], id="below-diagonal"),  # (3, 1)
])
def test_pairs_well_formed_rejects_pairs_on_or_below_the_diagonal(indptr, indices):
    # The lower triangle is the upper one's mirror, and the diagonal is
    # zero, so neither is stored.
    assert pairs_well_formed(four_points())
    assert not pairs_well_formed(with_pairs(four_points(), indptr=indptr, indices=indices,
                                            data=np.zeros(len(indices))))


@pytest.mark.parametrize("cell, value", [((1, 2), np.nan), ((2, 3), np.inf), ((0, 1), 0.75),
                                         ((0, 3), -0.25)],
                         ids=["nan-off-diagonal", "inf-in-the-last-pair", "above-max-distance",
                              "negative"])
def test_pairs_well_formed_rejects_an_entry_that_is_no_distance(cell, value):
    pairs = four_points()
    data = pairs.data.copy()
    data[list(zip(*np.triu_indices(4, 1))).index(cell)] = value
    assert not pairs_well_formed(with_pairs(pairs, data=data))


@pytest.mark.parametrize("fields", [
    pytest.param({"indices": [2, 1, 3, 2, 3, 3]}, id="unsorted-indices"),
    pytest.param({"indices": [1, 1, 3, 2, 3, 3]}, id="repeated-index"),
    pytest.param({"indices": [1, 2, 4, 2, 3, 3]}, id="index-above-n"),
    pytest.param({"indices": [-1, 2, 3, 2, 3, 3]}, id="negative-index"),
    pytest.param({"indptr": [0, 3, 5, 5, 5]}, id="indptr-short"),
    pytest.param({"indptr": [0, 5, 3, 6, 6]}, id="indptr-falls"),
    pytest.param({"data": np.zeros(5)}, id="data-short"),
    pytest.param({"indices": [1.0, 2, 3, 2, 3, 3]}, id="float-indices"),
])
def test_pairs_well_formed_rejects_malformed_pairs(fields):
    assert not pairs_well_formed(with_pairs(four_points(), **fields))


@settings(max_examples=40)
@given(st.data())
def test_jaccard_pairs_are_well_formed(data):
    # banks of exact duplicates, n = 641 (a one-row last block joins the
    # block before it), and max_distance below and at the default eps
    n = data.draw(st.one_of(st.integers(2, 40), st.just(641)), label="n")
    pool = data.draw(st.integers(1, len(DYADIC)), label="pool")  # small: many duplicates
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    k1 = data.draw(st.integers(1, min(n - 1, 30)), label="k1")
    k2 = data.draw(st.integers(1, k1), label="k2")
    eps = ClusterConfig().eps
    max_distance = data.draw(st.one_of(st.just(eps), st.floats(0.0, eps)), label="max_distance")
    feats = DYADIC[np.random.default_rng(seed).integers(0, pool, size=n)]
    pairs = jaccard_distance_matrix(feats, k1, k2, max_distance)
    assert pairs_well_formed(pairs)
    assert pairs.max_distance == max_distance


def forty_blobs():
    """1,200 rows in 40 blobs of 30: about 30 entries of each row's
    Jaccard distances fall within the default eps."""
    return blob_bank(np.random.default_rng(12), 40, 30, 32, spread=0.15)


def test_dbscan_peak_memory_grows_with_the_pairs():
    # dbscan reads the pairs p < q (12 bytes each) and holds O(1) arrays
    # per pair beside them: its traced peak is 35 bytes per stored pair
    # here. An n x n bool mask, 83 bytes per pair, would not fit.
    pairs = jaccard_distance_matrix(forty_blobs(), 30, 6, ClusterConfig().eps)
    peak, _ = traced_peak(dbscan, pairs, ClusterConfig())
    assert peak < 38 * len(pairs.data)


def test_jaccard_and_dbscan_peak_memory():
    # No n x n array. The weight pass (44 bytes per weight entry here)
    # sets the traced peak; after it, the min-sum pass holds the weights,
    # int32 suffixes and entry lists (20 bytes per entry), one block's
    # scratch and the pairs so far, and dbscan O(1) arrays per pair. An
    # n x n float64 array alone, 240 bytes per weight entry, would not fit.
    n = 1200
    bank = forty_blobs()
    entries = len(rerank._weight_vectors(bank, 30, 6).data)
    pairs = jaccard_distance_matrix(bank, 30, 6, ClusterConfig().eps)
    peak, _ = traced_peak(lambda: dbscan(jaccard_distance_matrix(bank, 30, 6, 0.55),
                                         ClusterConfig()))
    assert peak < 48 * entries + 8 * rerank._BLOCK_ROWS * n + 24 * len(pairs.data)


# --- generate_pseudo_labels -------------------------------------------------

def test_pseudo_labels_three_groups():
    rng = np.random.default_rng(6)
    bank = blob_bank(rng, 3, 5, 16, spread=0.01)
    assignment = generate_pseudo_labels(bank, ClusterConfig(k1=6, k2=3, eps=0.55,
                                                            min_samples=4))
    assert assignment.cluster_count == 3
    assert assignment.outlier_count == 0
    for g in range(3):
        assert len(set(assignment.labels[g * 5:(g + 1) * 5])) == 1


def test_pseudo_labels_tiny_bank_all_outliers():
    rng = np.random.default_rng(7)
    bank = unit_cloud(rng, 3, 8)
    assignment = generate_pseudo_labels(bank, ClusterConfig(min_samples=4))
    assert assignment.cluster_count == 0
    assert np.all(assignment.labels == OUTLIER)


def test_neighborhoods_clamp_to_one_less_than_the_rows():
    config = ClusterConfig(k1=30, k2=6)
    assert config.neighborhoods(31) == (30, 6)
    assert config.neighborhoods(10) == (9, 6)
    assert config.neighborhoods(5) == (4, 4)


def test_pseudo_labels_re_rank_a_bank_smaller_than_k1_at_clamped_sizes(monkeypatch):
    bank = blob_bank(np.random.default_rng(4), 2, 4, 8)
    seen = []

    def spy(features, k1, k2, max_distance):
        seen.append((k1, k2, max_distance))
        return jaccard_distance_matrix(features, k1, k2, max_distance)

    monkeypatch.setattr(rerank, "jaccard_distance_matrix", spy)
    assignment = generate_pseudo_labels(bank, ClusterConfig(k1=30, k2=6, min_samples=2))
    assert seen == [(7, 6, 0.55)]
    assert len(assignment.labels) == len(bank)


def test_cluster_count_non_increasing_in_eps():
    rng = np.random.default_rng(8)
    bank = blob_bank(rng, 4, 6, 16, spread=0.08)
    config = ClusterConfig(k1=8, k2=4, min_samples=4)
    pairs = jaccard_distance_matrix(bank, config.k1, config.k2, 0.6)
    counts = []
    for eps in (0.45, 0.5, 0.55, 0.6):
        counts.append(dbscan(pairs, ClusterConfig(k1=8, k2=4, eps=eps,
                                                 min_samples=4)).cluster_count)
    assert all(a >= b for a, b in zip(counts, counts[1:]))
