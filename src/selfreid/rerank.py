"""Pseudo-label generation: k-reciprocal Jaccard distances + DBSCAN.

The distance between two samples is the Jaccard distance of their
expanded reciprocal-neighbor weight vectors, computed on the momentum
representations. DBSCAN then runs directly on that precomputed matrix;
samples that no cluster reaches are marked as outliers and excluded
from training for the epoch.

Neighbor lists, reciprocal and expanded sets and the weight vectors are
sparse, with O(n) entries for fixed k1 and k2, so re-ranking and DBSCAN
take O(n^2) time and memory. The Jaccard distances are still returned
as a dense n x n matrix, which `dbscan`, `selfreid sweep-eps --dump` and
the tests read.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .errors import InsufficientSamples, InvalidDistanceMatrix, SelfReidError

OUTLIER = -1


@dataclass
class ClusterConfig:
    """Neighborhood sizes for re-ranking and DBSCAN thresholds."""

    k1: int = field(default=30, metadata={"help": "reciprocal neighborhood size"})
    k2: int = field(default=6, metadata={"help": "local query expansion size"})
    eps: float = field(default=0.55, metadata={"help": "DBSCAN distance threshold"})
    min_samples: int = field(default=4, metadata={"help": "DBSCAN minimum cluster size"})

    def validate(self) -> None:
        if not (self.k1 >= self.k2 >= 1):
            raise SelfReidError(f"need k1 >= k2 >= 1, got k1={self.k1} k2={self.k2}")
        if not (0.0 < self.eps < 1.0):
            raise SelfReidError(f"need 0 < eps < 1, got {self.eps}")
        if self.min_samples < 1:
            raise SelfReidError(f"need min_samples >= 1, got {self.min_samples}")


@dataclass
class ClusterAssignment:
    """Per-sample pseudo labels; OUTLIER (-1) marks unclustered samples.

    Cluster ids are contiguous 0..cluster_count-1 in order of cluster
    creation (ascending index of each cluster's first core point).
    """

    labels: np.ndarray
    cluster_count: int

    @property
    def outlier_count(self) -> int:
        return int(np.sum(self.labels == OUTLIER))

    @cached_property
    def member_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, starts): sample indices sorted by label, stably, and the
        position of each cluster's first member in them, built once per
        assignment. Outliers come first; cluster c's members, ascending,
        are order[starts[c]:starts[c + 1]] for c in 0..cluster_count-1,
        so the inliers are order[starts[0]:starts[-1]].
        """
        order = np.argsort(self.labels, kind="stable")
        starts = np.searchsorted(self.labels[order], np.arange(self.cluster_count + 1))
        return order, starts

    def members_of(self, cluster_id: int) -> np.ndarray:
        """Ascending indices of the cluster's samples."""
        order, starts = self.member_index
        return order[starts[cluster_id]:starts[cluster_id + 1]]


def _nearest_neighbors(dist: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest columns in (distance, index) order, as (n, k).

    Equal to `np.argsort(dist, axis=1, kind="stable")[:, :k]` without the
    full sort: every entry at or below the row's k-th smallest value is a
    candidate (so ties at the boundary are all kept), and the candidates
    are sorted by (row, distance, column).
    """
    n = dist.shape[0]
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(dist <= kth[:, None])
    by_row = np.lexsort((cols, dist[rows, cols], rows))
    rows, cols = rows[by_row], cols[by_row]
    starts = np.searchsorted(rows, np.arange(n))
    rank = np.arange(len(rows)) - starts[rows]
    return cols[rank < k].reshape(n, k)


def _indicator(columns: np.ndarray) -> csr_array:
    """n x n 0/1 matrix with ones at (p, columns[p, i]), stored in that order."""
    n, k = columns.shape
    indptr = np.arange(0, columns.size + 1, k)
    return csr_array((np.ones(columns.size), columns.ravel(), indptr), shape=(n, n))


def jaccard_distance_matrix(features: np.ndarray, k1: int, k2: int) -> np.ndarray:
    """k-reciprocal Jaccard distance matrix over unit-norm feature rows.

    Steps: (1) original distance = 1 - cosine; (2) reciprocal sets at k1,
    R = N * N^T for the k1-nearest-neighbor indicator N; (3) expansion by
    the half-size reciprocal sets H of candidates whose set overlaps the
    anchor's by at least two thirds; (4) weight vectors exp(-distance) on
    the expanded set; (5) local query expansion, averaging the weight
    vectors of each sample's k2 nearest neighbors; (6) pairwise Jaccard
    distance 1 - sum(min) / sum(max) of the weight vectors.

    Steps 2-5 use sparse matrices with O(n * k1) entries. Step 6 walks the
    weight vectors column by column (an inverted index) and adds
    min(v_p, v_q) for every pair of rows sharing the column, so pairs with
    no common support stay at distance 1. The result is dense because
    `dbscan` and the callers of this function read the whole matrix.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n < 2:
        raise InsufficientSamples(f"need at least 2 samples, got {n}")
    if k1 >= n or k2 >= n:
        raise InsufficientSamples(f"k1={k1}, k2={k2} must be < n={n}")

    dist = features @ features.T
    np.subtract(1.0, dist, out=dist)
    np.fill_diagonal(dist, 0.0)
    # Neighbor lists include the point itself: its self-distance is zero,
    # so only exact duplicates with a lower index rank before it. The
    # k1 // 2 and k2 lists are prefixes of the k1 list.
    order = _nearest_neighbors(dist, k1)

    full = _indicator(order)
    recip_full = full.multiply(full.T)
    half = _indicator(order[:, :max(k1 // 2, 1)])
    recip_half = half.multiply(half.T)

    # Expanded sets: adopt a candidate's half-size reciprocal set when it
    # overlaps the anchor's full set by >= 2/3. Counts are small integers,
    # exact in float64, so the comparison is exact.
    half_sizes = np.diff(recip_half.indptr)
    overlap = (recip_full @ recip_half.T).multiply(recip_full).tocoo()
    adopted = 3.0 * overlap.data >= 2.0 * half_sizes[overlap.col]
    adopt = csr_array((np.ones(int(adopted.sum())),
                       (overlap.row[adopted], overlap.col[adopted])), shape=(n, n))
    expanded = recip_full + adopt @ recip_half
    expanded.sum_duplicates()  # one weight per (row, column)

    rows = np.repeat(np.arange(n), np.diff(expanded.indptr))
    weights = csr_array((np.exp(-dist[rows, expanded.indices]), expanded.indices,
                         expanded.indptr), shape=(n, n))
    del dist  # frees n x n floats before min_sum is allocated

    # Local query expansion: average each weight vector over the sample's
    # k2 nearest neighbors (self included), summed in neighbor order.
    weights = (_indicator(order[:, :k2]) @ weights).tocsc()
    weights.data /= k2
    row_sums = np.bincount(weights.indices, weights.data, minlength=n)

    # Inverted index: the rows holding a column are the pairs that share
    # it. Going column by column bounds the temporaries by one column's
    # pairs; all columns together hold ~10^7 pairs at n = 1920.
    min_sum = np.zeros((n, n))
    flat = min_sum.ravel()
    for col in range(n):
        span = slice(weights.indptr[col], weights.indptr[col + 1])
        members = weights.indices[span].astype(np.int64)
        values = weights.data[span]
        pairs = (members[:, None] * n + members).ravel()
        flat[pairs] += np.minimum.outer(values, values).ravel()

    max_sum = row_sums[:, None] + row_sums[None, :]
    max_sum -= min_sum
    jaccard = np.divide(min_sum, max_sum, out=min_sum)
    np.subtract(1.0, jaccard, out=jaccard)
    np.fill_diagonal(jaccard, 0.0)
    return np.clip(jaccard, 0.0, 1.0, out=jaccard)


def dbscan(dist: np.ndarray, config: ClusterConfig) -> ClusterAssignment:
    """DBSCAN over a precomputed distance matrix.

    Core points have at least min_samples points (themselves included)
    within eps. Clusters are the connected components of the core points
    joined by within-eps links, numbered by their lowest core index. Each
    border point takes the lowest cluster id among the core points within
    eps of it, so the output does not depend on a visiting order.
    """
    config.validate()
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.ndim != 2 or dist.shape[1] != n:
        raise InvalidDistanceMatrix(f"expected square matrix, got {dist.shape}")
    # An exactly symmetric matrix, such as jaccard_distance_matrix returns,
    # skips the slower tolerance check.
    symmetric = np.array_equal(dist, dist.T) or np.allclose(dist, dist.T, atol=1e-12)
    if not symmetric or np.any(np.abs(np.diag(dist)) > 1e-12):
        raise InvalidDistanceMatrix("matrix must be symmetric with zero diagonal")

    rows, cols = np.nonzero(dist <= config.eps)  # sorted by row
    core = np.bincount(rows, minlength=n) >= config.min_samples
    cores = np.flatnonzero(core)
    links = core[rows] & core[cols]
    graph = csr_array((np.ones(int(links.sum())), (rows[links], cols[links])), shape=(n, n))
    _, component = connected_components(graph, directed=False)
    # Number the core components by first appearance, i.e. lowest core index.
    component = component[cores]
    _, first = np.unique(component, return_index=True)
    cluster_count = len(first)
    renumber = np.empty(n, dtype=np.int64)
    renumber[component[np.sort(first)]] = np.arange(cluster_count)
    labels = np.full(n, OUTLIER, dtype=np.int64)
    labels[cores] = renumber[component]

    border = ~core[rows] & core[cols]
    rows, cols = rows[border], cols[border]
    if len(rows):
        reached, starts = np.unique(rows, return_index=True)
        labels[reached] = np.minimum.reduceat(labels[cols], starts)
    return ClusterAssignment(labels=labels, cluster_count=cluster_count)


def generate_pseudo_labels(momentum_bank: np.ndarray,
                           config: ClusterConfig) -> ClusterAssignment:
    """Re-rank the momentum bank and cluster it into pseudo identities.

    Neighborhood sizes are clamped to n - 1 so that small banks degrade
    gracefully (they simply end up all-outliers) instead of erroring.
    """
    momentum_bank = np.asarray(momentum_bank, dtype=np.float64)
    n = momentum_bank.shape[0]
    if n < 2 or n < config.min_samples:
        return ClusterAssignment(labels=np.full(n, OUTLIER, dtype=np.int64),
                                 cluster_count=0)
    k1 = min(config.k1, n - 1)
    k2 = min(config.k2, n - 1)
    dist = jaccard_distance_matrix(momentum_bank, k1, k2)
    return dbscan(dist, config)
