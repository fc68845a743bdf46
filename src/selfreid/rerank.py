"""Pseudo-label generation: k-reciprocal Jaccard distances + DBSCAN.

The distance between two samples is the Jaccard distance of their
expanded reciprocal-neighbor weight vectors, computed on the momentum
representations. DBSCAN then runs directly on that precomputed matrix;
samples that no cluster reaches are marked as outliers and excluded
from training for the epoch.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

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

    def inlier_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels != OUTLIER)

    def members_of(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster_id)


def _reciprocal_membership(order: np.ndarray, k: int) -> np.ndarray:
    """Boolean matrix R[p, q] = q in kNN(p, k) and p in kNN(q, k).

    Neighbor lists include the point itself: its self-distance is zero,
    so it always ranks first.
    """
    n = order.shape[0]
    nbr = np.zeros((n, n), dtype=bool)
    nbr[np.arange(n)[:, None], order[:, :k]] = True
    return nbr & nbr.T


def jaccard_distance_matrix(features: np.ndarray, k1: int, k2: int) -> np.ndarray:
    """k-reciprocal Jaccard distance matrix over unit-norm feature rows.

    Steps: (1) original distance = 1 - cosine; (2) reciprocal sets at k1;
    (3) expansion by half-size reciprocal sets of candidates whose set
    overlaps the anchor's by at least two thirds; (4) weight vectors
    exp(-distance) on the expanded set; (5) local query expansion over
    each sample's k2 nearest neighbors; (6) pairwise Jaccard distance of
    the weight vectors.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n < 2:
        raise InsufficientSamples(f"need at least 2 samples, got {n}")
    if k1 >= n or k2 >= n:
        raise InsufficientSamples(f"k1={k1}, k2={k2} must be < n={n}")

    dist = 1.0 - features @ features.T
    np.fill_diagonal(dist, 0.0)
    order = np.argsort(dist, axis=1, kind="stable")

    recip_full = _reciprocal_membership(order, k1)
    recip_half = _reciprocal_membership(order, max(k1 // 2, 1))

    # Expanded sets: adopt a candidate's half-size reciprocal set when it
    # overlaps the anchor's full set by >= 2/3. Counts are small integers,
    # exact in float64, so the comparison is exact.
    full_f = recip_full.astype(np.float64)
    half_f = recip_half.astype(np.float64)
    half_sizes = recip_half.sum(axis=1)
    overlap = full_f @ half_f.T  # overlap[p, q] = |full(p) & half(q)|
    adopt = recip_full & (3.0 * overlap >= 2.0 * half_sizes[None, :])
    expanded = recip_full | ((adopt.astype(np.float64) @ half_f) > 0.0)

    weights = np.where(expanded, np.exp(-dist), 0.0)

    # Local query expansion: average each weight vector over the sample's
    # k2 nearest neighbors (self included).
    weights = weights[order[:, :k2]].mean(axis=1)

    # Jaccard via sum-min/sum-max; min(a,b) = (a + b - |a - b|) / 2.
    row_sums = weights.sum(axis=1)
    l1 = cdist(weights, weights, metric="cityblock")
    total = row_sums[:, None] + row_sums[None, :]
    min_sum = 0.5 * (total - l1)
    max_sum = 0.5 * (total + l1)
    jaccard = 1.0 - min_sum / max_sum
    np.fill_diagonal(jaccard, 0.0)
    return np.clip(jaccard, 0.0, 1.0)


def dbscan(dist: np.ndarray, config: ClusterConfig) -> ClusterAssignment:
    """DBSCAN over a precomputed distance matrix.

    Core points have at least min_samples points (themselves included)
    within eps. Points are visited in index order; border points attach
    to the first core cluster that reaches them, which makes the output
    deterministic.
    """
    config.validate()
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.ndim != 2 or dist.shape[1] != n:
        raise InvalidDistanceMatrix(f"expected square matrix, got {dist.shape}")
    if not np.allclose(dist, dist.T, atol=1e-12) or np.any(np.abs(np.diag(dist)) > 1e-12):
        raise InvalidDistanceMatrix("matrix must be symmetric with zero diagonal")

    within = dist <= config.eps
    core = within.sum(axis=1) >= config.min_samples

    labels = np.full(n, OUTLIER, dtype=np.int64)
    cluster_id = 0
    for start in range(n):
        if not core[start] or labels[start] != OUTLIER:
            continue
        labels[start] = cluster_id
        queue = deque([start])
        while queue:
            p = queue.popleft()
            for q in np.flatnonzero(within[p]):
                if labels[q] != OUTLIER:
                    continue
                labels[q] = cluster_id
                if core[q]:
                    queue.append(q)
        cluster_id += 1
    return ClusterAssignment(labels=labels, cluster_count=cluster_id)


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
