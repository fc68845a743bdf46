"""Pseudo-label generation: k-reciprocal Jaccard distances + DBSCAN.

The distance between two samples is the Jaccard distance of their
expanded reciprocal-neighbor weight vectors, computed on the momentum
representations. DBSCAN then runs directly on that precomputed matrix;
samples that no cluster reaches are marked as outliers and excluded
from training for the epoch.

Neighbor lists, reciprocal and expanded sets and the weight vectors are
sparse, with O(n) entries for fixed k1 and k2. The rest runs on blocks
of rows, each O(n) in size: the cosine distances, computed twice, and
the Jaccard distances, computed for the upper triangle and mirrored.
Re-ranking and DBSCAN thus take O(n^2) time, and the returned dense
n x n Jaccard matrix, which `dbscan`, `selfreid sweep-eps --dump` and
the tests read, is their only n x n float array. DBSCAN adds an n x n
bool mask of the entries within eps and checks symmetry tile by tile.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csc_array, csr_array
from scipy.sparse.csgraph import connected_components

from .errors import SelfReidError

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


# Rows of one distance block, and the most rows of one min-sum block. A
# distance block holds _BLOCK_ROWS x n floats.
_BLOCK_ROWS = 64
# A min-sum block also ends once its rows add up to _BLOCK_PAIRS * n
# (row, partner, column) triples, so that its temporaries grow with n
# like a distance block's.
_BLOCK_PAIRS = 64
# Side of the square tiles that dbscan's symmetry check compares.
_SYMMETRY_TILE = 256


def _nearest_neighbors(dist: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest columns in (distance, index) order, as (rows, k).

    Equal to `np.argsort(dist, axis=1, kind="stable")[:, :k]` without the
    full sort: every entry at or below the row's k-th smallest value is a
    candidate (so ties at the boundary are all kept), and the candidates
    are sorted by (row, distance, column).
    """
    m = dist.shape[0]
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(dist <= kth[:, None])
    by_row = np.lexsort((cols, dist[rows, cols], rows))
    rows, cols = rows[by_row], cols[by_row]
    starts = np.searchsorted(rows, np.arange(m))
    rank = np.arange(len(rows)) - starts[rows]
    return cols[rank < k].reshape(m, k)


def _indicator(columns: np.ndarray) -> csr_array:
    """n x n 0/1 matrix with ones at (p, columns[p, i]), stored in that order."""
    n, k = columns.shape
    indptr = np.arange(0, columns.size + 1, k)
    return csr_array((np.ones(columns.size), columns.ravel(), indptr), shape=(n, n))


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) ranges of _BLOCK_ROWS rows that cover 0..n-1.

    A last block of one row joins the one before it: a one-row product
    goes through gemv, whose sums can differ from gemm's in the last bit.
    """
    stops = list(range(_BLOCK_ROWS, n, _BLOCK_ROWS)) + [n]
    if len(stops) > 1 and stops[-1] - stops[-2] == 1:
        del stops[-2]
    return list(zip([0] + stops[:-1], stops))


def _distances(features: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of the original distance 1 - cosine, self-distance zero.

    A block of two rows or more is bit-equal to the same rows of the full
    product `features @ features.T`.
    """
    block = features[start:stop] @ features.T
    np.subtract(1.0, block, out=block)
    block[np.arange(stop - start), np.arange(start, stop)] = 0.0
    return block


def _weight_vectors(features: np.ndarray, k1: int, k2: int) -> csc_array:
    """Steps 1-5 of `jaccard_distance_matrix`: row p of the result is
    sample p's weight vector, stored by column with each column's rows
    ascending."""
    n = features.shape[0]
    blocks = _row_blocks(n)
    # Neighbor lists include the point itself: its self-distance is zero,
    # so only exact duplicates with a lower index rank before it. The
    # k1 // 2 and k2 lists are prefixes of the k1 list.
    order = np.concatenate([_nearest_neighbors(_distances(features, start, stop), k1)
                            for start, stop in blocks])

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

    values = np.empty(expanded.nnz)
    for start, stop in blocks:
        span = slice(expanded.indptr[start], expanded.indptr[stop])
        rows = np.repeat(np.arange(stop - start), np.diff(expanded.indptr[start:stop + 1]))
        values[span] = np.exp(-_distances(features, start, stop)[rows, expanded.indices[span]])
    weights = csr_array((values, expanded.indices, expanded.indptr), shape=(n, n))

    # Local query expansion: average each weight vector over the sample's
    # k2 nearest neighbors (self included), summed in neighbor order.
    weights = (_indicator(order[:, :k2]) @ weights).tocsc()
    weights.sort_indices()
    weights.data /= k2
    return weights


def _pair_blocks(weights: csc_array) -> tuple[np.ndarray, list]:
    """Row blocks of the min-sum pass and each block's weight entries.

    Entry e = (p, c) meets the members q >= p of column c, which run from
    e to the column's end: `suffix[e]` of them, p included. A block has at
    most _BLOCK_ROWS rows and starts anew when its rows' suffixes pass a
    multiple of _BLOCK_PAIRS * n. Returns (suffix, blocks), each block a
    (start, stop, entries) triple: its rows and, in column order, the
    positions of their weight entries.
    """
    n = weights.shape[0]
    column = np.repeat(np.arange(n), np.diff(weights.indptr))
    suffix = weights.indptr[column + 1] - np.arange(weights.nnz)
    row_pairs = np.bincount(weights.indices, suffix, minlength=n)
    window = (np.cumsum(row_pairs) - row_pairs) // (_BLOCK_PAIRS * n)
    starts = np.flatnonzero((np.arange(n) % _BLOCK_ROWS == 0)
                            | (np.diff(window, prepend=-1) != 0))
    block = np.repeat(np.arange(len(starts)), np.diff(starts, append=n))[weights.indices]
    entries = np.argsort(block, kind="stable")
    bounds = np.cumsum(np.bincount(block, minlength=len(starts)))
    return suffix, list(zip(starts, np.append(starts[1:], n),
                            np.split(entries, bounds[:-1])))


def _block_min_sum(weights: csc_array, suffix: np.ndarray, entries: np.ndarray,
                   start: int, stop: int) -> np.ndarray:
    """sum_c min(v_pc, v_qc) for rows p in start:stop and columns q >= p.

    `entries` are the block's weight entries in column order, and one
    `np.bincount` adds every cell's minima in that order. Cells with
    q < p stay zero.
    """
    n = weights.shape[0]
    counts = suffix[entries]
    partners = np.repeat(entries - (np.cumsum(counts) - counts), counts)
    partners += np.arange(len(partners))
    cells = np.repeat((weights.indices[entries].astype(np.int64) - start) * n, counts)
    cells += weights.indices[partners]
    minima = np.repeat(weights.data[entries], counts)
    np.minimum(minima, weights.data[partners], out=minima)
    del partners
    return np.bincount(cells, minima, minlength=(stop - start) * n).reshape(stop - start, n)


def jaccard_distance_matrix(features: np.ndarray, k1: int, k2: int) -> np.ndarray:
    """k-reciprocal Jaccard distance matrix over unit-norm feature rows.

    Steps: (1) original distance = 1 - cosine; (2) reciprocal sets at k1,
    R = N * N^T for the k1-nearest-neighbor indicator N; (3) expansion by
    the half-size reciprocal sets H of candidates whose set overlaps the
    anchor's by at least two thirds; (4) weight vectors exp(-distance) on
    the expanded set; (5) local query expansion, averaging the weight
    vectors of each sample's k2 nearest neighbors; (6) pairwise Jaccard
    distance 1 - sum(min) / sum(max) of the weight vectors.

    The returned matrix is the only n x n array. Step 1 runs on blocks of
    rows, twice: once for the neighbor lists, once to read the distances
    on the expanded sets. Steps 2-5 use sparse matrices with O(n * k1)
    entries. Step 6 fills the upper triangle one block of rows at a time,
    adding min(v_p, v_q) for each column that rows p <= q share, in
    ascending column order; pairs with no common support stay at
    distance 1. Each block then copies its lower triangle from the rows
    above it, so the result is exactly symmetric.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n < 2:
        raise SelfReidError(f"need at least 2 samples, got {n}")
    if k1 >= n or k2 >= n:
        raise SelfReidError(f"k1={k1}, k2={k2} must be < n={n}")

    weights = _weight_vectors(features, k1, k2)
    row_sums = np.bincount(weights.indices, weights.data, minlength=n)
    suffix, blocks = _pair_blocks(weights)

    jaccard = np.empty((n, n))
    for start, stop, entries in blocks:
        min_sum = _block_min_sum(weights, suffix, entries, start, stop)
        upper = jaccard[start:stop, start:]  # max_sum, then the distance
        np.add(row_sums[start:stop, None], row_sums[None, start:], out=upper)
        upper -= min_sum[:, start:]
        np.divide(min_sum[:, start:], upper, out=upper)
        np.subtract(1.0, upper, out=upper)
        np.clip(upper, 0.0, 1.0, out=upper)
        # The lower part, in square tiles that read the transpose cache-wise.
        for left in range(0, start, _BLOCK_ROWS):
            right = min(left + _BLOCK_ROWS, start)
            jaccard[start:stop, left:right] = jaccard[left:right, start:stop].T
        square = jaccard[start:stop, start:stop]
        lower = np.tril_indices(stop - start, -1)
        square[lower] = square.T[lower]
        np.fill_diagonal(square, 0.0)
    return jaccard


def _symmetric(dist: np.ndarray) -> bool:
    """Whether dist equals its transpose, exactly or to allclose(atol=1e-12).

    Compares square tiles with their mirror tiles, so no transposed copy
    of the whole matrix is read. An exactly symmetric matrix, such as
    jaccard_distance_matrix returns, skips the slower tolerance check.
    """
    starts = range(0, dist.shape[0], _SYMMETRY_TILE)
    tiles = [(slice(a, a + _SYMMETRY_TILE), slice(b, b + _SYMMETRY_TILE))
             for a in starts for b in starts]
    if all(np.array_equal(dist[rows, cols], dist[cols, rows].T)
           for rows, cols in tiles if rows.start <= cols.start):
        return True
    return all(np.allclose(dist[rows, cols], dist[cols, rows].T, atol=1e-12)
               for rows, cols in tiles)


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
        raise SelfReidError(f"expected square matrix, got {dist.shape}")
    if not _symmetric(dist) or np.any(np.abs(np.diag(dist)) > 1e-12):
        raise SelfReidError("matrix must be symmetric with zero diagonal")

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
