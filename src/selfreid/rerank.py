"""Pseudo-label generation: k-reciprocal Jaccard distances + DBSCAN.

The distance between two samples is the Jaccard distance of their
expanded reciprocal-neighbor weight vectors, computed on the momentum
representations. The distance is symmetric and zero on the diagonal, so
re-ranking returns only the pairs p < q within a threshold, each once,
as a sparse upper triangle (`JaccardPairs`), and DBSCAN runs on those
pairs; samples that no cluster reaches are marked as outliers and
excluded from training for the epoch.

Everything here runs on numpy alone, in O(n^2) time, and no n x n array
is ever allocated. Neighbor lists, reciprocal and expanded sets and
weight vectors are flat arrays with O(n) entries for fixed k1 and k2:
int32 indices, with per-row counts in place of row indices. Each stage
of the weight pass frees its arrays before the next one allocates; its
traced peak is 30-60 bytes per weight entry at n = 640 to 5,120, against
the entry's own 12. Everything else runs on blocks of rows, each O(n) in
size: the cosine distances, computed twice, the bool marks of each row's
sets and the Jaccard distances of the upper triangle, of which a block
keeps those within the threshold. The pairs take 12 bytes each, and
DBSCAN's own arrays are O(1) per pair.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import SelfReidError
from .linalg import require_finite
from .settings import Settings, require_type, setting

OUTLIER = -1


@dataclass
class ClusterConfig(Settings):
    """Neighborhood sizes for re-ranking and DBSCAN thresholds."""

    k1: int = setting(30, "reciprocal neighborhood size", "[1, inf)")
    k2: int = setting(6, "local query expansion size", "[1, k1]")
    eps: float = setting(0.55, "DBSCAN distance threshold", "(0, 1)")
    min_samples: int = setting(4, "DBSCAN minimum cluster size", "[1, inf)")

    def neighborhoods(self, n: int) -> tuple[int, int]:
        """(k1, k2) clamped to n - 1, the most neighbors a bank of n rows has."""
        return min(self.k1, n - 1), min(self.k2, n - 1)


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


class JaccardPairs(NamedTuple):
    """The distances at or below max_distance of a symmetric n x n matrix
    with a zero diagonal, stored once per pair p < q in CSR form: row p
    holds the columns q > p in indices[indptr[p]:indptr[p + 1]], ascending,
    with distances data[...]. Neither the lower triangle nor the diagonal
    is stored.

    indptr holds n + 1 int64 offsets, indices int32 columns and data
    float64 distances, so a pair takes 12 bytes.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    max_distance: float

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The dense view: the n x n matrix, both triangles and the zero
        diagonal, with every entry above max_distance read as 1.0. It
        costs O(n^2); tests and benchmark counters read it, and no package
        code does."""
        n = len(self.indptr) - 1
        dense = np.ones((n, n), dtype=dtype)
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        dense[rows, self.indices] = self.data
        dense[self.indices, rows] = self.data
        np.fill_diagonal(dense, 0.0)
        return dense


# Rows of one distance block, and the most rows of one min-sum block. A
# distance block holds _BLOCK_ROWS x n floats. BLAS picks a block's kernel
# for its edge columns (OpenBLAS 0.3.31, Haswell: the last n % 8) by its
# height, so _BLOCK_ROWS fixes the last bits unless 8 divides n.
_BLOCK_ROWS = 64
# A min-sum block also ends once its rows add up to _BLOCK_PAIRS * n
# (row, partner, column) triples, so that its temporaries grow with n
# like a distance block's. At n = 640, 24 brings the blocks' traced
# scratch (1.7 MiB) down to that of _pair_blocks, which no block size
# lowers, and near the weight pass's (1.55 MiB).
_BLOCK_PAIRS = 24


def _nearest_neighbors(dist: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest columns in (distance, index) order, as (rows, k).

    Equal to `np.argsort(dist, axis=1, kind="stable")[:, :k]` without the
    full sort: every entry at or below the row's k-th smallest value is a
    candidate (so ties at the boundary are all kept), and one stable sort
    orders each row's candidates in a table padded with +inf.
    """
    m = len(dist)
    kth = np.empty(m)  # partition copies its input, so it takes eight rows at a time
    for a in range(0, m, 8):
        kth[a:a + 8] = np.partition(dist[a:a + 8], k - 1, axis=1)[:, k - 1]
    cells, counts, cols = _row_cells(dist <= kth[:, None])
    rows = np.repeat(np.arange(m), counts)
    slots = np.arange(len(cells)) - np.repeat(np.cumsum(counts) - counts, counts)
    table = np.full((m, counts.max()), np.inf)
    table[rows, slots] = dist.ravel()[cells]
    # A row's candidates fill its slots in column order, and the sort is
    # stable, so it keeps that order among equal distances.
    first = np.argsort(table, axis=1, kind="stable")[:, :k]
    columns = np.zeros(table.shape, dtype=np.int32)
    columns[rows, slots] = cols
    return np.take_along_axis(columns, first, axis=1)


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
    """Rows start:stop of the original distance 1 - cosine, self-distance
    zero, with the last bits of a block of these rows (see _BLOCK_ROWS)."""
    block = features[start:stop] @ features.T
    np.subtract(1.0, block, out=block)
    block[np.arange(stop - start), np.arange(start, stop)] = 0.0
    return block


class _Weights(NamedTuple):
    """Weight vectors stored by column: column c holds the rows
    indices[indptr[c]:indptr[c + 1]], ascending, with values data[...].

    Each entry takes 12 bytes: an int32 row and a float64 value. The
    n + 1 pointers are int64.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _reciprocal_ranks(order: np.ndarray) -> np.ndarray:
    """rank[p, i]: the position of p in the list of its neighbor
    j = order[p, i], or k if p is not in it. So j is in p's reciprocal
    set of size s <= k when i < s and rank[p, i] < s."""
    n, k = order.shape
    flat = order.ravel()
    # The entries grouped by neighbor j; each block of neighbors looks its
    # entries up in a table of the neighbors' lists, one row per neighbor.
    by_neighbor = np.argsort(flat.astype(np.min_scalar_type(n)), kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=n))))
    table = np.full((_BLOCK_ROWS + 1) * n, k, dtype=np.min_scalar_type(k))
    rank = np.empty(n * k, dtype=table.dtype)
    for start, stop in _row_blocks(n):
        lists = (np.arange(stop - start) * n)[:, None] + order[start:stop]
        table[lists] = np.arange(k)
        entries = by_neighbor[bounds[start]:bounds[stop]]
        rank[entries] = table[(flat[entries] - start) * n + entries // k]
        table[lists] = k
    return rank.reshape(n, k)


def _row_cells(marks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The set cells of a block's 2-D bool marks: their flat positions in
    ascending order, each row's count and their columns."""
    cells = np.flatnonzero(marks)
    rows, cols = np.divmod(cells, marks.shape[1])
    return cells, np.bincount(rows, minlength=len(marks)), cols.astype(np.int32)


def _weight_vectors(features: np.ndarray, k1: int, k2: int) -> _Weights:
    """Steps 1-5 of `jaccard_distance_matrix`: column c of the result holds
    the samples whose weight vector has an entry at c."""
    n = features.shape[0]
    blocks = _row_blocks(n)
    # Neighbor lists include the point itself: its self-distance is zero,
    # so only exact duplicates with a lower index rank before it. The
    # k1 // 2 and k2 lists are prefixes of the k1 list.
    order = np.concatenate([_nearest_neighbors(_distances(features, start, stop), k1)
                            for start, stop in blocks], dtype=np.int32)
    rank = _reciprocal_ranks(order)
    # Half-size sets as fixed-width rows: the first `half` neighbors and
    # which of them are reciprocal at that size.
    half = max(k1 // 2, 1)
    in_half = rank[:, :half] < half
    half_sizes = np.count_nonzero(in_half, axis=1)
    in_full = rank < k1
    del rank
    full_ptr = np.concatenate(([0], np.cumsum(np.count_nonzero(in_full, axis=1))))
    full_cols = order[in_full]
    del in_full

    # Expanded sets: adopt a candidate's half-size reciprocal set when it
    # overlaps the anchor's full set by >= 2/3. Each block of anchors
    # marks its sets in a bool row per anchor, read in ascending column
    # order; the weights exp(-distance) follow on the same block. A block
    # runs in a function, so its temporaries are gone when it returns.
    def expand(start, stop):
        marks = np.zeros((stop - start) * n, dtype=bool)
        anchor = np.repeat(np.arange(stop - start) * n, np.diff(full_ptr[start:stop + 1]))
        candidates = full_cols[full_ptr[start]:full_ptr[stop]]
        marks[anchor + candidates] = True
        member_cells = anchor[:, None] + order[candidates, :half]
        members = in_half[candidates]
        overlap = np.count_nonzero(marks[member_cells] & members, axis=1)
        members &= (3 * overlap >= 2 * half_sizes[candidates])[:, None]
        marks[member_cells[members]] = True
        cells, sizes, cols = _row_cells(marks.reshape(stop - start, n))
        return sizes, cols, np.exp(-_distances(features, start, stop).ravel()[cells])

    sizes, cols, values = map(np.concatenate,
                              zip(*[expand(start, stop) for start, stop in blocks]))
    del full_cols, in_half
    ends = np.cumsum(sizes)

    # Local query expansion: average each weight vector over the sample's
    # k2 nearest neighbors (self included), summed in neighbor order. A
    # block's bool marks give its cells in order, a slot table numbers
    # them, and one bincount adds each cell's terms, neighbor by neighbor.
    slots = np.empty((_BLOCK_ROWS + 1) * n, dtype=np.int32)

    def average(start, stop):
        source = order[start:stop, :k2].T.ravel()
        # The entries of the source rows, concatenated.
        counts = sizes[source]
        offsets = np.cumsum(counts)
        entries = np.repeat(ends[source] - offsets, counts) + np.arange(offsets[-1])
        terms = np.repeat(np.tile(np.arange(stop - start) * n, k2), counts) + cols[entries]
        marks = np.zeros((stop - start) * n, dtype=bool)
        marks[terms] = True
        cells, out_sizes, out_cols = _row_cells(marks.reshape(stop - start, n))
        slots[cells] = np.arange(len(cells))
        return out_sizes, out_cols, np.bincount(slots[terms], values[entries],
                                                minlength=len(cells))

    averaged = [average(start, stop) for start, stop in blocks]
    del order, sizes, ends, cols, values, slots
    sizes, cols, values = map(np.concatenate, zip(*averaged))
    del averaged

    by_column = np.argsort(cols.astype(np.min_scalar_type(n)), kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    del cols
    data = values[by_column]
    del values
    data /= k2
    rows = np.repeat(np.arange(n, dtype=np.int32), sizes)
    return _Weights(indptr, rows[by_column], data)


def _pair_blocks(weights: _Weights) -> tuple[np.ndarray, list]:
    """Row blocks of the min-sum pass and each block's weight entries.

    Entry e = (p, c) meets the members q > p of column c, which run from
    e + 1 to the column's end: `suffix[e]` of them. A block has at
    most _BLOCK_ROWS rows and starts anew when its rows' suffixes pass a
    multiple of _BLOCK_PAIRS * n. Returns (suffix, blocks), each block a
    (start, stop, entries) triple: its rows and, in column order, the
    positions of their weight entries. `suffix` and positions are int32.
    """
    n = len(weights.indptr) - 1
    suffix = np.repeat(weights.indptr[1:].astype(np.int32), np.diff(weights.indptr))
    suffix -= np.arange(1, len(suffix) + 1, dtype=np.int32)
    row_pairs = np.bincount(weights.indices, suffix, minlength=n)
    window = (np.cumsum(row_pairs) - row_pairs) // (_BLOCK_PAIRS * n)
    starts = np.flatnonzero((np.arange(n) % _BLOCK_ROWS == 0)
                            | (np.diff(window, prepend=-1) != 0))
    # Small unsigned block ids, which numpy's stable argsort radix-sorts.
    ids = np.arange(len(starts), dtype=np.min_scalar_type(len(starts)))
    block = np.repeat(ids, np.diff(starts, append=n))[weights.indices]
    entries = np.argsort(block, kind="stable").astype(np.int32)
    bounds = np.cumsum(np.bincount(block, minlength=len(starts)))
    return suffix, list(zip(starts, np.append(starts[1:], n),
                            np.split(entries, bounds[:-1])))


def _pair_distances(weights: _Weights, max_distance: float):
    """Step 6 of `jaccard_distance_matrix` on the blocks of `_pair_blocks`:
    each block's rows' pair counts, int32 columns and distances. A block
    deletes its temporaries before the next one starts."""
    n = len(weights.indptr) - 1
    row_sums = np.bincount(weights.indices, weights.data, minlength=n)
    suffix, blocks = _pair_blocks(weights)
    for start, stop, entries in blocks:
        width = n - start  # column j of the block is q = start + j
        counts = suffix[entries]
        partners = np.repeat(entries + 1 - (np.cumsum(counts) - counts), counts)
        partners += np.arange(len(partners))
        cells = np.repeat((weights.indices[entries].astype(np.int64) - start) * width - start,
                          counts)
        cells += weights.indices[partners]
        minima = np.repeat(weights.data[entries], counts)
        np.minimum(minima, weights.data[partners], out=minima)
        del partners
        min_sum = np.bincount(cells, minima, minlength=(stop - start) * width).reshape(-1, width)
        del counts, cells, minima
        dist = np.add(row_sums[start:stop, None], row_sums[start:])  # max_sum, then the distance
        dist -= min_sum
        np.divide(min_sum, dist, out=dist)
        del min_sum
        np.subtract(1.0, dist, out=dist)
        np.maximum(dist, 0.0, out=dist)  # <= 1 already, as min_sum >= 0
        # Cells with q <= p have no min-sum and read 1.0, above max_distance (< 1).
        cells, counts, cols = _row_cells(dist <= max_distance)
        cols += start
        values = dist.ravel()[cells]
        del dist, cells
        yield counts, cols, values


def jaccard_distance_matrix(features: np.ndarray, k1: int, k2: int,
                            max_distance: float) -> JaccardPairs:
    """k-reciprocal Jaccard distances over unit-norm feature rows, as the
    JaccardPairs p < q of every distance at or below max_distance.

    Steps: (1) original distance = 1 - cosine; (2) reciprocal sets at k1,
    R = N * N^T for the k1-nearest-neighbor indicator N; (3) expansion by
    the half-size reciprocal sets H of candidates whose set overlaps the
    anchor's by at least two thirds; (4) weight vectors exp(-distance) on
    the expanded set; (5) local query expansion, averaging the weight
    vectors of each sample's k2 nearest neighbors; (6) pairwise Jaccard
    distance 1 - sum(min) / sum(max) of the weight vectors.

    Step 1 runs on blocks of rows, twice: once for the neighbor lists,
    once to read the distances on the expanded sets. Steps 2-5 keep index
    arrays with O(n * k1) entries and mark each block's sets in one bool
    row per sample. Step 6 finishes the upper triangle one block of rows
    at a time, adding min(v_p, v_q) for each column that rows p < q
    share, in ascending column order; pairs with no common support are
    at distance 1. Each block keeps only its distances at or below
    max_distance. The lower triangle and the zero diagonal are implicit.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or (n := len(features)) < 2:
        raise SelfReidError(f"need a 2-D matrix of at least 2 samples, got shape {features.shape}")
    require_finite(features, "re-ranking features: row ")
    require_type("k1", k1, int)
    require_type("k2", k2, int)
    if not 1 <= k2 <= k1 < n:
        raise SelfReidError(f"k1={k1}, k2={k2} must be < n={n} with 1 <= k2 <= k1")
    if not 0.0 <= max_distance < 1.0:
        raise SelfReidError(f"need 0 <= max_distance < 1, got {max_distance}")

    weights = _weight_vectors(features, k1, k2)
    above, cols, values = map(np.concatenate, zip(*_pair_distances(weights, max_distance)))
    return JaccardPairs(np.concatenate(([0], np.cumsum(above))), cols, values, max_distance)


def _lowest_linked(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """For each of n points, the lowest index connected to it by a path of
    undirected links (rows[e], cols[e]).

    Every point starts as the root of its own tree. Each round hooks
    every root onto the lowest root that a link of its tree reaches, then
    points every node straight at its root. A round that hooks nothing
    leaves one root per component, and that root is the component's
    lowest index because a root only ever moves to a lower one.
    """
    root = np.arange(n, dtype=np.int32)
    while True:
        ends = root[rows], root[cols]
        hooked = root.copy()
        np.minimum.at(hooked, np.maximum(*ends), np.minimum(*ends))
        while not np.array_equal(jumped := hooked[hooked], hooked):
            hooked = jumped
        if np.array_equal(hooked, root):
            return root
        root = hooked


def dbscan(pairs: JaccardPairs, config: ClusterConfig) -> ClusterAssignment:
    """DBSCAN over the pairs p < q of a precomputed distance matrix with
    a zero diagonal.

    Reads only the pairs within config.eps, which must not exceed
    pairs.max_distance; a pair links p and q both ways, and each point is
    within eps of itself. Core points have at least min_samples points
    (themselves included) within eps. Clusters are the connected
    components of the core points joined by within-eps links, numbered by
    their lowest core index. Each border point takes the lowest cluster
    id among the core points within eps of it, so the output does not
    depend on a visiting order. The caller passes pairs that
    `jaccard_distance_matrix` built, so only eps is checked: one above
    max_distance would drop links silently.
    """
    if not config.eps <= pairs.max_distance:
        raise SelfReidError(f"eps={config.eps} is above the pairs' "
                            f"max_distance={pairs.max_distance}")
    n = len(pairs.indptr) - 1
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(pairs.indptr))
    cols = pairs.indices
    if config.eps < pairs.max_distance:  # sweep-eps reads pairs built at its largest eps
        within = pairs.data <= config.eps
        rows, cols = rows[within], cols[within]
    counts = 1 + np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
    core = counts >= config.min_samples
    links = core[rows] & core[cols]
    root = _lowest_linked(n, rows[links], cols[links])
    # Clusters are numbered by their lowest core index, their root.
    roots = np.flatnonzero(core & (root == np.arange(n)))
    cluster_count = len(roots)
    labels = np.full(n, OUTLIER, dtype=np.int64)
    labels[core] = np.searchsorted(roots, root[core])

    # A border point at either end of a pair takes the core point's label
    # at the other end, the lowest of them if there are several.
    mixed = core[rows] ^ core[cols]
    rows, cols = rows[mixed], cols[mixed]
    row_core = core[rows]
    border = np.where(row_core, cols, rows)
    lowest = np.full(n, cluster_count)
    np.minimum.at(lowest, border, labels[np.where(row_core, rows, cols)])
    labels[border] = lowest[border]
    return ClusterAssignment(labels=labels, cluster_count=cluster_count)


def generate_pseudo_labels(momentum_bank: np.ndarray,
                           config: ClusterConfig) -> ClusterAssignment:
    """Re-rank the momentum bank and cluster it into pseudo identities.

    Neighborhood sizes are clamped to n - 1 (ClusterConfig.neighborhoods) so
    that small banks degrade gracefully (they end up all-outliers). The
    caller passes a 2-D float64 bank of unit rows.
    """
    n = len(momentum_bank)
    if n < 2 or n < config.min_samples:
        return ClusterAssignment(labels=np.full(n, OUTLIER, dtype=np.int64),
                                 cluster_count=0)
    pairs = jaccard_distance_matrix(momentum_bank, *config.neighborhoods(n), config.eps)
    return dbscan(pairs, config)
