"""Cluster and per-camera proxy centroids.

Proxies are the normalized means of the momentum representations of a
cluster's members. They are rebuilt once per epoch and treated as
constants within it. Besides one proxy per cluster, the memory always
keeps one proxy per (cluster, camera) cell, which the cross-camera loss
attracts across cameras; whether that loss runs is the trainer's choice.
ProxyMemory holds plain arrays, one row per proxy; the losses index
them directly, whole batches at a time.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SelfReidError
from .linalg import normalize_rows
from .rerank import ClusterAssignment


@dataclass
class ProxyMemory:
    """Per-epoch proxy tables.

    Cluster rows are indexed by cluster id. Camera rows hold one proxy per
    (cluster, camera) cell with members, ordered by cluster, then camera,
    ascending.
    """

    cluster_vectors: np.ndarray     # (clusters, d), unit rows
    camera_cluster_ids: np.ndarray  # (cells,)
    camera_ids: np.ndarray          # (cells,)
    camera_vectors: np.ndarray      # (cells, d), unit rows


def _normalized_means(rows: np.ndarray, starts: np.ndarray, name) -> np.ndarray:
    """Unit-norm mean of each run rows[starts[i]:starts[i + 1]] (the last
    run ends at the end of rows); every run must be non-empty. A run whose
    mean is the zero vector has no direction: the error names it name(i)."""
    counts = np.diff(starts, append=len(rows))
    means = np.add.reduceat(rows, starts, axis=0) / counts[:, None]
    zero = np.flatnonzero(~means.any(axis=1))
    if zero.size:
        raise SelfReidError(f"the momentum embeddings of {name(zero[0])} cancel: their mean is "
                            f"the zero vector, so it has no proxy (try a larger out_dim)")
    return normalize_rows(means)


def build_proxies(bank: np.ndarray, assignment: ClusterAssignment,
                  cameras: np.ndarray) -> ProxyMemory:
    """Average the momentum bank per cluster and per (cluster, camera) cell.

    Outliers are excluded. Members are summed in index order, and every
    mean is re-normalized onto the unit sphere so that proxy similarities
    stay plain dot products.
    """
    bank = np.asarray(bank, dtype=np.float64)
    cameras = np.asarray(cameras, dtype=np.int64)
    if assignment.cluster_count == 0:
        raise SelfReidError("clustering produced no inlier clusters")
    order, starts = assignment.member_index
    cluster_counts = np.diff(starts)
    if np.any(cluster_counts == 0):
        empty = np.flatnonzero(cluster_counts == 0).tolist()
        raise SelfReidError(f"cluster ids {empty} of 0..{assignment.cluster_count - 1} "
                            f"have no members")
    members = order[starts[0]:starts[-1]]
    cluster_vectors = _normalized_means(bank[members], starts[:-1] - starts[0],
                                        lambda i: f"cluster {i}")

    # Stable: members keep index order inside each (cluster, camera) cell.
    labels = np.asarray(assignment.labels, dtype=np.int64)
    cells = members[np.lexsort((cameras[members], labels[members]))]
    cell_labels, cell_cameras = labels[cells], cameras[cells]
    new_cell = (np.diff(cell_labels) != 0) | (np.diff(cell_cameras) != 0)
    cell_starts = np.concatenate(([0], np.flatnonzero(new_cell) + 1))
    cell_ids, cell_cams = cell_labels[cell_starts], cell_cameras[cell_starts]
    return ProxyMemory(
        cluster_vectors=cluster_vectors, camera_cluster_ids=cell_ids, camera_ids=cell_cams,
        camera_vectors=_normalized_means(
            bank[cells], cell_starts, lambda i: f"cluster {cell_ids[i]} under camera {cell_cams[i]}"))
