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

from .errors import NoClustersFound, SelfReidError
from .linalg import normalize_rows
from .rerank import ClusterAssignment


@dataclass
class ProxyMemory:
    """Per-epoch proxy tables.

    Cluster rows are indexed by cluster id. Camera rows hold one proxy per
    (cluster, camera) cell with members, ordered by cluster, then camera,
    ascending; the camera counts of a cluster add up to its cluster count.
    """

    cluster_vectors: np.ndarray     # (clusters, d), unit rows
    cluster_counts: np.ndarray      # (clusters,)
    camera_cluster_ids: np.ndarray  # (cells,)
    camera_ids: np.ndarray          # (cells,)
    camera_vectors: np.ndarray      # (cells, d), unit rows
    camera_counts: np.ndarray       # (cells,)


def _normalized_means(rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Unit-norm mean of each run rows[starts[i]:starts[i + 1]] (the last
    run ends at the end of rows); every run must be non-empty."""
    counts = np.diff(starts, append=len(rows))
    return normalize_rows(np.add.reduceat(rows, starts, axis=0) / counts[:, None])


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
        raise NoClustersFound("clustering produced no inlier clusters")
    order, starts = assignment.member_index
    cluster_counts = np.diff(starts)
    if np.any(cluster_counts == 0):
        empty = np.flatnonzero(cluster_counts == 0).tolist()
        raise SelfReidError(f"cluster ids {empty} of 0..{assignment.cluster_count - 1} "
                            f"have no members")
    members = order[starts[0]:starts[-1]]
    cluster_vectors = _normalized_means(bank[members], starts[:-1] - starts[0])

    # Stable: members keep index order inside each (cluster, camera) cell.
    labels = np.asarray(assignment.labels, dtype=np.int64)
    cells = members[np.lexsort((cameras[members], labels[members]))]
    cell_labels, cell_cameras = labels[cells], cameras[cells]
    new_cell = (np.diff(cell_labels) != 0) | (np.diff(cell_cameras) != 0)
    cell_starts = np.concatenate(([0], np.flatnonzero(new_cell) + 1))
    return ProxyMemory(
        cluster_vectors=cluster_vectors,
        cluster_counts=cluster_counts,
        camera_cluster_ids=cell_labels[cell_starts],
        camera_ids=cell_cameras[cell_starts],
        camera_vectors=_normalized_means(bank[cells], cell_starts),
        camera_counts=np.diff(cell_starts, append=len(cells)))
