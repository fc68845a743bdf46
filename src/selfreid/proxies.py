"""Cluster and per-camera proxy centroids.

Proxies are the normalized means of the momentum representations of a
cluster's members. They are rebuilt once per epoch and treated as
constants within it. The camera-aware variant additionally keeps one
proxy per (cluster, camera) pair, enabling cross-camera attraction.
ProxyMemory holds plain arrays, one row per proxy; the losses index
them directly, whole batches at a time.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NoClustersFound, SelfReidError
from .linalg import l2_normalize
from .rerank import OUTLIER, ClusterAssignment

AGNOSTIC = "agnostic"
AWARE = "aware"


@dataclass
class ProxyMemory:
    """Per-epoch proxy tables; camera tables exist only in aware mode."""

    mode: str
    cluster_vectors: np.ndarray  # (clusters, d), unit rows
    cluster_counts: np.ndarray   # (clusters,)
    epoch: int
    camera_cluster_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    camera_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    camera_vectors: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    camera_counts: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))


def build_proxies(bank: np.ndarray, assignment: ClusterAssignment,
                  cameras: np.ndarray, mode: str, epoch: int = 0) -> ProxyMemory:
    """Average the momentum bank per cluster (and per camera in aware mode).

    Outliers are excluded. Every mean is re-normalized onto the unit
    sphere so that proxy similarities stay plain dot products.
    """
    if mode not in (AGNOSTIC, AWARE):
        raise SelfReidError(f"unknown memory mode {mode!r}")
    bank = np.asarray(bank, dtype=np.float64)
    cameras = np.asarray(cameras, dtype=np.int64)
    labels = assignment.labels
    if assignment.cluster_count == 0:
        raise NoClustersFound("clustering produced no inlier clusters")

    k = assignment.cluster_count
    d = bank.shape[1]
    cluster_vectors = np.zeros((k, d))
    cluster_counts = np.zeros(k, dtype=np.int64)
    for a in range(k):
        members = labels == a
        cluster_counts[a] = members.sum()
        cluster_vectors[a] = l2_normalize(bank[members].mean(axis=0))

    memory = ProxyMemory(mode=mode, cluster_vectors=cluster_vectors,
                         cluster_counts=cluster_counts, epoch=epoch)
    if mode == AGNOSTIC:
        return memory

    cam_cluster, cam_id, cam_vec, cam_count = [], [], [], []
    for a in range(k):
        member_idx = np.flatnonzero(labels == a)
        for b in np.unique(cameras[member_idx]):
            cell = member_idx[cameras[member_idx] == b]
            cam_cluster.append(a)
            cam_id.append(int(b))
            cam_vec.append(l2_normalize(bank[cell].mean(axis=0)))
            cam_count.append(len(cell))
    memory.camera_cluster_ids = np.array(cam_cluster, dtype=np.int64)
    memory.camera_ids = np.array(cam_id, dtype=np.int64)
    memory.camera_vectors = np.array(cam_vec)
    memory.camera_counts = np.array(cam_count, dtype=np.int64)
    return memory
