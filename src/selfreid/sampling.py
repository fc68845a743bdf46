"""Identity-balanced mini-batches and the feature-space augmentation.

Batches hold n_identities pseudo identities with n_instances samples
each. The augmentation perturbs feature vectors directly: isotropic
noise, coordinate dropout (the stand-in for erasing) and an occasional
re-drawn camera-style offset. Dropout zeroes round(dropout * d)
coordinates of every row: those whose keys in one uniform (n, d) draw
are the row's smallest, so each row loses a uniformly random subset.
The encoder re-normalizes afterwards, so perturbed rows are
intentionally left unnormalized.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientClusters, SelfReidError
from .rerank import ClusterAssignment


@dataclass
class BatchSpec:
    """Identities per batch and instances per identity.

    Both must be at least 2: hardest-positive mining needs a second
    positive, and the instance loss needs at least one negative identity.
    """

    n_identities: int = field(default=8, metadata={"help": "pseudo identities per batch"})
    n_instances: int = field(default=4, metadata={"help": "instances per identity"})

    def validate(self) -> None:
        if self.n_identities < 2 or self.n_instances < 2:
            raise SelfReidError(
                f"need n_identities >= 2 and n_instances >= 2, got "
                f"({self.n_identities}, {self.n_instances})")


@dataclass
class IdentityBatch:
    indices: np.ndarray  # (n_identities * n_instances,) dataset indices
    labels: np.ndarray   # pseudo label per entry
    cameras: np.ndarray  # camera id per entry


@dataclass
class PerturbationConfig:
    noise_sigma: float = field(default=0.1, metadata={"help": "augmentation noise scale"})
    dropout: float = field(default=0.15, metadata={"help": "augmentation dropout fraction"})
    restyle_prob: float = field(
        default=0.5, metadata={"help": "augmentation camera-restyle probability"})
    restyle_scale: float = field(
        default=1.0, metadata={"help": "augmentation camera-restyle offset scale"})

    def validate(self) -> None:
        if not (self.noise_sigma >= 0):
            raise SelfReidError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not (0.0 <= self.dropout < 1.0):
            raise SelfReidError(f"dropout must be in [0, 1), got {self.dropout}")
        if not (0.0 <= self.restyle_prob <= 1.0):
            raise SelfReidError(f"restyle_prob must be in [0, 1], got {self.restyle_prob}")
        if not (self.restyle_scale >= 0):
            raise SelfReidError(f"restyle_scale must be >= 0, got {self.restyle_scale}")


def sample_pk_batch(assignment: ClusterAssignment, cameras: np.ndarray,
                    spec: BatchSpec, rng_seed) -> IdentityBatch:
    """Draw an identity-balanced batch of inlier indices.

    Identities are drawn without replacement. Within an identity,
    members are drawn without replacement when the cluster is large
    enough, with replacement otherwise (clusters can shrink below
    n_instances after outlier exclusion).
    """
    spec.validate()
    cameras = np.asarray(cameras, dtype=np.int64)
    if assignment.cluster_count < spec.n_identities:
        raise InsufficientClusters(
            f"{assignment.cluster_count} clusters < {spec.n_identities} identities/batch")
    rng = np.random.default_rng(rng_seed)
    chosen = rng.choice(assignment.cluster_count, size=spec.n_identities, replace=False)
    members = [assignment.members_of(int(label)) for label in chosen]
    indices = np.concatenate([
        rng.choice(m, size=spec.n_instances, replace=m.size < spec.n_instances)
        for m in members])
    return IdentityBatch(indices=indices, labels=np.repeat(chosen, spec.n_instances),
                         cameras=cameras[indices])


def estimate_camera_offsets(features: np.ndarray, cameras: np.ndarray) -> np.ndarray:
    """Per-camera mean feature minus the global mean (the style offsets)."""
    features = np.asarray(features, dtype=np.float64)
    cameras = np.asarray(cameras, dtype=np.int64)
    global_mean = features.mean(axis=0)
    n_cams = int(cameras.max()) + 1
    offsets = np.zeros((n_cams, features.shape[1]))
    for b in range(n_cams):
        offsets[b] = features[cameras == b].mean(axis=0) - global_mean
    return offsets


def perturb(features: np.ndarray, config: PerturbationConfig, rng_seed,
            cameras: np.ndarray | None = None,
            camera_offsets: np.ndarray | None = None) -> np.ndarray:
    """Strong feature-space augmentation; deterministic given the seed.

    The restyle step re-draws a row's camera-style offset: when camera
    ids and estimated offsets are given it moves the row to a random
    other camera's style (scaled by restyle_scale); without them it
    falls back to a random offset direction of norm restyle_scale.
    """
    config.validate()
    features = np.asarray(features, dtype=np.float64)
    out = features.copy()
    n, d = out.shape
    rng = np.random.default_rng(rng_seed)
    if config.noise_sigma > 0:
        out += rng.normal(0.0, config.noise_sigma, size=(n, d))
    n_drop = int(round(config.dropout * d))
    if n_drop > 0:
        # each row drops the columns of its n_drop smallest uniform keys
        keys = rng.random((n, d))
        dropped = np.argpartition(keys, n_drop - 1, axis=1)[:, :n_drop]
        np.put_along_axis(out, dropped, 0.0, axis=1)
    if config.restyle_prob > 0:
        restyle = rng.random(n) < config.restyle_prob
        if cameras is not None and camera_offsets is not None \
                and len(camera_offsets) > 1:
            n_cams = len(camera_offsets)
            # shift each selected row to a uniformly drawn other camera
            targets = rng.integers(0, n_cams - 1, size=n)
            rows = np.flatnonzero(restyle)
            own = np.asarray(cameras, dtype=np.int64)[rows]
            other = targets[rows] + (targets[rows] >= own)
            out[rows] += config.restyle_scale * (camera_offsets[other]
                                                 - camera_offsets[own])
        else:
            directions = rng.normal(size=(n, d))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            out[restyle] += config.restyle_scale * directions[restyle]
    return out
