"""Identity-balanced mini-batches and the feature-space augmentation.

Both work on a chunk of steps, each step drawing from its own seed.
`sample_pk_batch` draws every step's batch of n_identities pseudo
identities with n_instances samples each, as a (steps, rows) array of
dataset indices. `perturb` augments the steps' gathered rows, a
(steps, rows, d) array, in place: isotropic noise, coordinate dropout
(the stand-in for erasing) and an occasional re-drawn camera-style
offset. Dropout zeroes round(dropout * d) coordinates of every row: those
whose keys in its step's uniform (rows, d) draw are the row's smallest,
so each row loses a uniformly random subset. A chunk's steps come out
bit for bit as one call per step would give them. The encoder
re-normalizes afterwards, so perturbed rows are intentionally left
unnormalized.
"""

from dataclasses import dataclass

import numpy as np

from .rerank import ClusterAssignment
from .settings import Settings, setting


@dataclass
class BatchSpec(Settings):
    """Identities per batch and instances per identity.

    Both must be at least 2: hardest-positive mining needs a second
    positive, and the instance loss needs at least one negative identity.
    """

    n_identities: int = setting(8, "pseudo identities per batch", "[2, inf)")
    n_instances: int = setting(4, "instances per identity", "[2, inf)")


@dataclass
class PerturbationConfig(Settings):
    noise_sigma: float = setting(0.1, "augmentation noise scale", "[0, inf)")
    dropout: float = setting(0.15, "augmentation dropout fraction", "[0, 1)")
    restyle_prob: float = setting(0.5, "augmentation camera-restyle probability", "[0, 1]")


def sample_pk_batch(assignment: ClusterAssignment, spec: BatchSpec,
                    step_seeds) -> np.ndarray:
    """Identity-balanced batches of inlier indices for len(step_seeds) steps,
    of shape (steps, n_identities * n_instances); a row's labels are
    assignment.labels of its indices.

    Step j draws from its own `np.random.default_rng(step_seeds[j])`.
    Identities are drawn without replacement. Within an identity,
    members are drawn without replacement when the cluster is large
    enough, with replacement otherwise (clusters can shrink below
    n_instances after outlier exclusion). The caller ensures at least
    n_identities clusters (trainer.run_epoch stops a run with fewer).
    """
    indices = np.empty((len(step_seeds), spec.n_identities, spec.n_instances), dtype=np.int64)
    for step, seed in enumerate(step_seeds):
        rng = np.random.default_rng(seed)
        chosen = rng.choice(assignment.cluster_count, size=spec.n_identities, replace=False)
        for picks, label in zip(indices[step], chosen):
            m = assignment.members_of(int(label))
            picks[:] = m[rng.choice(m.size, size=spec.n_instances,
                                    replace=m.size < spec.n_instances)]
    return indices.reshape(len(step_seeds), -1)


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


def perturb(features: np.ndarray, config: PerturbationConfig, step_seeds,
            cameras: np.ndarray, camera_offsets: np.ndarray) -> None:
    """Strong feature-space augmentation, in place, of the (steps, rows, d)
    float64 `features`: row block j is step j's batch, and `cameras` its
    (steps, rows) camera ids. Deterministic given the seeds.

    Step j draws from its own `np.random.default_rng(step_seeds[j])`: its
    noise, dropout keys, restyle coins and restyle targets, in that order.
    So each step's rows come out as a one-step call on them alone would
    leave them. The caller (trainer.plan_steps) passes one seed per step and
    (steps, rows) cameras aligned with the rows.

    The restyle step moves a row by the full difference from its own
    camera's style offset to a uniformly drawn other camera's. With a single
    camera there is no other style, and restyle leaves every row as it is.
    """
    steps, rows, d = features.shape
    n_drop = int(round(config.dropout * d))
    n_cams = len(camera_offsets)
    restyling = config.restyle_prob > 0 and n_cams > 1
    keys = np.empty((steps, rows, d))
    coins = np.empty((steps, rows))
    targets = np.empty((steps, rows), dtype=np.int64)
    for step, seed in enumerate(step_seeds):
        rng = np.random.default_rng(seed)
        if config.noise_sigma > 0:
            features[step] += rng.normal(0.0, config.noise_sigma, size=(rows, d))
        if n_drop > 0:
            rng.random(out=keys[step])
        if restyling:
            rng.random(out=coins[step])
            targets[step] = rng.integers(0, n_cams - 1, size=rows)
    if n_drop > 0:
        # each row drops the columns of its n_drop smallest uniform keys
        dropped = np.argpartition(keys, n_drop - 1, axis=2)[..., :n_drop]
        np.put_along_axis(features, dropped, 0.0, axis=2)
    if restyling:
        # shift each selected row to a uniformly drawn other camera
        picked = np.nonzero(coins < config.restyle_prob)
        own = cameras[picked]
        other = targets[picked] + (targets[picked] >= own)
        features[picked] += camera_offsets[other] - camera_offsets[own]
