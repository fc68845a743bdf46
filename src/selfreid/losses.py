"""Training objectives, with values and analytic gradients.

Four parts feed the total objective: a cluster-proxy softmax loss, a
cross-camera loss over the per-camera proxies, a hard-instance
contrastive loss that mines the least similar positive in the batch,
and a soft consistency loss that penalizes divergence between the
similarity distributions of augmented and clean views.

Every loss takes the whole batch and is computed as array operations;
the literal per-anchor forms they are checked against live in
tests/oracles.py. Gradients are taken w.r.t. the online representations
only; momentum representations, proxies and target distributions are
constants. The trainer feeds these gradients back through the encoder.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NoNegatives,
    NonFiniteLoss,
    ProxyNotFound,
    SelfReidError,
)
from .linalg import softmax_rows
from .proxies import ProxyMemory


@dataclass
class Temperatures:
    agnostic: float = field(default=0.5,
                            metadata={"help": "cluster-proxy softmax temperature"})
    cross: float = field(default=0.07, metadata={"help": "cross-camera proxy temperature"})
    hard: float = field(default=0.1, metadata={"help": "hard-instance temperature"})
    soft: float = field(default=0.4, metadata={"help": "consistency temperature"})

    def validate(self) -> None:
        for name in ("agnostic", "cross", "hard", "soft"):
            value = getattr(self, name)
            if not (value > 0):
                raise SelfReidError(f"temperature tau_{name} must be > 0, got {value}")


@dataclass
class LossWeights:
    """Weights of the two instance terms; zero disables a term."""

    hard: float = field(default=1.0, metadata={"help": "hard-instance loss weight"})
    soft: float = field(default=10.0, metadata={"help": "consistency loss weight"})

    def validate(self) -> None:
        for name in ("hard", "soft"):
            value = getattr(self, name)
            if not (value >= 0):
                raise SelfReidError(f"loss weight lambda_{name} must be >= 0, got {value}")


@dataclass
class LossBreakdown:
    agnostic: float
    cross: float
    proxy: float
    hard: float
    soft: float
    total: float
    grads: np.ndarray  # d(total)/d(online representations), (N, d)


@dataclass
class ConsistencyDistributions:
    """Row-stochastic prediction (P) and target (Q) matrices.

    Rows are anchors, columns the batch instances. The augmented
    momentum targets and the temperature are kept so the loss can chain
    gradients back to the online representations.
    """

    p: np.ndarray
    q: np.ndarray
    targets: np.ndarray
    temperature: float


def proxy_agnostic_loss(feats: np.ndarray, labels: np.ndarray,
                        proxy_vectors: np.ndarray, tau: float):
    """Softmax log loss of each anchor against all cluster proxies.

    One positive (the anchor's own cluster proxy), every other proxy a
    negative. Returns (value, grads) with grads of shape feats.shape.
    """
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    proxy_vectors = np.asarray(proxy_vectors, dtype=np.float64)
    n = feats.shape[0]
    n_proxies = proxy_vectors.shape[0]
    if np.any(labels < 0) or np.any(labels >= n_proxies):
        missing = labels[(labels < 0) | (labels >= n_proxies)]
        raise ProxyNotFound(f"labels {sorted(set(missing.tolist()))} have no proxy")

    sims = feats @ proxy_vectors.T
    probs = softmax_rows(sims, tau)
    picked = probs[np.arange(n), labels]
    value = float(-np.mean(np.log(picked)))
    grads = (probs @ proxy_vectors - proxy_vectors[labels]) / (tau * n)
    return value, grads


def cross_camera_loss_batch(feats: np.ndarray, cameras: np.ndarray,
                            labels: np.ndarray, memory: ProxyMemory,
                            tau: float, n_neg: int):
    """Batch mean of the per-anchor cross-camera proxy loss.

    Each positive of anchor i is a camera proxy of its own cluster under
    another camera; the denominator of every positive adds the n_neg
    camera proxies of other clusters most similar to the anchor (ties
    keep table order). Anchor i averages its k_i positive terms, so each
    (anchor, positive) pair weighs 1 / (k_i * N). Anchors whose cluster
    lives in a single camera contribute zero, with zero gradient.
    """
    if n_neg < 1:
        raise SelfReidError(f"n_neg must be >= 1, got {n_neg}")
    feats = np.asarray(feats, dtype=np.float64)
    cameras = np.asarray(cameras, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    n = feats.shape[0]
    proxies = memory.camera_vectors
    sims = feats @ proxies.T
    own = memory.camera_cluster_ids[None, :] == labels[:, None]
    positive = own & (memory.camera_ids[None, :] != cameras[:, None])

    # A row's negatives are its n_neg smallest keys -sim among other
    # clusters' proxies: every key up to the n_neg-th, and of the keys
    # tied with it only the first ones in table order. Own-cluster keys
    # are +inf and never count.
    keys = np.where(own, np.inf, -sims)
    negative = ~own
    if n_neg < keys.shape[1]:
        kth = np.partition(keys, n_neg - 1, axis=1)[:, n_neg - 1:n_neg]
        negative &= keys <= kth
        surplus = negative.sum(axis=1, keepdims=True) - n_neg
        if np.any(surplus > 0):
            tied = negative & (keys == kth)
            keep = tied.sum(axis=1, keepdims=True) - surplus
            negative &= ~tied | (np.cumsum(tied, axis=1) <= keep)

    logits = sims / tau
    neg_max = np.max(np.where(negative, logits, -np.inf), axis=1)
    neg_e = np.exp(np.where(negative, logits - neg_max[:, None], -np.inf))
    neg_sum = neg_e.sum(axis=1)

    # Each (anchor, positive) softmax is shifted by the larger of its
    # positive logit and the row's largest negative logit.
    rows, cols = np.nonzero(positive)
    pos_logit = logits[rows, cols]
    shift = np.maximum(pos_logit, neg_max[rows])
    pos_e = np.exp(pos_logit - shift)
    neg_scale = np.exp(neg_max[rows] - shift)
    denom = pos_e + neg_scale * neg_sum[rows]
    weight = 1.0 / (np.bincount(rows, minlength=n)[rows] * n)
    value = float(np.sum(weight * (np.log(denom) + shift - pos_logit)))

    # d(-log p_pos)/d(feat) = (sum_j p_j v_j - v_pos) / tau per positive.
    # A negative's probability is neg_e * neg_scale / denom, so its
    # coefficient sums weight * neg_scale / denom over the row's positives.
    coef = neg_e * np.bincount(rows, weight * neg_scale / denom, minlength=n)[:, None]
    coef[rows, cols] = weight * (pos_e / denom - 1.0)
    return value, coef @ proxies / tau


def hard_instance_loss(feats: np.ndarray, momentum: np.ndarray,
                       labels: np.ndarray, tau: float,
                       negatives: str = "all"):
    """Contrast each anchor against its hardest positive momentum twin.

    The mined positive is the same-label momentum instance with minimal
    cosine to the anchor (the anchor's own twin is eligible). Negatives
    are every other-label momentum instance, or only the most similar
    one when negatives="hardest".
    """
    if negatives not in ("all", "hardest"):
        raise SelfReidError(f"unknown negatives variant {negatives!r}")
    feats = np.asarray(feats, dtype=np.float64)
    momentum = np.asarray(momentum, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = feats.shape[0]
    same = labels[:, None] == labels[None, :]
    if same.all():
        raise NoNegatives("batch holds a single pseudo identity")

    sims = feats @ momentum.T
    mined = np.argmin(np.where(same, sims, np.inf), axis=1)

    if negatives == "all":
        mask = ~same
    else:
        hardest_neg = np.argmax(np.where(same, -np.inf, sims), axis=1)
        mask = np.zeros_like(same)
        mask[np.arange(n), hardest_neg] = True
    mask[np.arange(n), mined] = True  # positive joins its own denominator

    logits = np.where(mask, sims / tau, -np.inf)
    row_max = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - row_max)
    denom = e.sum(axis=1, keepdims=True)
    probs = e / denom

    pos_logit = sims[np.arange(n), mined] / tau
    value = float(np.mean(np.log(denom[:, 0]) + row_max[:, 0] - pos_logit))
    grads = (probs @ momentum - momentum[mined]) / (tau * n)
    return value, grads


def consistency_distributions(feats: np.ndarray, momentum_aug: np.ndarray,
                              momentum_clean: np.ndarray, tau: float,
                              targets: str = "clean") -> ConsistencyDistributions:
    """Prediction and target distributions over the batch instances.

    P compares the online augmented anchors with the augmented momentum
    batch; Q compares the clean momentum anchors with the clean batch
    (targets="strong" switches Q to the augmented momentum batch, the
    strong-strong ablation).
    """
    feats = np.asarray(feats, dtype=np.float64)
    momentum_aug = np.asarray(momentum_aug, dtype=np.float64)
    momentum_clean = np.asarray(momentum_clean, dtype=np.float64)
    if not (feats.shape == momentum_aug.shape == momentum_clean.shape):
        raise DimensionMismatch("augmented and clean batches must align")
    if targets not in ("clean", "strong"):
        raise SelfReidError(f"unknown targets variant {targets!r}")
    p = softmax_rows(feats @ momentum_aug.T, tau)
    if targets == "clean":
        q = softmax_rows(momentum_clean @ momentum_clean.T, tau)
    else:
        q = softmax_rows(momentum_aug @ momentum_aug.T, tau)
    return ConsistencyDistributions(p=p, q=q, targets=momentum_aug, temperature=tau)


def soft_consistency_loss(dists: ConsistencyDistributions,
                          divergence: str = "kl"):
    """Anchor-averaged divergence between P and Q; gradients through P only.

    divergence="kl" is D_KL(P || Q); "mse" is the squared-error ablation.
    """
    p, q = dists.p, dists.q
    n = p.shape[0]
    if divergence == "kl":
        log_ratio = np.log(p) - np.log(q)
        per_anchor = np.sum(p * log_ratio, axis=1)
        value = float(np.mean(per_anchor))
        # d/ds_ij through the softmax: p * (g - sum(p * g)) / tau, g = dKL/dP
        g = log_ratio  # the +1 from d(p log p) is constant across j, drops out
        ds = p * (g - per_anchor[:, None]) / dists.temperature
    elif divergence == "mse":
        diff = p - q
        value = float(np.mean(np.sum(diff * diff, axis=1)))
        g = 2.0 * diff
        ds = p * (g - np.sum(p * g, axis=1, keepdims=True)) / dists.temperature
    else:
        raise SelfReidError(f"unknown divergence {divergence!r}")
    grads = ds @ dists.targets / n
    return value, grads


def kl_value(dists: ConsistencyDistributions) -> float:
    """D_KL(P || Q) alone, for diagnostics on runs that do not train it."""
    return float(np.mean(np.sum(dists.p * (np.log(dists.p) - np.log(dists.q)), axis=1)))


def total_loss(agnostic, cross, hard, soft, weights: LossWeights) -> LossBreakdown:
    """Exact weighted combination of the four component (value, grad) pairs."""
    weights.validate()
    parts = {"agnostic": agnostic, "cross": cross, "hard": hard, "soft": soft}
    for name, (value, _) in parts.items():
        if not np.isfinite(value):
            raise NonFiniteLoss(f"component {name} is {value}")
    proxy_value = agnostic[0] + 0.5 * cross[0]
    total_value = proxy_value + weights.hard * hard[0] + weights.soft * soft[0]
    grads = (agnostic[1] + 0.5 * cross[1]
             + weights.hard * hard[1] + weights.soft * soft[1])
    return LossBreakdown(agnostic=agnostic[0], cross=cross[0], proxy=proxy_value,
                         hard=hard[0], soft=soft[0], total=total_value, grads=grads)
