"""Training objectives, with values and analytic gradients.

Four parts feed the total objective: a cluster-proxy softmax loss, a
cross-camera loss over the per-camera proxies, and the two instance
losses of ICE. The hard instance loss contrasts each anchor's least
similar positive in the batch against every other-identity instance;
the soft loss is D_KL(P || Q) between the similarity distributions of
the augmented view (P) and the clean view (Q, the target).

Every loss takes the whole batch and is computed as array operations;
the literal per-anchor forms they are checked against live in
tests/oracles.py. Gradients are taken w.r.t. the online representations
only; momentum representations, proxies and target distributions are
constants. The trainer feeds these gradients back through the encoder.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SelfReidError
from .linalg import softmax_rows
from .proxies import ProxyMemory
from .settings import Settings, setting


@dataclass
class Temperatures(Settings):
    key_prefix = "tau_"

    agnostic: float = setting(0.5, "cluster-proxy softmax temperature", "(0, inf)")
    cross: float = setting(0.07, "cross-camera proxy temperature", "(0, inf)")
    hard: float = setting(0.1, "hard-instance temperature", "(0, inf)")
    soft: float = setting(0.4, "consistency temperature", "(0, inf)")


@dataclass
class LossWeights(Settings):
    """Weights of the two instance terms; zero disables a term."""

    key_prefix = "lambda_"

    hard: float = setting(1.0, "hard-instance loss weight", "[0, inf)")
    soft: float = setting(10.0, "consistency loss weight", "[0, inf)")


@dataclass
class LossBreakdown:
    agnostic: float
    cross: float
    hard: float
    soft: float
    total: float
    grads: np.ndarray  # d(total)/d(online representations), (N, d)


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
    if (labels < 0).any() or (labels >= n_proxies).any():
        missing = labels[(labels < 0) | (labels >= n_proxies)]
        raise SelfReidError(f"labels {sorted(set(missing.tolist()))} have no proxy")

    sims = feats @ proxy_vectors.T
    probs = softmax_rows(sims, tau)
    picked = probs[np.arange(n), labels]
    value = float(-np.log(picked).mean())
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
        if (surplus > 0).any():
            tied = negative & (keys == kth)
            keep = tied.sum(axis=1, keepdims=True) - surplus
            negative &= ~tied | (np.cumsum(tied, axis=1) <= keep)

    logits = sims / tau
    neg_max = np.where(negative, logits, -np.inf).max(axis=1)
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
    value = float((weight * (np.log(denom) + shift - pos_logit)).sum())

    # d(-log p_pos)/d(feat) = (sum_j p_j v_j - v_pos) / tau per positive.
    # A negative's probability is neg_e * neg_scale / denom, so its
    # coefficient sums weight * neg_scale / denom over the row's positives.
    coef = neg_e * np.bincount(rows, weight * neg_scale / denom, minlength=n)[:, None]
    coef[rows, cols] = weight * (pos_e / denom - 1.0)
    return value, coef @ proxies / tau


def hard_instance_loss(feats: np.ndarray, momentum: np.ndarray,
                       labels: np.ndarray, tau: float):
    """Contrast each anchor's hardest positive against the other identities.

    The mined positive is the same-label momentum instance with minimal
    cosine to the anchor (the anchor's own twin is eligible); the
    denominator adds every other-label momentum instance in the batch.
    """
    feats = np.asarray(feats, dtype=np.float64)
    momentum = np.asarray(momentum, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = feats.shape[0]
    same = labels[:, None] == labels[None, :]
    if same.all():
        raise SelfReidError("batch holds a single pseudo identity")

    sims = feats @ momentum.T
    mined = np.argmin(np.where(same, sims, np.inf), axis=1)
    mask = ~same
    mask[np.arange(n), mined] = True  # positive joins its own denominator

    logits = np.where(mask, sims / tau, -np.inf)
    row_max = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - row_max)
    denom = e.sum(axis=1, keepdims=True)
    probs = e / denom

    pos_logit = sims[np.arange(n), mined] / tau
    value = float((np.log(denom[:, 0]) + row_max[:, 0] - pos_logit).mean())
    grads = (probs @ momentum - momentum[mined]) / (tau * n)
    return value, grads


def consistency_distributions(feats: np.ndarray, momentum_aug: np.ndarray,
                              momentum_clean: np.ndarray, tau: float):
    """Prediction and target distributions over the batch instances: (P, Q),
    row-stochastic, rows the anchors and columns the batch instances.

    P compares the online augmented anchors with the augmented momentum
    batch; the target Q compares the clean momentum anchors with the
    clean momentum batch.
    """
    feats = np.asarray(feats, dtype=np.float64)
    momentum_aug = np.asarray(momentum_aug, dtype=np.float64)
    momentum_clean = np.asarray(momentum_clean, dtype=np.float64)
    if not (feats.shape == momentum_aug.shape == momentum_clean.shape):
        raise SelfReidError("augmented and clean batches must align")
    return (softmax_rows(feats @ momentum_aug.T, tau),
            softmax_rows(momentum_clean @ momentum_clean.T, tau))


def soft_consistency_loss(feats: np.ndarray, momentum_aug: np.ndarray,
                          momentum_clean: np.ndarray, tau: float):
    """Anchor-averaged D_KL(P || Q) of `consistency_distributions`;
    gradients through P only."""
    momentum_aug = np.asarray(momentum_aug, dtype=np.float64)
    p, q = consistency_distributions(feats, momentum_aug, momentum_clean, tau)
    log_ratio = np.log(p) - np.log(q)
    per_anchor = (p * log_ratio).sum(axis=1)
    # Through the softmax, d/ds_ij = p * (g - sum(p * g)) / tau with g = dKL/dP
    # = log_ratio; the +1 from d(p log p) is constant across j and drops out.
    ds = p * (log_ratio - per_anchor[:, None]) / tau
    return float(per_anchor.mean()), ds @ momentum_aug / p.shape[0]


def kl_value(p: np.ndarray, q: np.ndarray) -> float:
    """D_KL(P || Q) alone, without the gradient."""
    return float((p * (np.log(p) - np.log(q))).sum(axis=1).mean())


def total_loss(agnostic, cross, hard, soft, weights: LossWeights) -> LossBreakdown:
    """Exact weighted combination of the four component (value, grad) pairs."""
    total_value = (agnostic[0] + 0.5 * cross[0]
                   + weights.hard * hard[0] + weights.soft * soft[0])
    grads = (agnostic[1] + 0.5 * cross[1]
             + weights.hard * hard[1] + weights.soft * soft[1])
    return LossBreakdown(agnostic=agnostic[0], cross=cross[0], hard=hard[0], soft=soft[0],
                         total=total_value, grads=grads)
