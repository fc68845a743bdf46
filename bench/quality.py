"""Quality of a training run, judged against the synthetic ground truth."""

import numpy as np
from selfreid.rerank import OUTLIER


def _pairs(counts: np.ndarray) -> int:
    counts = counts.astype(np.int64)
    return int(np.sum(counts * (counts - 1) // 2))


def pairwise_precision_recall(labels, identities) -> tuple[float, float]:
    """Pairwise agreement of pseudo labels with true identities.

    A pair is predicted when both samples carry the same non-outlier
    label, and true when they share an identity. Outliers predict no
    pair, so their true pairs count as missed for recall. Precision is
    0 when no pair is predicted.
    """
    labels = np.asarray(labels, dtype=np.int64)
    identities = np.asarray(identities, dtype=np.int64)
    if labels.shape != identities.shape:
        raise ValueError(f"{labels.shape[0]} labels for {identities.shape[0]} samples")
    _, true_sizes = np.unique(identities, return_counts=True)
    inlier = labels != OUTLIER
    _, predicted_sizes = np.unique(labels[inlier], return_counts=True)
    cells = np.stack([labels[inlier], identities[inlier]], axis=1)
    _, cell_sizes = np.unique(cells, axis=0, return_counts=True)
    hits = _pairs(cell_sizes)
    predicted = _pairs(predicted_sizes)
    true = _pairs(true_sizes)
    precision = hits / predicted if predicted else 0.0
    recall = hits / true if true else 0.0
    return precision, recall


def cluster_count_err(clusters: int, identities: int) -> float:
    """|clusters - true identities| / true identities; 0 is exact."""
    return abs(clusters - identities) / identities
