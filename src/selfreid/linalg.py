"""Vector and matrix primitives shared by the whole pipeline.

All representations live on the unit sphere: vectors are L2-normalized
immediately after creation so that plain dot products (`a @ b.T`) are
cosine similarities. Everything is float64.
"""

import numpy as np

from .errors import DegenerateVector, InvalidTemperature

# Norm below this is treated as a zero vector.
ZERO_NORM_TOL = 1e-300


def normalize_rows(mat: np.ndarray) -> np.ndarray:
    """Scale each row of a feature matrix to unit L2 norm."""
    mat = np.asarray(mat, dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms)) or np.any(norms <= ZERO_NORM_TOL):
        raise DegenerateVector("matrix contains a zero or non-finite row")
    return mat / norms


def softmax_rows(sims: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-scaled softmax of each row of a similarity matrix.

    Uses max-subtraction: temperatures as low as 0.07 push logits to
    +/-14, where naive exponentiation starts losing precision.
    """
    if temperature <= 0:
        raise InvalidTemperature(f"temperature must be > 0, got {temperature}")
    sims = np.asarray(sims, dtype=np.float64)
    logits = sims / temperature
    logits = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)
