"""Vector and matrix primitives shared by the whole pipeline.

All representations live on the unit sphere: vectors are L2-normalized
immediately after creation so that plain dot products (`a @ b.T`) are
cosine similarities. Everything is float64.
"""

import numpy as np

from .errors import SelfReidError

# Norm below this is treated as a zero vector.
ZERO_NORM_TOL = 1e-300


def normalize_rows(mat: np.ndarray) -> np.ndarray:
    """Scale each row of a 2-D feature matrix to unit L2 norm."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise SelfReidError(f"need a 2-D matrix (rows x dims), got shape {mat.shape}")
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms)) or np.any(norms <= ZERO_NORM_TOL):
        raise SelfReidError("matrix contains a zero or non-finite row")
    return mat / norms


def require_finite(features: np.ndarray, where: str, rows=None) -> None:
    """Fail at the first non-finite feature, naming its row as `where` +
    rows[row], or `where` + row without `rows`."""
    finite = np.isfinite(features)
    if not finite.all():  # argwhere only on the error path: it costs 10x the scan
        row, col = np.argwhere(~finite)[0]
        raise SelfReidError(f"{where}{row if rows is None else rows[row]}: feature {col} is "
                            f"{features[row, col]}, not a finite number")


def softmax_rows(sims: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-scaled softmax of each row of a similarity matrix.

    Uses max-subtraction: temperatures as low as 0.07 push logits to
    +/-14, where naive exponentiation starts losing precision. The caller
    passes a float64 matrix and a temperature > 0 (check_run refuses others).
    """
    logits = sims / temperature
    logits = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)
