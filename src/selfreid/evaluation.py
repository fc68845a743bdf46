"""Cross-camera retrieval metrics: mAP and CMC rank-k.

Protocol: for each query, gallery items sharing both its identity and
its camera are removed (the standard junk filter), the rest are ranked
by cosine similarity, and a query counts as valid only if at least one
cross-camera true match survives the filter. Ties rank by ascending
gallery index, making results deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .data import UNKNOWN_IDENTITY
from .errors import SelfReidError

RANKS = (1, 5, 10)


@dataclass
class RetrievalSet:
    """Embeddings plus ground-truth identity and camera ids."""

    embeddings: np.ndarray
    identities: np.ndarray
    cameras: np.ndarray


@dataclass
class EvalReport:
    mean_ap: float
    rank1: float
    rank5: float
    rank10: float
    excluded_queries: int


def average_precision(ranked_relevance) -> float:
    """AP of a ranked boolean relevance list: mean of precision-at-hit."""
    rel = np.asarray(ranked_relevance, dtype=bool)
    total = int(rel.sum())
    if total == 0:
        raise SelfReidError("no relevant item in ranking")
    hits = np.cumsum(rel)
    positions = np.flatnonzero(rel) + 1
    return float(np.sum(hits[positions - 1] / positions) / total)


def require_known_identities(identities: np.ndarray, where: str,
                             reason: str = "evaluation needs known identities") -> None:
    """Reject unknown ("?") identities; by default because they cannot tell
    a match from a miss. `reason` ends the message."""
    unknown = int(np.sum(identities == UNKNOWN_IDENTITY))
    if unknown:
        raise SelfReidError(f"{where}: {unknown} of {len(identities)} records have unknown "
                            f"identity ?; {reason}")


def cross_camera_matches(queries, gallery) -> np.ndarray:
    """Per query, whether some gallery row shares its identity but not its
    camera; a query without one is excluded from evaluation. Each argument
    may be any object with `identities` and `cameras` arrays.

    Such a row exists when the gallery holds more rows of the query's
    identity than of its (identity, camera) pair, so only those counts
    are kept, not a query x gallery mask.
    """
    q = len(queries.identities)
    _, identity = np.unique(np.concatenate((queries.identities, gallery.identities)),
                            return_inverse=True)
    _, camera = np.unique(np.concatenate((queries.cameras, gallery.cameras)),
                          return_inverse=True)
    _, pair = np.unique(identity * len(camera) + camera, return_inverse=True)

    def in_gallery(keys):
        return np.bincount(keys[q:], minlength=len(keys))[keys[:q]]

    return in_gallery(identity) > in_gallery(pair)


def evaluate(queries: RetrievalSet, gallery: RetrievalSet) -> EvalReport:
    """mAP and CMC over all valid queries.

    Queries whose true matches all share their camera are excluded from
    the averages and counted in excluded_queries. Every identity must be
    known.
    """
    require_known_identities(queries.identities, "query")
    require_known_identities(gallery.identities, "gallery")
    valid = cross_camera_matches(queries, gallery)
    if not valid.any():
        raise SelfReidError("no query kept a valid cross-camera match")
    sims = queries.embeddings @ gallery.embeddings.T
    aps, cmc_hits = [], []
    for qi in np.flatnonzero(valid):
        keep = ~((gallery.identities == queries.identities[qi])
                 & (gallery.cameras == queries.cameras[qi]))
        kept_idx = np.flatnonzero(keep)
        order = kept_idx[np.argsort(-sims[qi, kept_idx], kind="stable")]
        relevance = gallery.identities[order] == queries.identities[qi]
        aps.append(average_precision(relevance))
        first_hit = int(np.argmax(relevance))
        cmc_hits.append([first_hit < k for k in RANKS])
    cmc = np.mean(np.array(cmc_hits, dtype=float), axis=0)
    return EvalReport(mean_ap=float(np.mean(aps)), rank1=float(cmc[0]),
                      rank5=float(cmc[1]), rank10=float(cmc[2]),
                      excluded_queries=int(np.sum(~valid)))
