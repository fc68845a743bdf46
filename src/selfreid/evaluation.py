"""Cross-camera retrieval metrics: mAP and CMC rank-k.

Protocol: for each query, gallery items sharing both its identity and
its camera are removed (the standard junk filter), the rest are ranked
by cosine similarity, and a query counts as valid only if at least one
cross-camera true match survives the filter.

Rank rule: an item ranks ahead of another when its computed similarity
is higher, or equal with a lower gallery index. A relevant item's rank is
one plus the number of kept items ahead of it; AP averages (relevant
items up to it) / rank over a query's relevant items, and rank-k counts
queries whose first relevant item has rank <= k. Queries are ranked in
blocks of _BLOCK_CELLS // gallery rows, so memory is O(block x gallery).
BLAS picks a block's kernel for its edge columns by its rows, so equal
gallery rows may differ in the last bit: _BLOCK_CELLS fixes the bits,
and ties are ties of computed values.
"""

from dataclasses import dataclass

import numpy as np

from .data import UNKNOWN_IDENTITY
from .errors import SelfReidError
from .linalg import require_finite

_BLOCK_CELLS = 1 << 20  # query x gallery cells ranked at once


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


def require_evaluable(queries, gallery, query_name: str = "query",
                      gallery_name: str = "gallery") -> np.ndarray:
    """Reject splits with an unknown identity (the query split is checked first)
    or no cross-camera match; else return cross_camera_matches(queries, gallery)."""
    require_known_identities(queries.identities, query_name)
    require_known_identities(gallery.identities, gallery_name)
    valid = cross_camera_matches(queries, gallery)
    if not valid.any():
        raise SelfReidError(f"no query in {query_name} has a record of its identity from "
                            f"another camera in {gallery_name}; evaluation needs one")
    return valid


def _check_aligned(queries: RetrievalSet, gallery: RetrievalSet) -> None:
    """Reject a set whose embeddings are not a finite 2-D array or whose
    arrays differ in length, or embeddings of two widths."""
    for name, split in (("query", queries), ("gallery", gallery)):
        if np.ndim(split.embeddings) != 2:
            raise SelfReidError(f"{name}: embeddings must be 2-D (rows x dims), "
                                f"got shape {np.shape(split.embeddings)}")
        for field in ("identities", "cameras"):
            if len(getattr(split, field)) != len(split.embeddings):
                raise SelfReidError(f"{name}: {len(split.embeddings)} embeddings but "
                                    f"{len(getattr(split, field))} {field}")
        require_finite(split.embeddings, f"{name}: embedding row ")
    if queries.embeddings.shape[1] != gallery.embeddings.shape[1]:
        raise SelfReidError(f"query embeddings have width {queries.embeddings.shape[1]} "
                            f"but gallery ones {gallery.embeddings.shape[1]}")


def evaluate(queries: RetrievalSet, gallery: RetrievalSet) -> EvalReport:
    """mAP and CMC over all valid queries.

    Queries whose true matches all share their camera are excluded from
    the averages and counted in excluded_queries. Every identity must be
    known, and each set's arrays must line up.
    """
    _check_aligned(queries, gallery)
    valid = require_evaluable(queries, gallery)
    rows = np.flatnonzero(valid)
    step = max(1, _BLOCK_CELLS // len(gallery.identities))
    aps, first_ranks = [], []
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        # a one-row product goes through gemv, whose sums can differ from
        # gemm's in the last bit: multiply two rows or more
        sims = queries.embeddings[np.resize(block, max(2, len(block)))] @ gallery.embeddings.T
        order = np.argsort(-sims[:len(block)], axis=1, kind="stable")
        same_id = gallery.identities[order] == queries.identities[block, None]
        same_cam = gallery.cameras[order] == queries.cameras[block, None]
        relevant = same_id & ~same_cam
        rank = np.cumsum(~(same_id & same_cam), axis=1)[relevant]  # row-major: query by query
        hits = np.cumsum(relevant, axis=1)[relevant]
        counts = relevant.sum(axis=1)
        ends = np.cumsum(counts)
        aps += [np.sum(terms) / n for terms, n in zip(np.split(hits / rank, ends[:-1]), counts)]
        first_ranks.append(rank[ends - counts])
    first = np.concatenate(first_ranks)
    return EvalReport(mean_ap=float(np.mean(aps)), rank1=float(np.mean(first <= 1)),
                      rank5=float(np.mean(first <= 5)), rank10=float(np.mean(first <= 10)),
                      excluded_queries=len(valid) - len(rows))
