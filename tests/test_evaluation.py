import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfreid.errors import SelfReidError
from selfreid import evaluation
from selfreid.evaluation import RetrievalSet, cross_camera_matches, evaluate
from selfreid.linalg import normalize_rows

from oracles import cross_camera_matches_oracle, evaluation_oracle


def one_query(gallery_sims, gallery_ids, gallery_cams, query_id=1, query_cam=0):
    """Query `query_id` in camera `query_cam`; the gallery is ranked by
    `gallery_sims`, which one-wide embeddings give exactly."""
    queries = RetrievalSet(np.array([[1.0]]), np.array([query_id]), np.array([query_cam]))
    gallery = RetrievalSet(np.array(gallery_sims, dtype=float)[:, None],
                           np.array(gallery_ids), np.array(gallery_cams))
    return queries, gallery


def test_hits_at_kept_ranks_one_and_three():
    # ranked: match, same-camera match (junk, not kept), miss, match
    report = evaluate(*one_query([4, 3, 2, 1], [1, 1, 2, 1], [1, 0, 1, 2]))
    assert report.mean_ap == (1.0 + 2.0 / 3.0) / 2.0
    assert report.mean_ap == pytest.approx(0.8333, abs=1e-4)
    assert (report.rank1, report.rank5, report.rank10) == (1.0, 1.0, 1.0)


def test_first_hit_rank_counts_kept_items_only():
    # kept ranks: miss, miss, match; the junk row between them is not counted
    report = evaluate(*one_query([5, 4, 3, 2], [2, 1, 3, 1], [1, 0, 1, 1]))
    assert report.mean_ap == 1.0 / 3.0
    assert (report.rank1, report.rank5, report.rank10) == (0.0, 1.0, 1.0)


def test_trailing_irrelevant_gallery_rows_leave_map_unchanged():
    base = evaluate(*one_query([4, 3, 2], [1, 2, 1], [1, 1, 1]))
    longer = evaluate(*one_query([4, 3, 2, 1, 0], [1, 2, 1, 3, 2], [1, 1, 1, 0, 1]))
    assert longer == base


def test_all_relevant_gallery_scores_one():
    report = evaluate(*one_query([2, 9, 4, 1], [1, 1, 1, 1], [1, 2, 1, 3]))
    assert (report.mean_ap, report.rank1) == (1.0, 1.0)


def make_sets(rng, n_ids=10, d=8):
    q_emb = normalize_rows(rng.normal(size=(n_ids, d)))
    q_ids = np.arange(n_ids)
    q_cams = np.zeros(n_ids, dtype=np.int64)
    g_emb = normalize_rows(q_emb + 0.05 * rng.normal(size=(n_ids, d)))
    g_ids = np.arange(n_ids)
    g_cams = np.ones(n_ids, dtype=np.int64)
    return (RetrievalSet(q_emb, q_ids, q_cams),
            RetrievalSet(g_emb, g_ids, g_cams))


def test_perfect_retrieval():
    rng = np.random.default_rng(0)
    q_emb = normalize_rows(rng.normal(size=(6, 8)))
    queries = RetrievalSet(q_emb, np.arange(6), np.zeros(6, int))
    gallery = RetrievalSet(q_emb, np.arange(6), np.ones(6, int))
    report = evaluate(queries, gallery)
    assert report.mean_ap == 1.0
    assert report.rank1 == 1.0
    assert report.excluded_queries == 0


def test_evaluate_matches_exhaustive_oracle():
    rng = np.random.default_rng(1)
    n_q, n_g, n_ids = 10, 30, 10
    q_emb = normalize_rows(rng.normal(size=(n_q, 6)))
    g_emb = normalize_rows(rng.normal(size=(n_g, 6)))
    q_ids = rng.integers(0, n_ids, n_q)
    g_ids = rng.integers(0, n_ids, n_g)
    q_cams = rng.integers(0, 3, n_q)
    g_cams = rng.integers(0, 3, n_g)
    # ensure every query has a cross-camera match
    for i in range(n_q):
        g_ids[i] = q_ids[i]
        g_cams[i] = (q_cams[i] + 1) % 3
    report = evaluate(RetrievalSet(q_emb, q_ids, q_cams),
                      RetrievalSet(g_emb, g_ids, g_cams))
    mean_ap, cmc, excluded = evaluation_oracle(q_emb, q_ids, q_cams,
                                               g_emb, g_ids, g_cams)
    assert report.mean_ap == pytest.approx(mean_ap, abs=1e-12)
    assert report.rank1 == pytest.approx(cmc[0], abs=1e-12)
    assert report.rank5 == pytest.approx(cmc[1], abs=1e-12)
    assert report.rank10 == pytest.approx(cmc[2], abs=1e-12)
    assert report.excluded_queries == excluded


def test_unknown_identities_rejected():
    emb = normalize_rows(np.random.default_rng(3).normal(size=(2, 5)))
    known = RetrievalSet(emb, np.array([1, 2]), np.array([0, 1]))
    partly = RetrievalSet(emb, np.array([-1, 2]), np.array([0, 1]))
    unknown = RetrievalSet(emb, np.array([-1, -1]), np.array([0, 1]))
    with pytest.raises(SelfReidError, match=re.escape(
            "query: 1 of 2 records have unknown identity ?; evaluation needs known identities")):
        evaluate(partly, known)
    with pytest.raises(SelfReidError, match="gallery: 1 of 2 records have unknown identity"):
        evaluate(known, partly)
    # all-unknown sets would otherwise score a perfect mAP: -1 matches -1
    with pytest.raises(SelfReidError, match="query: 2 of 2 records"):
        evaluate(unknown, unknown)


def test_same_camera_matches_are_excluded():
    rng = np.random.default_rng(2)
    emb = normalize_rows(rng.normal(size=(3, 5)))
    queries = RetrievalSet(emb[:1], np.array([7]), np.array([0]))
    # only matches share the query's camera -> query excluded
    gallery = RetrievalSet(emb, np.array([7, 7, 8]), np.array([0, 0, 1]))
    with pytest.raises(SelfReidError, match="^no query in query has a record of its identity "
                                            "from another camera in gallery; evaluation needs one$"):
        evaluate(queries, gallery)


def test_excluded_queries_counted():
    rng = np.random.default_rng(3)
    emb = normalize_rows(rng.normal(size=(4, 5)))
    queries = RetrievalSet(emb[:2], np.array([1, 2]), np.array([0, 0]))
    gallery = RetrievalSet(emb, np.array([1, 2, 2, 3]), np.array([0, 1, 1, 0]))
    report = evaluate(queries, gallery)  # query 0's only match shares camera 0
    assert report.excluded_queries == 1


def test_gallery_permutation_invariance():
    rng = np.random.default_rng(4)
    queries, gallery = make_sets(rng)
    base = evaluate(queries, gallery)
    perm = rng.permutation(len(gallery.identities))
    shuffled = RetrievalSet(gallery.embeddings[perm], gallery.identities[perm],
                            gallery.cameras[perm])
    again = evaluate(queries, shuffled)
    assert again.mean_ap == pytest.approx(base.mean_ap, abs=1e-12)
    assert again.rank1 == pytest.approx(base.rank1, abs=1e-12)


def test_rank_k_monotone():
    rng = np.random.default_rng(5)
    q_emb = normalize_rows(rng.normal(size=(12, 6)))
    g_emb = normalize_rows(rng.normal(size=(40, 6)))
    q_ids = np.arange(12)
    g_ids = np.concatenate([np.arange(12), rng.integers(0, 12, 28)])
    report = evaluate(RetrievalSet(q_emb, q_ids, np.zeros(12, int)),
                      RetrievalSet(g_emb, g_ids, np.ones(40, int)))
    assert report.rank1 <= report.rank5 <= report.rank10 <= 1.0



@given(st.data())
def test_cross_camera_matches_equal_dense_masks(data):
    # few identities and cameras, so that queries with and without a
    # cross-camera match both occur; ids may be negative or far apart
    labels = st.sampled_from([-1, 0, 1, 2, 7, 10**12])
    cameras = st.integers(0, 3)

    def split(name, min_size):
        size = data.draw(st.integers(min_size, 12), label=f"{name} size")
        draw = lambda values: np.array(data.draw(st.lists(values, min_size=size, max_size=size),
                                                 label=name), dtype=np.int64)
        return RetrievalSet(embeddings=None, identities=draw(labels), cameras=draw(cameras))

    queries, gallery = split("query", 1), split("gallery", 0)
    np.testing.assert_array_equal(cross_camera_matches(queries, gallery),
                                  cross_camera_matches_oracle(queries, gallery))


# Signed axis vectors: every similarity is -1, 0 or 1, computed exactly in
# any summation order, so most rankings rest on the tie rule.
AXES = np.vstack((np.eye(3), -np.eye(3)))


@settings(max_examples=80)
@given(st.data())
def test_tie_heavy_rankings_match_oracle(data):
    def split(name):
        size = data.draw(st.integers(1, 15), label=f"{name} size")
        column = lambda values: np.array(data.draw(
            st.lists(values, min_size=size, max_size=size), label=name), dtype=np.int64)
        return RetrievalSet(AXES[column(st.integers(0, 5))], column(st.integers(0, 3)),
                            column(st.integers(0, 2)))

    queries, gallery = split("query"), split("gallery")
    assume(cross_camera_matches(queries, gallery).any())
    cells = data.draw(st.sampled_from([1, 2 * len(gallery.identities), 1 << 20]),
                      label="block cells")
    with mock.patch.object(evaluation, "_BLOCK_CELLS", cells):
        report = evaluate(queries, gallery)
    mean_ap, cmc, excluded = evaluation_oracle(queries.embeddings, queries.identities,
                                               queries.cameras, gallery.embeddings,
                                               gallery.identities, gallery.cameras)
    assert [report.rank1, report.rank5, report.rank10] == cmc
    assert report.excluded_queries == excluded
    assert report.mean_ap == pytest.approx(mean_ap, abs=1e-12)


def test_one_query_per_block_gives_the_one_block_report(monkeypatch):
    rng = np.random.default_rng(6)
    # 37 gallery rows drawn from 5 embeddings with mixed identities, so that
    # equal similarities must rank by gallery index in every block
    g_emb = normalize_rows(rng.normal(size=(5, 8)))[rng.integers(0, 5, 37)]
    gallery = RetrievalSet(g_emb, rng.integers(0, 6, 37), rng.integers(0, 3, 37))
    queries = RetrievalSet(normalize_rows(rng.normal(size=(20, 8))),
                           rng.integers(0, 8, 20), rng.integers(0, 3, 20))
    one_block = evaluate(queries, gallery)
    assert 0 < one_block.excluded_queries < 20
    monkeypatch.setattr(evaluation, "_BLOCK_CELLS", 1)
    assert evaluate(queries, gallery) == one_block


@pytest.mark.parametrize("query_shape, gallery_shape, query_cameras, message", [
    ((3, 5), (3, 4), 3, "query embeddings have width 5 but gallery ones 4"),
    ((3, 5), (2, 5), 3, "gallery: 2 embeddings but 3 identities"),
    ((3, 5), (6, 5), 3, "gallery: 6 embeddings but 3 identities"),
    ((4, 5), (3, 5), 3, "query: 4 embeddings but 3 identities"),
    ((3, 5), (3, 5), 2, "query: 3 embeddings but 2 cameras"),
    ((3,), (3, 5), 3, "query: embeddings must be 2-D (rows x dims), got shape (3,)"),
    ((3, 5), (3, 5, 1), 3, "gallery: embeddings must be 2-D (rows x dims), got shape (3, 5, 1)"),
], ids=["widths", "fewer-gallery-rows", "more-gallery-rows", "more-query-rows",
        "fewer-query-cameras", "1-d-query", "3-d-gallery"])
def test_misaligned_sets_rejected(query_shape, gallery_shape, query_cameras, message):
    # unnormalized: the sets are refused before any similarity is taken
    rng = np.random.default_rng(7)
    ids, cams = np.array([1, 2, 3]), np.array([0, 1, 2])
    queries = RetrievalSet(rng.normal(size=query_shape), ids, cams[:query_cameras])
    gallery = RetrievalSet(rng.normal(size=gallery_shape), ids, cams[::-1])
    with pytest.raises(SelfReidError, match=f"^{re.escape(message)}$"):
        evaluate(queries, gallery)


@pytest.mark.parametrize("split, value", [(0, np.nan), (1, -np.inf)],
                         ids=["query-nan", "gallery-inf"])
def test_non_finite_embeddings_rejected(split, value):
    sets = make_sets(np.random.default_rng(8))
    sets[split].embeddings[4, 2] = value
    name = ("query", "gallery")[split]
    with pytest.raises(SelfReidError, match=f"^{name}: embedding row 4: feature 2 is {value}, "
                                            f"not a finite number$"):
        evaluate(*sets)
