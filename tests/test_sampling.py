import itertools

import numpy as np
import pytest

from selfreid.data import SyntheticSpec, generate_synthetic
from selfreid.errors import SelfReidError
from selfreid.rerank import OUTLIER, ClusterAssignment
from selfreid.sampling import (
    BatchSpec,
    PerturbationConfig,
    estimate_camera_offsets,
    perturb,
    sample_pk_batch,
)

from oracles import perturb_oracle


def make_assignment(labels):
    labels = np.asarray(labels, dtype=np.int64)
    count = int(labels.max()) + 1 if np.any(labels != OUTLIER) else 0
    return ClusterAssignment(labels=labels, cluster_count=count)


def eight_cluster_assignment(per_cluster=5):
    labels = np.repeat(np.arange(8), per_cluster)
    cameras = np.arange(len(labels)) % 4
    return make_assignment(labels), cameras


def test_batch_shape_and_label_multiset():
    assignment, cameras = eight_cluster_assignment()
    batch = sample_pk_batch(assignment, cameras, BatchSpec(8, 4), rng_seed=0)
    assert len(batch.indices) == 32
    values, counts = np.unique(batch.labels, return_counts=True)
    assert len(values) == 8
    assert np.all(counts == 4)


def test_batch_indices_are_inliers_with_matching_labels():
    labels = np.array([0, 0, 0, 0, OUTLIER, 1, 1, 1, 1, OUTLIER, 2, 2, 2, 2])
    assignment = make_assignment(labels)
    cameras = np.zeros(len(labels), dtype=np.int64)
    batch = sample_pk_batch(assignment, cameras, BatchSpec(3, 4), rng_seed=1)
    assert np.all(labels[batch.indices] == batch.labels)
    assert np.all(labels[batch.indices] != OUTLIER)


def test_exact_size_cluster_used_fully():
    labels = np.repeat(np.arange(4), 4)
    assignment = make_assignment(labels)
    batch = sample_pk_batch(assignment, np.zeros(16, int), BatchSpec(4, 4), rng_seed=2)
    for cluster in range(4):
        members = set(np.flatnonzero(labels == cluster))
        chosen = [int(i) for i in batch.indices[batch.labels == cluster]]
        assert set(chosen) == members
        assert len(chosen) == len(set(chosen))


def test_small_cluster_duplicates_an_index():
    labels = np.array([0, 0, 0, 1, 1, 1, 1])  # cluster 0 has n_instances-1 members
    assignment = make_assignment(labels)
    batch = sample_pk_batch(assignment, np.zeros(7, int), BatchSpec(2, 4), rng_seed=3)
    chosen = batch.indices[batch.labels == 0]
    assert len(chosen) == 4
    assert len(set(int(i) for i in chosen)) < 4


def test_insufficient_clusters_raises():
    assignment = make_assignment(np.repeat([0, 1], 4))
    with pytest.raises(SelfReidError, match="2 clusters < 3 identities/batch"):
        sample_pk_batch(assignment, np.zeros(8, int), BatchSpec(3, 2), rng_seed=0)


def test_batch_spec_validation():
    with pytest.raises(SelfReidError):
        BatchSpec(1, 4).validate()
    with pytest.raises(SelfReidError):
        BatchSpec(8, 1).validate()


def test_batches_deterministic_given_seed():
    assignment, cameras = eight_cluster_assignment()
    a = sample_pk_batch(assignment, cameras, BatchSpec(8, 4), rng_seed=(1, 2, 3))
    b = sample_pk_batch(assignment, cameras, BatchSpec(8, 4), rng_seed=(1, 2, 3))
    np.testing.assert_array_equal(a.indices, b.indices)


def test_seeds_produce_distinct_batches():
    assignment, cameras = eight_cluster_assignment(per_cluster=10)
    seen = {tuple(sample_pk_batch(assignment, cameras, BatchSpec(8, 4), s).indices)
            for s in range(100)}
    assert len(seen) >= 99


def choice_over_members(assignment, spec, rng_seed):
    """sample_pk_batch's indices as first written: rng.choice over each
    chosen cluster's member array."""
    rng = np.random.default_rng(rng_seed)
    chosen = rng.choice(assignment.cluster_count, size=spec.n_identities, replace=False)
    members = [assignment.members_of(int(label)) for label in chosen]
    return np.concatenate([
        rng.choice(m, size=spec.n_instances, replace=m.size < spec.n_instances)
        for m in members])


def test_member_draws_match_choice_over_the_member_array():
    # clusters of 1 to 7 members, interleaved, drawn with and without
    # replacement; each draw also leaves the generator where the next
    # cluster's draw expects it
    labels = np.random.default_rng(0).permutation(np.repeat(np.arange(7), np.arange(1, 8)))
    assignment = make_assignment(labels)
    cameras = np.zeros(len(labels), dtype=np.int64)
    for spec in (BatchSpec(7, 4), BatchSpec(3, 2), BatchSpec(2, 7)):
        for seed in range(200):
            batch = sample_pk_batch(assignment, cameras, spec, seed)
            np.testing.assert_array_equal(batch.indices,
                                          choice_over_members(assignment, spec, seed))


# --- perturbation ------------------------------------------------------------

def two_camera_styles(feats):
    """Camera ids alternating 0, 1 over the rows, and their estimated offsets."""
    cameras = np.arange(len(feats)) % 2
    return {"cameras": cameras, "camera_offsets": estimate_camera_offsets(feats, cameras)}


def test_zero_config_is_identity():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(6, 10))
    out = perturb(feats, PerturbationConfig(0.0, 0.0, 0.0), step_seeds=[5],
                  **two_camera_styles(feats))
    np.testing.assert_array_equal(out, feats)


def test_dropout_zeroes_exact_count():
    rng = np.random.default_rng(1)
    feats = rng.uniform(0.5, 1.0, size=(5, 64))  # strictly nonzero input
    out = perturb(feats, PerturbationConfig(0.0, 0.25, 0.0), step_seeds=[6],
                  **two_camera_styles(feats))
    for row in out:
        assert int(np.sum(row == 0.0)) == 16


def test_perturb_deterministic():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(8, 32))
    config = PerturbationConfig(0.1, 0.15, 0.5, 0.3)
    a = perturb(feats, config, step_seeds=[(9, 9)], **two_camera_styles(feats))
    b = perturb(feats, config, step_seeds=[(9, 9)], **two_camera_styles(feats))
    np.testing.assert_array_equal(a, b)


def test_perturb_changes_input():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(8, 32))
    out = perturb(feats, PerturbationConfig(0.1, 0.15, 0.5, 0.3), step_seeds=[10],
                  **two_camera_styles(feats))
    assert not np.array_equal(out, feats)


@pytest.mark.parametrize("n_cams", [1, 4])
@pytest.mark.parametrize("steps", [1, 3, 8])
@pytest.mark.parametrize("noise, dropout, restyle", itertools.product([0.0, 0.1], [0.0, 0.15],
                                                                      [0.0, 0.5]))
def test_many_step_perturb_is_each_steps_one_seed_perturb_stacked(steps, n_cams, noise,
                                                                  dropout, restyle):
    rng = np.random.default_rng(steps)
    feats = rng.normal(size=(steps * 32, 64))
    cameras = np.arange(len(feats)) % n_cams
    offsets = estimate_camera_offsets(feats, cameras)
    config = PerturbationConfig(noise, dropout, restyle, restyle_scale=0.7)
    seeds = [[3, 1, step, 2] for step in range(steps)]
    out = perturb(feats, config, seeds, cameras, offsets)
    expected = [perturb_oracle(feats[rows], config, seed, cameras[rows], offsets)
                for seed, rows in zip(seeds, np.split(np.arange(len(feats)), steps))]
    np.testing.assert_array_equal(out, np.concatenate(expected))


@pytest.mark.parametrize("rows, steps", [(10, 3), (4, 0)])
def test_perturb_rejects_rows_that_do_not_split_into_the_steps(rows, steps):
    feats = np.random.default_rng(0).normal(size=(rows, 8))
    with pytest.raises(SelfReidError, match=f"^{rows} rows do not split into {steps} equal "
                                            f"step batches$"):
        perturb(feats, PerturbationConfig(), list(range(steps)), **two_camera_styles(feats))


GRID = SyntheticSpec(n_identities=5, n_cameras=4, samples_per_cell=3, dim=16)


def test_camera_offsets_are_camera_means_minus_the_global_mean():
    train_split = generate_synthetic(GRID)[0]
    # rows run identity-major, then camera, then sample within the cell
    cells = train_split.features.reshape(GRID.n_identities, GRID.n_cameras,
                                         GRID.samples_per_cell, GRID.dim)
    camera_means = cells.mean(axis=(0, 2))
    offsets = estimate_camera_offsets(train_split.features, train_split.cameras)
    np.testing.assert_allclose(offsets, camera_means - cells.mean(axis=(0, 1, 2)),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("prob", [0.5, 1.0])
def test_restyle_moves_a_row_to_another_cameras_style(prob):
    train_split = generate_synthetic(GRID)[0]
    features, cameras = train_split.features, train_split.cameras
    offsets = estimate_camera_offsets(features, cameras)
    out = perturb(features, PerturbationConfig(noise_sigma=0.0, dropout=0.0, restyle_prob=prob),
                  step_seeds=[11], cameras=cameras, camera_offsets=offsets)
    # a row that is not restyled does not move at all
    moved = np.flatnonzero(np.any(out != features, axis=1))
    if prob == 1.0:
        assert len(moved) == len(features)
    else:
        assert 0 < len(moved) < len(features)
    for row in moved:
        own = cameras[row]
        targets = [c for c in range(GRID.n_cameras)
                   if np.array_equal(out[row], features[row] + (offsets[c] - offsets[own]))]
        assert len(targets) == 1 and targets[0] != own, row


@pytest.mark.parametrize("noise_sigma, dropout", [(0.0, 0.0), (0.1, 0.25)])
def test_restyle_with_a_single_camera_leaves_rows_unmoved(noise_sigma, dropout):
    # there is no other camera's style to move to
    feats = np.random.default_rng(6).normal(size=(6, 12))
    cameras = np.zeros(6, dtype=np.int64)
    offsets = estimate_camera_offsets(feats, cameras)
    out = perturb(feats, PerturbationConfig(noise_sigma, dropout, restyle_prob=1.0),
                  step_seeds=[12], cameras=cameras, camera_offsets=offsets)
    no_restyle = perturb(feats, PerturbationConfig(noise_sigma, dropout, restyle_prob=0.0),
                         step_seeds=[12], cameras=cameras, camera_offsets=offsets)
    np.testing.assert_array_equal(out, no_restyle)
    if noise_sigma == dropout == 0.0:
        np.testing.assert_array_equal(out, feats)


def test_perturb_config_validation():
    with pytest.raises(SelfReidError):
        PerturbationConfig(noise_sigma=-0.1).validate()
    with pytest.raises(SelfReidError):
        PerturbationConfig(dropout=1.0).validate()
    with pytest.raises(SelfReidError):
        PerturbationConfig(restyle_prob=1.5).validate()


def test_member_index_equals_flatnonzero():
    rng = np.random.default_rng(4)
    labels = rng.integers(OUTLIER, 9, size=200)
    assignment = ClusterAssignment(labels=labels, cluster_count=10)  # cluster 9 is empty
    for cluster in range(assignment.cluster_count):
        members = assignment.members_of(cluster)
        np.testing.assert_array_equal(members, np.flatnonzero(labels == cluster))
        assert members.dtype == np.flatnonzero(labels == cluster).dtype


@pytest.mark.parametrize("d, dropout", [(64, 0.15), (40, 0.15), (7, 0.5), (5, 0.9)])
def test_dropout_without_restyle_zeroes_rounded_count_per_row(d, dropout):
    rng = np.random.default_rng(5)
    feats = rng.uniform(0.5, 1.0, size=(50, d))  # strictly nonzero input
    config = PerturbationConfig(noise_sigma=0.1, dropout=dropout, restyle_prob=0.0)
    styles = two_camera_styles(feats)
    out = perturb(feats, config, step_seeds=[(7, 1)], **styles)
    np.testing.assert_array_equal(np.sum(out == 0.0, axis=1), round(dropout * d))
    np.testing.assert_array_equal(out, perturb(feats, config, step_seeds=[(7, 1)], **styles))
    assert not np.array_equal(out, perturb(feats, config, step_seeds=[(7, 2)], **styles))


def test_dropout_hits_every_coordinate_at_the_dropout_rate():
    # 6 of 40 coordinates per row: each coordinate's rate should be 0.15
    feats = np.ones((4000, 40))
    out = perturb(feats, PerturbationConfig(0.0, 0.15, 0.0), step_seeds=[8],
                  **two_camera_styles(feats))
    rate = np.mean(out == 0.0, axis=0)
    assert np.abs(rate - 0.15).max() < 0.03  # about 5 standard errors
