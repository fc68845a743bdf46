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

from oracles import pk_batch_oracle, perturb_oracle


def make_assignment(labels):
    labels = np.asarray(labels, dtype=np.int64)
    count = int(labels.max()) + 1 if np.any(labels != OUTLIER) else 0
    return ClusterAssignment(labels=labels, cluster_count=count)


def eight_cluster_assignment(per_cluster=5):
    return make_assignment(np.repeat(np.arange(8), per_cluster))


def one_batch(assignment, spec, seed):
    """The (indices, labels) of a one-step `sample_pk_batch` draw from `seed`."""
    indices = sample_pk_batch(assignment, spec, [seed])[0]
    return indices, assignment.labels[indices]


def test_batch_shape_and_label_multiset():
    indices, labels = one_batch(eight_cluster_assignment(), BatchSpec(8, 4), seed=0)
    assert len(indices) == 32
    values, counts = np.unique(labels, return_counts=True)
    assert len(values) == 8
    assert np.all(counts == 4)


def test_batch_indices_are_inliers_with_matching_labels():
    labels = np.array([0, 0, 0, 0, OUTLIER, 1, 1, 1, 1, OUTLIER, 2, 2, 2, 2])
    indices, batch_labels = one_batch(make_assignment(labels), BatchSpec(3, 4), seed=1)
    assert np.all(labels[indices] == batch_labels)
    assert np.all(labels[indices] != OUTLIER)


def test_exact_size_cluster_used_fully():
    labels = np.repeat(np.arange(4), 4)
    assignment = make_assignment(labels)
    indices, batch_labels = one_batch(assignment, BatchSpec(4, 4), seed=2)
    for cluster in range(4):
        members = set(np.flatnonzero(labels == cluster))
        chosen = [int(i) for i in indices[batch_labels == cluster]]
        assert set(chosen) == members
        assert len(chosen) == len(set(chosen))


def test_small_cluster_duplicates_an_index():
    labels = np.array([0, 0, 0, 1, 1, 1, 1])  # cluster 0 has n_instances-1 members
    assignment = make_assignment(labels)
    indices, batch_labels = one_batch(assignment, BatchSpec(2, 4), seed=3)
    chosen = indices[batch_labels == 0]
    assert len(chosen) == 4
    assert len(set(int(i) for i in chosen)) < 4


def test_insufficient_clusters_raises():
    assignment = make_assignment(np.repeat([0, 1], 4))
    with pytest.raises(SelfReidError, match="2 clusters < 3 identities/batch"):
        sample_pk_batch(assignment, BatchSpec(3, 2), [0])


def test_batch_spec_validation():
    with pytest.raises(SelfReidError):
        BatchSpec(1, 4).validate()
    with pytest.raises(SelfReidError):
        BatchSpec(8, 1).validate()


def test_batches_deterministic_given_seed():
    assignment = eight_cluster_assignment()
    a, _ = one_batch(assignment, BatchSpec(8, 4), seed=(1, 2, 3))
    b, _ = one_batch(assignment, BatchSpec(8, 4), seed=(1, 2, 3))
    np.testing.assert_array_equal(a, b)


def test_seeds_produce_distinct_batches():
    indices = sample_pk_batch(eight_cluster_assignment(per_cluster=10), BatchSpec(8, 4),
                              range(100))
    seen = {tuple(row) for row in indices}
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
    for spec in (BatchSpec(7, 4), BatchSpec(3, 2), BatchSpec(2, 7)):
        for seed in range(200):
            indices, _ = one_batch(assignment, spec, seed)
            np.testing.assert_array_equal(indices, choice_over_members(assignment, spec, seed))


@pytest.mark.parametrize("steps", [1, 3, 8])
def test_many_step_draw_is_each_steps_one_seed_draw_stacked(steps):
    # clusters of 1 to 7 members, so some are smaller than n_instances
    labels = np.random.default_rng(1).permutation(np.repeat(np.arange(7), np.arange(1, 8)))
    assignment = make_assignment(labels)
    spec = BatchSpec(5, 4)
    seeds = [[3, 1, step, 1] for step in range(steps)]
    indices = sample_pk_batch(assignment, spec, seeds)
    batch_labels = assignment.labels[indices]
    expected = [pk_batch_oracle(assignment, spec, seed) for seed in seeds]
    assert indices.shape == batch_labels.shape == (steps, 20)
    np.testing.assert_array_equal(indices, np.stack([i for i, _ in expected]))
    np.testing.assert_array_equal(batch_labels, np.stack([l for _, l in expected]))


# --- perturbation ------------------------------------------------------------

def perturbed(feats, config, step_seeds, cameras, camera_offsets):
    """`perturb` on a copy of the 2-D `feats`, whose rows are len(step_seeds)
    equal step batches with the given cameras; the copy, 2-D again."""
    out = feats.reshape(len(step_seeds), -1, feats.shape[1]).copy()
    perturb(out, config, step_seeds, np.reshape(cameras, out.shape[:2]), camera_offsets)
    return out.reshape(feats.shape)


def two_camera_styles(feats):
    """Camera ids alternating 0, 1 over the rows, and their estimated offsets."""
    cameras = np.arange(len(feats)) % 2
    return {"cameras": cameras, "camera_offsets": estimate_camera_offsets(feats, cameras)}


def test_zero_config_is_identity():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(6, 10))
    out = perturbed(feats, PerturbationConfig(0.0, 0.0, 0.0), step_seeds=[5],
                    **two_camera_styles(feats))
    np.testing.assert_array_equal(out, feats)


def test_dropout_zeroes_exact_count():
    rng = np.random.default_rng(1)
    feats = rng.uniform(0.5, 1.0, size=(5, 64))  # strictly nonzero input
    out = perturbed(feats, PerturbationConfig(0.0, 0.25, 0.0), step_seeds=[6],
                    **two_camera_styles(feats))
    for row in out:
        assert int(np.sum(row == 0.0)) == 16


def test_perturb_deterministic():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(8, 32))
    config = PerturbationConfig(0.1, 0.15, 0.5, 0.3)
    a = perturbed(feats, config, step_seeds=[(9, 9)], **two_camera_styles(feats))
    b = perturbed(feats, config, step_seeds=[(9, 9)], **two_camera_styles(feats))
    np.testing.assert_array_equal(a, b)


def test_perturb_changes_input():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(8, 32))
    out = perturbed(feats, PerturbationConfig(0.1, 0.15, 0.5, 0.3), step_seeds=[10],
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
    out = perturbed(feats, config, seeds, cameras, offsets)
    expected = [perturb_oracle(feats[rows], config, seed, cameras[rows], offsets)
                for seed, rows in zip(seeds, np.split(np.arange(len(feats)), steps))]
    np.testing.assert_array_equal(out, np.concatenate(expected))


@pytest.mark.parametrize("steps, seeds", [(10, 3), (4, 0), (0, 1)])
def test_perturb_rejects_a_seed_count_other_than_the_step_count(steps, seeds):
    feats = np.random.default_rng(0).normal(size=(steps, 4, 8))
    unchanged = feats.copy()
    cameras = np.zeros((steps, 4), dtype=np.int64)
    with pytest.raises(SelfReidError, match=f"^{seeds} step seeds for {steps} step batches$"):
        perturb(feats, PerturbationConfig(), list(range(seeds)), cameras, np.zeros((2, 8)))
    np.testing.assert_array_equal(feats, unchanged)


def test_perturb_augments_a_view_of_the_stacked_chunk_in_place():
    # plan_steps perturbs the first half of each step's stacked rows
    rng = np.random.default_rng(4)
    chunk = rng.normal(size=(3, 8, 16))
    cameras = rng.integers(0, 4, size=(3, 8))
    offsets = rng.normal(size=(4, 16))
    config, seeds = PerturbationConfig(0.1, 0.15, 0.5), [[5, step] for step in range(3)]
    stacked = np.concatenate((chunk, chunk), axis=1)
    assert perturb(stacked[:, :8], config, seeds, cameras, offsets) is None
    np.testing.assert_array_equal(stacked[:, 8:], chunk)
    for step in range(3):
        np.testing.assert_array_equal(stacked[step, :8], perturb_oracle(
            chunk[step], config, seeds[step], cameras[step], offsets))


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
    out = perturbed(features, PerturbationConfig(noise_sigma=0.0, dropout=0.0,
                                                 restyle_prob=prob),
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
    out = perturbed(feats, PerturbationConfig(noise_sigma, dropout, restyle_prob=1.0),
                    step_seeds=[12], cameras=cameras, camera_offsets=offsets)
    no_restyle = perturbed(feats, PerturbationConfig(noise_sigma, dropout, restyle_prob=0.0),
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
    out = perturbed(feats, config, step_seeds=[(7, 1)], **styles)
    np.testing.assert_array_equal(np.sum(out == 0.0, axis=1), round(dropout * d))
    np.testing.assert_array_equal(out, perturbed(feats, config, step_seeds=[(7, 1)], **styles))
    assert not np.array_equal(out, perturbed(feats, config, step_seeds=[(7, 2)], **styles))


def test_dropout_hits_every_coordinate_at_the_dropout_rate():
    # 6 of 40 coordinates per row: each coordinate's rate should be 0.15
    feats = np.ones((4000, 40))
    out = perturbed(feats, PerturbationConfig(0.0, 0.15, 0.0), step_seeds=[8],
                    **two_camera_styles(feats))
    rate = np.mean(out == 0.0, axis=0)
    assert np.abs(rate - 0.15).max() < 0.03  # about 5 standard errors
