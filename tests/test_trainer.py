import dataclasses

import numpy as np
import pytest

from selfreid.data import SyntheticSpec, generate_synthetic
from selfreid.errors import SelfReidError, TrainingAborted
from selfreid.rerank import ClusterConfig
from selfreid.reporting import config_from_dict
from selfreid.sampling import BatchSpec
from selfreid.trainer import MAX_FAILED_EPOCHS, TrainConfig, train


@pytest.fixture(scope="module")
def small_train():
    return generate_synthetic(SyntheticSpec(n_identities=10))[0]


def without_wall_time(reports):
    return [dataclasses.replace(r, wall_time=0.0) for r in reports]


def test_small_run_pinned(small_train):
    _, reports = train(TrainConfig(epochs=3, iterations=10), small_train)
    assert [r.cluster_count for r in reports] == [17, 17, 17]
    assert [r.skipped_iterations for r in reports] == [0, 0, 0]
    np.testing.assert_allclose(
        [r.mean_cross for r in reports],
        [1.6934219891281088, 1.6389044210739627, 1.3166894338597501], rtol=1e-12)
    np.testing.assert_allclose(
        [r.mean_total for r in reports],
        [10.336221603320622, 10.080364649819382, 9.354620872283485], rtol=1e-12)


def test_same_seed_gives_identical_reports(small_train):
    config = TrainConfig(epochs=2, iterations=5, seed=3)
    _, first = train(config, small_train)
    _, second = train(config, small_train)
    assert without_wall_time(first) == without_wall_time(second)


def test_all_outlier_epochs_abort(small_train):
    # no sample can be a DBSCAN core point, so every epoch finds no cluster
    no_cores = ClusterConfig(min_samples=len(small_train) + 1)
    _, reports = train(TrainConfig(epochs=MAX_FAILED_EPOCHS, iterations=4,
                                   cluster=no_cores), small_train)
    assert len(reports) == MAX_FAILED_EPOCHS
    for r in reports:
        assert (r.cluster_count, r.outlier_count) == (0, len(small_train))
        assert r.skipped_iterations == 4
    with pytest.raises(TrainingAborted, match=f"{MAX_FAILED_EPOCHS + 1} consecutive"):
        train(TrainConfig(epochs=MAX_FAILED_EPOCHS + 1, iterations=4,
                          cluster=no_cores), small_train)


def test_fewer_clusters_than_batch_identities_skips_iterations(small_train):
    # oracle labels give exactly the 10 generated identities
    config = TrainConfig(epochs=2, iterations=6, labels_mode="oracle",
                         batch=BatchSpec(n_identities=11))
    _, reports = train(config, small_train)
    for r in reports:
        assert r.cluster_count == 10
        assert r.skipped_iterations == config.iterations
        assert r.mean_total == 0.0


@pytest.mark.parametrize("key, value", [
    ("memory_mode", "bogus"),
    ("n_neg", 0),
    ("hard_negatives", "bogus"),
    ("hidden_dim", 0),
    ("out_dim", 0),
    ("alpha", -0.1),
    ("alpha", 1.5),
])
def test_config_rejects_invalid_field(key, value):
    with pytest.raises(SelfReidError, match=key):
        config_from_dict({key: value})
