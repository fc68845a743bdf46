import dataclasses

import numpy as np
import pytest

from selfreid.data import SyntheticSpec, generate_synthetic
from selfreid.encoder import PARAM_FIELDS, backward, forward, init_params
from selfreid.errors import SelfReidError, TrainingAborted
from selfreid.linalg import normalize_rows
from selfreid.losses import (
    consistency_distributions,
    cross_camera_loss_batch,
    hard_instance_loss,
    proxy_agnostic_loss,
    soft_consistency_loss,
    total_loss,
)
from selfreid.proxies import build_proxies
from selfreid.rerank import ClusterAssignment, ClusterConfig
from selfreid.reporting import config_from_dict
from selfreid.sampling import BatchSpec
from selfreid import trainer
from selfreid.trainer import (
    AGNOSTIC,
    AWARE,
    CONSISTENCY_VARIANTS,
    MAX_FAILED_EPOCHS,
    TrainConfig,
    train,
)

from oracles import finite_difference, max_rel_err


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
        [1.6877644371006855, 1.5962615099365673, 1.2331305216855177], rtol=1e-12)
    np.testing.assert_allclose(
        [r.mean_total for r in reports],
        [9.769929344995997, 9.675134066290067, 9.24366388847397], rtol=1e-12)


def test_same_seed_gives_identical_reports(small_train):
    config = TrainConfig(epochs=2, iterations=5, seed=3)
    _, first = train(config, small_train)
    _, second = train(config, small_train)
    assert without_wall_time(first) == without_wall_time(second)


@pytest.mark.parametrize("variant", sorted(CONSISTENCY_VARIANTS))
def test_kl_diagnostic_reuses_the_kl_loss(small_train, monkeypatch, variant):
    calls = []
    kl_value = trainer.kl_value
    monkeypatch.setattr(trainer, "kl_value", lambda dists: calls.append(1) or kl_value(dists))
    _, reports = train(TrainConfig(epochs=1, iterations=3, consistency_variant=variant),
                       small_train)
    if CONSISTENCY_VARIANTS[variant][1] == "kl":
        assert not calls and reports[0].mean_kl == reports[0].mean_soft
    else:
        assert len(calls) == 3 and reports[0].mean_kl != reports[0].mean_soft


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
    ("alpha", float("nan")),
    ("tau_agnostic", float("nan")),
    ("tau_cross", float("nan")),
    ("tau_hard", float("nan")),
    ("tau_soft", float("nan")),
    ("lambda_hard", float("nan")),
    ("lambda_soft", float("nan")),
    ("base_lr", float("nan")),
    ("base_lr", -1.0),
    ("weight_decay", float("nan")),
    ("weight_decay", -0.1),
    ("restyle_scale", float("nan")),
    ("restyle_scale", -1.0),
    ("noise_sigma", float("nan")),
    ("warmup_epochs", -1),
])
def test_config_rejects_invalid_field(key, value):
    with pytest.raises(SelfReidError, match=key):
        config_from_dict({key: value})


def test_warmup_epochs_zero_is_valid():
    assert config_from_dict({"warmup_epochs": 0}).warmup_epochs == 0


@pytest.mark.parametrize("mode", [AWARE, AGNOSTIC])
def test_step_gradient_matches_finite_differences(mode):
    """The loss a training step minimises, assembled as train_iteration does
    it, backpropagated through the online encoder, against finite
    differences of its total; momentum outputs and proxies held fixed."""
    cfg = TrainConfig(memory_mode=mode)
    rng = np.random.default_rng(7)
    params = init_params(5, 4, 3, rng)
    batch = rng.normal(size=(8, 5))
    labels = np.repeat(np.arange(4), 2)
    cameras = rng.integers(0, 3, size=8)
    bank_labels = np.repeat(np.arange(5), 3)
    memory = build_proxies(normalize_rows(rng.normal(size=(15, 3))),
                           ClusterAssignment(bank_labels, 5), np.tile(np.arange(3), 5))
    momentum_aug = normalize_rows(rng.normal(size=(8, 3)))
    momentum_clean = normalize_rows(rng.normal(size=(8, 3)))
    tau = cfg.temperatures
    targets, divergence = CONSISTENCY_VARIANTS[cfg.consistency_variant]

    def step_loss(feats):
        agnostic = proxy_agnostic_loss(feats, labels, memory.cluster_vectors, tau.agnostic)
        if mode == AWARE:
            cross = cross_camera_loss_batch(feats, cameras, labels, memory, tau.cross,
                                            cfg.n_neg)
        else:
            cross = (0.0, np.zeros_like(feats))
        hard = hard_instance_loss(feats, momentum_aug, labels, tau.hard, cfg.hard_negatives)
        dists = consistency_distributions(feats, momentum_aug, momentum_clean, tau.soft,
                                          targets=targets)
        return total_loss(agnostic, cross, hard,
                          soft_consistency_loss(dists, divergence=divergence), cfg.weights)

    fwd = forward(params, batch)
    breakdown = step_loss(fwd.out)
    assert (breakdown.cross != 0.0) == (mode == AWARE)
    analytic = backward(params, fwd, breakdown.grads)
    for name in PARAM_FIELDS:
        fd = finite_difference(lambda _: step_loss(forward(params, batch).out).total,
                               getattr(params, name))
        assert max_rel_err(getattr(analytic, name), fd) < 1e-5, name
