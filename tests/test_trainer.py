import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from selfreid.data import UNKNOWN_IDENTITY, EmbeddingDataset, SyntheticSpec, generate_synthetic
from selfreid.encoder import PARAM_FIELDS, backward, forward, init_params, load_checkpoint
from selfreid.errors import SelfReidError
from selfreid.linalg import normalize_rows
from selfreid.losses import LossWeights, Temperatures
from selfreid.proxies import build_proxies
from selfreid.rerank import ClusterAssignment, ClusterConfig
from selfreid.reporting import config_from_dict
from selfreid.sampling import BatchSpec, PerturbationConfig
from selfreid import trainer
from selfreid.trainer import (
    AGNOSTIC,
    AWARE,
    TrainConfig,
    check_run,
    init_state,
    run_epoch,
    train,
)

from oracles import finite_difference, max_rel_err, run_epoch_oracle, traced_peak


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


def test_kl_diagnostic_reuses_the_kl_loss(small_train, monkeypatch):
    monkeypatch.setattr(trainer, "kl_value", None)  # fails if a step computes KL again
    _, reports = train(TrainConfig(epochs=1, iterations=3), small_train)
    assert reports[0].mean_kl == reports[0].mean_soft > 0


def test_a_diverging_step_names_its_epoch_iteration_and_temperature(small_train):
    # numpy's floating-point warnings are errors under this suite's settings, so a
    # step that warned would fail with a RuntimeWarning instead
    config = TrainConfig(epochs=1, iterations=3, temperatures=Temperatures(soft=1e-300))
    with pytest.raises(SelfReidError, match=r"^epoch 0, iteration 0: soft loss is nan; the run "
                                            r"diverged: check the settings not at their "
                                            r"defaults: epochs = 1, iterations = 3, "
                                            r"tau_soft = 1e-300$"):
        train(config, small_train)


def test_a_non_finite_weighted_total_stops_the_run(small_train):
    # each term is finite; lambda_hard * L_hard overflows
    config = TrainConfig(epochs=2, iterations=5, weights=LossWeights(hard=1e308))
    with pytest.raises(SelfReidError, match=r"^epoch 0, iteration 0: total loss is inf; the run "
                                            r"diverged: check the settings not at their "
                                            r"defaults: epochs = 2, iterations = 5, "
                                            r"lambda_hard = 1e\+308$"):
        train(config, small_train)


def test_batch_loss_rejects_non_finite(monkeypatch):
    labels, cameras = np.repeat(np.arange(8), 4), np.tile(np.arange(4), 8)
    feats = normalize_rows(np.random.default_rng(0).normal(size=(32, 6)))
    memory = build_proxies(feats, ClusterAssignment(labels, 8), cameras)
    monkeypatch.setattr(trainer, "hard_instance_loss",
                        lambda feats, *args: (float("nan"), np.zeros_like(feats)))
    with pytest.raises(SelfReidError, match="^hard loss is nan; the run diverged: every "
                                            "setting is at its default$"):
        trainer.batch_loss(TrainConfig(), memory, labels, cameras, feats, feats, feats)


def test_all_outlier_epochs_abort(small_train, monkeypatch):
    # no sample can be a DBSCAN core point, so epoch 0 finds no cluster
    monkeypatch.setattr(trainer, "build_proxies", lambda *args: pytest.fail("proxies built"))
    no_cores = ClusterConfig(min_samples=len(small_train) + 1)
    for iterations in (4, 0):  # the rule holds whatever the step count
        with pytest.raises(SelfReidError, match=(
                rf"^epoch 0: 0 clusters \({len(small_train)} outliers\) < 8 identities per "
                r"batch, so no step can run; change eps, min_samples or k1 for more clusters, "
                r"or lower n_identities$")):
            train(TrainConfig(epochs=3, iterations=iterations, cluster=no_cores), small_train)


def test_train_is_run_epoch_in_a_loop():
    train_split, query, gallery = generate_synthetic(SyntheticSpec(n_identities=10))
    config = TrainConfig(epochs=3, iterations=4, eval_every=2)
    pair, reports = train(config, train_split, query=query, gallery=gallery)
    state = init_state(config, train_split, query, gallery)
    looped = [run_epoch(state) for _ in range(config.epochs)]
    assert looped == state.reports
    assert [r.evaluation is not None for r in looped] == [False, True, True]
    assert without_wall_time(looped) == without_wall_time(reports)
    np.testing.assert_array_equal(state.pair.momentum.w1, pair.momentum.w1)


def test_a_run_that_fails_after_training_keeps_its_checkpoints(tmp_path, monkeypatch):
    train_split, query, gallery = generate_synthetic(SyntheticSpec(n_identities=10))
    config = TrainConfig(epochs=4, iterations=3, checkpoint_every=1, eval_every=1)
    pair, reports = train(dataclasses.replace(config, epochs=2), train_split, query, gallery)
    assert [r.cluster_count for r in reports] == [17, 17]
    # epochs 0 and 1 cluster the bank as before; epoch 2 finds 3 clusters
    generate = trainer.generate_pseudo_labels
    script = iter([generate, generate, lambda bank, config: ClusterAssignment(
        np.arange(len(bank)) % 3, 3)])
    monkeypatch.setattr(trainer, "generate_pseudo_labels",
                        lambda bank, config: next(script)(bank, config))
    with pytest.raises(SelfReidError, match=r"^epoch 2: 3 clusters < 8 identities per batch, "):
        train(config, train_split, query=query, gallery=gallery, checkpoint_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "checkpoint_epoch000.npz", "checkpoint_epoch001.npz"]
    # the trained epochs are those of an uninterrupted two-epoch run
    np.testing.assert_array_equal(load_checkpoint(tmp_path / "checkpoint_epoch001.npz")[0]
                                  .momentum.flat, pair.momentum.flat)


@pytest.mark.parametrize("given, missing", [("query", "gallery"), ("gallery", "query")])
def test_train_rejects_query_or_gallery_alone_before_the_first_epoch(given, missing,
                                                                     monkeypatch):
    splits = dict(zip(("train", "query", "gallery"),
                      generate_synthetic(SyntheticSpec(n_identities=6))))
    monkeypatch.setattr(trainer, "run_epoch", lambda *args: pytest.fail("an epoch ran"))
    message = f"^a {given} split is given without a {missing} split; evaluation needs both$"
    with pytest.raises(SelfReidError, match=message):
        train(TrainConfig(epochs=1, iterations=1), splits["train"], **{given: splits[given]})
    with pytest.raises(SelfReidError, match=message):
        init_state(TrainConfig(epochs=1, iterations=1), splits["train"], **{given: splits[given]})


def only_camera_zero(split):
    rows = split.cameras == 0
    return EmbeddingDataset(split.sample_ids[rows], split.identities[rows], split.cameras[rows],
                            split.features[rows])


def unknown_identities(split):
    return dataclasses.replace(split, identities=np.full_like(split.identities, UNKNOWN_IDENTITY))


def other_width(split):
    return dataclasses.replace(split, features=split.features[:, :10])


def non_finite(split):
    features = split.features.copy()
    features[5, 1] = np.inf
    return dataclasses.replace(split, features=features)


@pytest.mark.parametrize("train_fault, query_fault, gallery_fault, message", [
    (None, unknown_identities, None,
     "^query: 24 of 24 records have unknown identity \\?; evaluation needs known identities$"),
    (None, other_width, None,
     "^the encoder trained on training data takes 64-d inputs, but query has dim 10$"),
    (None, None, other_width,
     "^the encoder trained on training data takes 64-d inputs, but gallery has dim 10$"),
    (None, only_camera_zero, only_camera_zero,
     "^no query in query has a record of its identity from another camera in gallery; "
     "evaluation needs one$"),
    # every split's own rule (EmbeddingDataset.validate) before the rules across splits
    (None, other_width, non_finite, "^gallery: row 5: feature 1 is inf, not a finite number$"),
    (unknown_identities, None, None,
     "^training data: 192 of 192 records have unknown identity \\?; labels_mode = oracle "
     "trains on the identities as pseudo labels, so every one must be known$"),
], ids=["unknown-query", "narrow-query", "narrow-gallery", "no-cross-camera-match",
        "narrow-query-non-finite-gallery", "oracle-unknown-train"])
def test_train_checks_query_and_gallery_before_the_first_epoch(train_fault, query_fault,
                                                               gallery_fault, message,
                                                               monkeypatch):
    splits = generate_synthetic(SyntheticSpec(n_identities=6))
    train_split, query, gallery = (fault(split) if fault else split for fault, split
                                   in zip((train_fault, query_fault, gallery_fault), splits))
    # oracle labels, so the training identities are checked too
    config = TrainConfig(epochs=3, iterations=1, labels_mode="oracle")
    monkeypatch.setattr(trainer, "run_epoch", lambda *args: pytest.fail("an epoch ran"))
    with pytest.raises(SelfReidError, match=message):
        train(config, train_split, query=query, gallery=gallery)
    # init_state starts a run of run_epoch calls too (test_train_is_run_epoch_in_a_loop)
    with pytest.raises(SelfReidError, match=message):
        init_state(config, train_split, query, gallery)


# A fault in a split's records -> the message after "<split name>: ", for a split of n rows.
SPLIT_FAULTS = {
    "features-1d": (lambda s: dataclasses.replace(s, features=s.features[:, 0]),
                    "features must be 2-D (records x dims), got shape ({n},)"),
    "features-3d": (lambda s: dataclasses.replace(s, features=s.features[..., None]),
                    "features must be 2-D (records x dims), got shape ({n}, 64, 1)"),
    "cameras-short": (lambda s: dataclasses.replace(s, cameras=s.cameras[:-1]),
                      "cameras must be 1-D with one entry per feature row ({n}), got shape "
                      "({n_short},)"),
    "identities-long": (lambda s: dataclasses.replace(s, identities=np.append(s.identities, 0)),
                        "identities must be 1-D with one entry per feature row ({n}), got shape "
                        "({n_long},)"),
    "cameras-2d": (lambda s: dataclasses.replace(s, cameras=s.cameras[:, None]),
                   "cameras must be 1-D with one entry per feature row ({n}), got shape ({n}, 1)"),
    "sample-ids-short": (lambda s: dataclasses.replace(s, sample_ids=s.sample_ids[:-1]),
                         "sample_ids must be 1-D with one entry per feature row ({n}), got shape "
                         "({n_short},)"),
    "sample-ids-repeated": (lambda s: dataclasses.replace(s, sample_ids=s.sample_ids * 0),
                            "sample ids are not unique"),
    "cameras-not-dense": (lambda s: dataclasses.replace(s, cameras=s.cameras + 1),
                          "camera ids must be dense 0..C-1, got 4 distinct ids from 1 to 4"),
    # the width rule comes after the record rule
    "narrow-and-cameras-short": (lambda s: other_width(dataclasses.replace(
                                     s, cameras=s.cameras[:-1])),
                                 "cameras must be 1-D with one entry per feature row ({n}), got "
                                 "shape ({n_short},)"),
}


@pytest.mark.parametrize("fault", SPLIT_FAULTS)
@pytest.mark.parametrize("name", ["training data", "query", "gallery"])
def test_every_split_passes_validate_before_the_first_epoch(name, fault, monkeypatch):
    splits = dict(zip(("training data", "query", "gallery"),
                      generate_synthetic(SyntheticSpec(n_identities=4))))
    n = len(splits[name])
    spoil, message = SPLIT_FAULTS[fault]
    splits[name] = spoil(splits[name])
    message = f"^{re.escape(f'{name}: ' + message.format(n=n, n_short=n - 1, n_long=n + 1))}$"
    config = TrainConfig(epochs=1, iterations=1, batch=BatchSpec(n_identities=2))
    monkeypatch.setattr(trainer, "run_epoch", lambda *args: pytest.fail("an epoch ran"))
    with pytest.raises(SelfReidError, match=message):
        train(config, *splits.values())
    with pytest.raises(SelfReidError, match=message):
        init_state(config, *splits.values())


@pytest.mark.parametrize("dropout", [0.97, 0.96])
def test_check_run_rejects_a_dropout_that_zeroes_every_input_coordinate(dropout):
    # at dim 16, round(0.97 * 16) = 16 coordinates dropped, round(0.96 * 16) = 15
    dataset = generate_synthetic(SyntheticSpec(n_identities=4, dim=16))[0]
    config = TrainConfig(perturbation=PerturbationConfig(dropout=dropout))
    if dropout == 0.96:
        check_run(config, dataset)
        return
    with pytest.raises(SelfReidError, match=r"^dropout = 0.97 zeroes all 16 input coordinates "
                                            r"of training data; need round\(dropout \* 16\) "
                                            r"< 16$"):
        check_run(config, dataset)


def test_train_stops_at_check_run(small_train, monkeypatch):
    def refuse(*args):
        raise SelfReidError("refused by check_run")

    monkeypatch.setattr(trainer, "check_run", refuse)
    monkeypatch.setattr(trainer, "run_epoch", lambda *args: pytest.fail("an epoch ran"))
    with pytest.raises(SelfReidError, match="^refused by check_run$"):
        train(TrainConfig(epochs=1, iterations=1), small_train)


def test_fewer_clusters_than_batch_identities_stop_the_run(small_train, monkeypatch):
    # pseudo labels give 17 clusters at every epoch (test_small_run_pinned)
    config = TrainConfig(epochs=2, iterations=6, batch=BatchSpec(n_identities=18))
    # as many clusters as a batch's identities fill it
    _, reports = train(dataclasses.replace(config, batch=BatchSpec(n_identities=17)),
                       small_train)
    assert [r.cluster_count for r in reports] == [17, 17]
    assert all(r.mean_total > 0 for r in reports)
    monkeypatch.setattr(trainer, "build_proxies", lambda *args: pytest.fail("proxies built"))
    for iterations in (6, 0):  # the rule holds whatever the step count
        with pytest.raises(SelfReidError, match=(
                r"^epoch 0: 17 clusters < 18 identities per batch, so no step can run; change "
                r"eps, min_samples or k1 for more clusters, or lower n_identities$")):
            train(dataclasses.replace(config, iterations=iterations), small_train)


def test_oracle_labels_with_fewer_identities_than_a_batch_stop_at_check_run(small_train,
                                                                            monkeypatch):
    # oracle labels make the 10 generated identities every epoch's clusters
    config = TrainConfig(labels_mode="oracle", batch=BatchSpec(n_identities=11))
    check_run(dataclasses.replace(config, batch=BatchSpec(n_identities=10)), small_train)
    monkeypatch.setattr(trainer, "run_epoch", lambda *args: pytest.fail("an epoch ran"))
    with pytest.raises(SelfReidError, match=(
            r"^training data holds 10 identities < 11 identities per batch, and labels_mode = "
            r"oracle trains on them as its clusters; lower n_identities$")):
        train(config, small_train)


@pytest.mark.parametrize("name", ["training data", "query", "gallery"])
def test_a_non_finite_feature_in_any_split_stops_at_check_run(monkeypatch, name):
    splits = dict(zip(("training data", "query", "gallery"),
                      generate_synthetic(SyntheticSpec(n_identities=4))))
    splits[name].features[3, 2] = np.nan
    monkeypatch.setattr(trainer, "run_epoch", lambda *args: pytest.fail("an epoch ran"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RuntimeWarnings included
        with pytest.raises(SelfReidError, match=(
                f"^{name}: row 3: feature 2 is nan, not a finite number$")):
            train(TrainConfig(), *splits.values())


@pytest.mark.parametrize("mode", [AWARE, AGNOSTIC])
@pytest.mark.parametrize("iterations", [0, 1, 7, 8, 9, 17])
def test_chunked_epochs_equal_the_per_step_loop(small_train, mode, iterations):
    # iteration counts below, at and across the plan's chunk boundaries
    config = TrainConfig(epochs=2, iterations=iterations, memory_mode=mode,
                         labels_mode="oracle")
    state, reference = init_state(config, small_train), init_state(config, small_train)
    for _ in range(config.epochs):
        run_epoch(state)
        run_epoch_oracle(reference)
    assert without_wall_time(state.reports) == reference.reports
    assert state.opt.step == reference.opt.step == config.epochs * iterations
    for got, want in ((state.pair.online, reference.pair.online),
                      (state.pair.momentum, reference.pair.momentum),
                      (state.opt.m, reference.opt.m), (state.opt.v, reference.opt.v)):
        np.testing.assert_array_equal(got.flat, want.flat)


def test_integer_features_train_as_their_float64_values(small_train):
    # the chunk's rows are augmented in place, so they must be gathered as floats
    counts = dataclasses.replace(small_train,
                                 features=np.round(small_train.features * 100).astype(np.int64))
    floats = dataclasses.replace(counts, features=counts.features.astype(np.float64))
    config = TrainConfig(epochs=2, iterations=9, labels_mode="oracle")
    _, got = train(config, counts)
    _, want = train(config, floats)
    assert without_wall_time(got) == without_wall_time(want)
    assert [r.skipped_iterations for r in got] == [0, 0]


def test_an_epoch_holds_one_chunk_of_its_plan_at_a_time(small_train):
    def epoch_peak(iterations):
        state = init_state(TrainConfig(iterations=iterations, labels_mode="oracle"), small_train)
        return traced_peak(run_epoch, state)[0]

    spec = TrainConfig().batch
    # the stacked perturbed and clean float64 rows of one chunk of 8 steps;
    # a plan of all 160 steps would hold 20 times as much
    chunk_bytes = 8 * 2 * spec.n_identities * spec.n_instances * small_train.dim * 8
    assert epoch_peak(160) - epoch_peak(16) < chunk_bytes


@pytest.mark.parametrize("labels_mode", ["pseudo", "oracle"])
def test_the_trainer_builds_what_the_step_kernels_trust(small_train, monkeypatch, labels_mode):
    # The step's kernels check none of these (see their docstrings): the
    # trainer's epochs must meet them on every call, across two chunks.
    built = []  # each epoch's cluster count

    def build_proxies(bank, assignment, cameras):
        assert bank.dtype == np.float64 and bank.shape[0] == len(cameras)
        # every cluster id of 0..cluster_count-1 has a member
        inliers = assignment.labels[assignment.labels >= 0]
        np.testing.assert_array_equal(np.unique(inliers), np.arange(assignment.cluster_count))
        built.append(assignment.cluster_count)

    def labelled(feats, labels):
        assert feats.dtype == np.float64 and labels.dtype == np.int64
        assert labels.shape == feats.shape[:1]
        assert 0 <= labels.min() and labels.max() < built[-1]
        assert len(np.unique(labels)) >= 2

    def proxy_agnostic_loss(feats, labels, proxy_vectors, tau):
        labelled(feats, labels)
        assert len(proxy_vectors) == built[-1]

    def cross_camera_loss_batch(feats, cameras, labels, memory, tau, n_neg):
        labelled(feats, labels)
        assert cameras.shape == labels.shape

    def hard_instance_loss(feats, momentum, labels, tau):
        labelled(feats, labels)
        assert momentum.shape == feats.shape

    def soft_consistency_loss(feats, momentum_aug, momentum_clean, tau):
        assert feats.shape == momentum_aug.shape == momentum_clean.shape
        assert {a.dtype for a in (feats, momentum_aug, momentum_clean)} == {np.dtype(np.float64)}

    def perturb(features, config, step_seeds, cameras, camera_offsets):
        assert features.dtype == np.float64 and len(step_seeds) == len(features)
        assert cameras.shape == features.shape[:2]

    def backward(params, fwd, output_gradient):
        assert output_gradient.dtype == np.float64 and output_gradient.shape == fwd.out.shape

    checks = (build_proxies, proxy_agnostic_loss, cross_camera_loss_batch, hard_instance_loss,
              soft_consistency_loss, perturb, backward)
    calls = dict.fromkeys((check.__name__ for check in checks), 0)

    def checked(check, kernel):
        def call(*args):
            check(*args)
            calls[check.__name__] += 1
            return kernel(*args)
        return call

    for check in checks:
        monkeypatch.setattr(trainer, check.__name__,
                            checked(check, getattr(trainer, check.__name__)))
    train(TrainConfig(epochs=2, iterations=9, labels_mode=labels_mode), small_train)
    # an epoch's 9 steps are two chunks, of 8 steps and of 1
    assert calls == {"build_proxies": 2, "proxy_agnostic_loss": 18,
                     "cross_camera_loss_batch": 18, "hard_instance_loss": 18,
                     "soft_consistency_loss": 18, "perturb": 4, "backward": 18}


@pytest.mark.parametrize("key, value", [
    ("memory_mode", "bogus"),
    ("n_neg", 0),
    ("hard_negatives", "bogus"),
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
    ("noise_sigma", float("nan")),
    *((key, float("inf")) for key in ("base_lr", "weight_decay", "lambda_hard", "lambda_soft",
                                      "tau_agnostic", "tau_cross", "tau_hard", "tau_soft",
                                      "noise_sigma")),
    ("warmup_epochs", -1),
    ("checkpoint_every", -1),
    ("eval_every", -5),
])
def test_config_rejects_invalid_field(key, value):
    with pytest.raises(SelfReidError, match=key):
        config_from_dict({key: value}).validate()


def test_warmup_epochs_zero_is_valid():
    config = config_from_dict({"warmup_epochs": 0})
    config.validate()
    assert config.warmup_epochs == 0


@pytest.mark.parametrize("mode", [AWARE, AGNOSTIC])
def test_step_gradient_matches_finite_differences(mode):
    """The loss a training step minimises (batch_loss), backpropagated
    through the online encoder, against finite differences of its total;
    momentum outputs and proxies held fixed."""
    cfg = TrainConfig(memory_mode=mode)
    rng = np.random.default_rng(7)
    params = init_params(5, 4, 3, rng)
    inputs = rng.normal(size=(8, 5))
    labels, cameras = np.repeat(np.arange(4), 2), rng.integers(0, 3, size=8)
    bank_labels = np.repeat(np.arange(5), 3)
    memory = build_proxies(normalize_rows(rng.normal(size=(15, 3))),
                           ClusterAssignment(bank_labels, 5), np.tile(np.arange(3), 5))
    momentum_aug = normalize_rows(rng.normal(size=(8, 3)))
    momentum_clean = normalize_rows(rng.normal(size=(8, 3)))

    def step_loss(feats):
        return trainer.batch_loss(cfg, memory, labels, cameras, feats, momentum_aug,
                                  momentum_clean)

    fwd = forward(params, inputs)
    breakdown = step_loss(fwd.out)
    assert (breakdown.cross != 0.0) == (mode == AWARE)
    analytic = backward(params, fwd, breakdown.grads)
    for name in PARAM_FIELDS:
        fd = finite_difference(lambda _: step_loss(forward(params, inputs).out).total,
                               getattr(params, name))
        assert max_rel_err(getattr(analytic, name), fd) < 1e-5, name


@pytest.mark.parametrize("flags, runs, identical", [
    ([], 1, True), (["--set", "lambda_soft=0"], 1, False), (["--train-seeds", "0-1"], 2, True),
], ids=["same-src", "lambda_soft=0", "train-seeds"])
def test_quality_differential_tool(monkeypatch, capsys, flags, runs, identical):
    # tests/quality_differential.py, which pytest does not collect, on one
    # small spec and one split seed, against a second copy of this same src
    import quality_differential

    monkeypatch.setattr(quality_differential, "SPECS",
                        {"tiny": ({"n_identities": 10}, {"epochs": 2})})
    src = Path(trainer.__file__).resolve().parent.parent
    assert quality_differential.main(["--seeds", "0", "--other-src", str(src), *flags]) == 0
    out = capsys.readouterr().out
    lines = sum(len(path.read_text().splitlines()) for path in (src / "selfreid").glob("*.py"))
    override = ", lambda_soft=0" if "--set" in flags else ""
    assert out.startswith(f"this src ({lines} lines) -> {src} ({lines} lines){override}; ")
    assert f"varied: the split seed (SyntheticSpec.seed) over 0-0 and the training seed " \
        f"(TrainConfig.seed) over 0-{runs - 1}\n" in out
    assert [line.split(":")[0] for line in out.splitlines()[1:runs + 1]] == \
        [f"tiny split seed 0 training seed {seed}" for seed in range(runs)]
    assert f"runs: {runs}, with byte-identical metrics.csv: {runs * identical}\n" in out
    summary = out.split("difference (other - this): mean, min, max\n")[1].splitlines()
    assert [line.split()[0] for line in summary] == list(quality_differential.COMPARED)
    differences = [float(x) for line in summary for x in line.split()[1:]]
    assert all(d == 0.0 for d in differences) == identical


@pytest.mark.parametrize("other_src", [False, True], ids=["this-src", "other-src"])
def test_quality_differential_checks_every_override_before_training(monkeypatch, capsys,
                                                                    other_src):
    import quality_differential

    src = Path(trainer.__file__).resolve().parent.parent
    flags = ["--other-src", str(src)] if other_src else []
    monkeypatch.setattr(quality_differential, "train_run",
                        lambda *args: pytest.fail("a run trained"))
    with pytest.raises(SystemExit) as exit_info:
        quality_differential.main(["--seeds", "0", *flags, "--set", "restyle_scale=0.5"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: --set: config key restyle_scale = 0.5: that variant was removed; "
        "only restyle_scale = 1.0 remains\n")
