import dataclasses
from pathlib import Path

import numpy as np
import pytest

from selfreid.data import UNKNOWN_IDENTITY, EmbeddingDataset, SyntheticSpec, generate_synthetic
from selfreid.encoder import PARAM_FIELDS, backward, forward, init_params
from selfreid.errors import SelfReidError
from selfreid.linalg import normalize_rows
from selfreid.losses import LossWeights, Temperatures
from selfreid.proxies import build_proxies
from selfreid.rerank import OUTLIER, ClusterAssignment, ClusterConfig
from selfreid.reporting import config_from_dict
from selfreid.sampling import BatchSpec, PerturbationConfig
from selfreid import trainer
from selfreid.trainer import (
    AGNOSTIC,
    AWARE,
    MAX_FAILED_EPOCHS,
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


def warned(record) -> list[str]:
    return [str(w.message) for w in record]


def no_inliers(*epochs) -> list[str]:
    """The warnings of epochs `epochs`, the first of a streak of failed epochs."""
    return [f"epoch {epoch}: clustering found no inliers ({streak} consecutive)"
            for streak, epoch in enumerate(epochs, 1)]


def test_all_outlier_epochs_abort(small_train):
    # no sample can be a DBSCAN core point, so every epoch finds no cluster
    no_cores = ClusterConfig(min_samples=len(small_train) + 1)
    with pytest.warns(UserWarning) as record:
        _, reports = train(TrainConfig(epochs=MAX_FAILED_EPOCHS, iterations=4,
                                       cluster=no_cores), small_train)
    assert warned(record) == no_inliers(*range(MAX_FAILED_EPOCHS))
    assert len(reports) == MAX_FAILED_EPOCHS
    for r in reports:
        assert (r.cluster_count, r.outlier_count) == (0, len(small_train))
        assert r.skipped_iterations == 4
    with pytest.warns(UserWarning) as record, pytest.raises(
            SelfReidError, match=f"no clusters for {MAX_FAILED_EPOCHS + 1} consecutive "
                                 "epochs; check eps/min_samples"):
        train(TrainConfig(epochs=MAX_FAILED_EPOCHS + 1, iterations=4,
                          cluster=no_cores), small_train)
    assert warned(record) == no_inliers(*range(MAX_FAILED_EPOCHS + 1))


def test_zero_cluster_streak_resets_after_an_epoch_with_clusters(small_train, monkeypatch):
    generate = trainer.generate_pseudo_labels
    no_clusters = ClusterAssignment(np.full(len(small_train), OUTLIER), 0)
    script = iter([no_clusters, None, no_clusters, no_clusters, no_clusters])

    def scripted(bank, config):
        assignment = next(script)
        return generate(bank, config) if assignment is None else assignment

    monkeypatch.setattr(trainer, "generate_pseudo_labels", scripted)
    with pytest.warns(UserWarning) as record:
        _, reports = train(TrainConfig(epochs=5, iterations=2), small_train)
    assert warned(record) == no_inliers(0) + no_inliers(2, 3, 4)
    assert [r.cluster_count == 0 for r in reports] == [True, False, True, True, True]
    assert [r.skipped_iterations for r in reports] == [2, 0, 2, 2, 2]


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


def test_epoch_without_clusters_still_evaluates_and_checkpoints(tmp_path):
    train_split, query, gallery = generate_synthetic(SyntheticSpec(n_identities=10))
    config = TrainConfig(epochs=2, iterations=3, cluster=ClusterConfig(min_samples=1000),
                         checkpoint_every=1)
    with pytest.warns(UserWarning) as record:
        _, reports = train(config, train_split, query=query, gallery=gallery,
                           checkpoint_dir=tmp_path)
    assert warned(record) == no_inliers(0, 1)
    assert [r.cluster_count for r in reports] == [0, 0]
    assert reports[0].evaluation is None
    assert 0.0 < reports[-1].evaluation.mean_ap <= 1.0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "checkpoint_epoch000.npz", "checkpoint_epoch001.npz"]


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
    (unknown_identities, None, None,
     "^training data: 192 of 192 records have unknown identity \\?; labels_mode = oracle "
     "trains on the identities as pseudo labels, so every one must be known$"),
], ids=["unknown-query", "narrow-query", "narrow-gallery", "no-cross-camera-match",
        "oracle-unknown-train"])
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


def test_fewer_clusters_than_batch_identities_skips_iterations(small_train, monkeypatch):
    monkeypatch.setattr(trainer, "plan_steps", lambda *args: pytest.fail("a plan was built"))
    # oracle labels give exactly the 10 generated identities
    config = TrainConfig(epochs=2, iterations=6, labels_mode="oracle",
                         batch=BatchSpec(n_identities=11))
    with pytest.warns(UserWarning) as record:
        _, reports = train(config, small_train)
    assert warned(record) == [f"epoch {epoch}: 10 clusters < 11 identities per batch; "
                              f"skipping iterations" for epoch in range(2)]
    for r in reports:
        assert r.cluster_count == 10
        assert r.skipped_iterations == config.iterations
        assert r.mean_total == 0.0


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
    *((key, float("inf")) for key in ("base_lr", "weight_decay", "lambda_hard", "lambda_soft",
                                      "tau_agnostic", "tau_cross", "tau_hard", "tau_soft",
                                      "noise_sigma", "restyle_scale")),
    ("warmup_epochs", -1),
    ("checkpoint_every", -1),
    ("eval_every", -5),
])
def test_config_rejects_invalid_field(key, value):
    with pytest.raises(SelfReidError, match=key):
        config_from_dict({key: value})


def test_warmup_epochs_zero_is_valid():
    assert config_from_dict({"warmup_epochs": 0}).warmup_epochs == 0


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
    assert f"varied: the split seed (SyntheticSpec.seed) over 0-0 and the training seed " \
        f"(TrainConfig.seed) over 0-{runs - 1}\n" in out
    assert [line.split(":")[0] for line in out.splitlines()[1:runs + 1]] == \
        [f"tiny split seed 0 training seed {seed}" for seed in range(runs)]
    assert f"runs: {runs}, with byte-identical metrics.csv: {runs * identical}\n" in out
    summary = out.split("difference (other - this): mean, min, max\n")[1].splitlines()
    assert [line.split()[0] for line in summary] == list(quality_differential.COMPARED)
    differences = [float(x) for line in summary for x in line.split()[1:]]
    assert all(d == 0.0 for d in differences) == identical
