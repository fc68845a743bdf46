"""Tests of the benchmark's own helpers on hand-made inputs.

Run from the repository root with `python3 -m pytest bench -q`.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import quality
import reference
import spans
from spans import Span


def test_self_time_of_nested_spans():
    recorded = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
        Span("leaf", 7.0, 9.0, 0),
    ]
    stats = spans.summarize(recorded)
    assert stats["root"].total == 10.0
    assert stats["root"].self_time == 10.0 - 3.0 - 1.0 - 2.0
    assert stats["a"].self_time == 2.0
    assert stats["b"].self_time == 1.0
    assert stats["leaf"].total == 3.0
    assert stats["leaf"].self_time == 3.0
    assert stats["leaf"].durations == [1.0, 2.0]


def test_tracer_records_parents_in_call_order():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            assert tracer.open_name() == "inner"
        with tracer.span("inner"):
            pass
    with tracer.span("next"):
        pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0), ("next", -1)]
    assert all(s.end >= s.start for s in tracer.spans)
    stats = spans.summarize(tracer.spans)
    assert 0.0 <= stats["outer"].self_time <= stats["outer"].total


def test_pairwise_precision_recall_counts_outliers_as_missed():
    labels = [0, 0, 1, 1, -1, -1]
    identities = [7, 7, 7, 9, 9, 9]
    # Predicted pairs: (0,1) right, (2,3) wrong. True pairs: three per identity.
    precision, recall = quality.pairwise_precision_recall(labels, identities)
    assert precision == 0.5
    assert recall == pytest.approx(1 / 6)


def test_pairwise_precision_recall_edge_cases():
    assert quality.pairwise_precision_recall([3, 3, 5, 5], [1, 1, 2, 2]) == (1.0, 1.0)
    assert quality.pairwise_precision_recall([0, 0, 0, 0], [1, 1, 2, 2]) == (2 / 6, 1.0)
    assert quality.pairwise_precision_recall([-1, -1, -1], [0, 0, 1]) == (0.0, 0.0)
    with pytest.raises(ValueError):
        quality.pairwise_precision_recall([0, 0], [0, 0, 0])


def test_cluster_count_err():
    assert quality.cluster_count_err(20, 20) == 0.0
    assert quality.cluster_count_err(30, 20) == 0.5
    assert quality.cluster_count_err(15, 20) == 0.25


def test_count_within_eps_includes_the_boundary():
    dist = np.array([[0.0, 0.55, 0.9],
                     [0.55, 0.0, 0.56],
                     [0.9, 0.56, 0.0]])
    assert spans.count_within_eps(dist, 0.55) == 5
    assert spans.count_within_eps(dist, 0.1) == 3


def test_tail_percentile_keeps_ten_samples_beyond():
    assert spans.tail_percentile(10_000) == 99.9
    assert spans.tail_percentile(1000) == 99.0
    assert spans.tail_percentile(999) == 95.0
    assert spans.tail_percentile(150) == 90.0
    assert spans.tail_percentile(5) == 50.0


def test_scaled_cancels_a_uniform_slowdown():
    nominal = reference.PARSE_NOMINAL_S
    assert reference.scaled(0.2, nominal) == pytest.approx(0.2)
    # A machine half as fast doubles both times and reads the same.
    assert reference.scaled(0.4, 2 * nominal) == pytest.approx(0.2)
    assert reference.parse_reference() > 0.0


def test_instrumented_training_reports_every_layer_and_restores_modules():
    import selfreid
    from selfreid import rerank, trainer

    patched = [(trainer, name) for name in spans.TRAINER_SPANS] + \
        [(rerank, name) for name in spans.RERANK_SPANS]
    before = [getattr(module, name) for module, name in patched]
    train, query, gallery = selfreid.generate_synthetic(
        selfreid.SyntheticSpec(n_identities=10, samples_per_cell=4, dim=16))
    config = selfreid.TrainConfig(epochs=2, iterations=3,
                                  cluster=selfreid.ClusterConfig(k1=8, k2=3))
    tracer = spans.Tracer()
    with tracer.span("data.load"):
        pass
    with spans.instrument(tracer), tracer.span("trainer.train"):
        _, reports = selfreid.train(config, train, query, gallery)

    assert all(getattr(module, name) is original
               for (module, name), original in zip(patched, before))

    names = {s.name: s for s in tracer.spans}
    parent = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent >= 0}
    assert parent["rerank.jaccard"] == "rerank.pseudo_labels"
    assert parent["encoder.bank_forward"] == "trainer.extract_bank"
    assert parent["encoder.step_forward"] == "trainer.iteration"
    assert parent["encoder.eval_forward"] == "evaluation.evaluate"
    assert "encoder.forward" not in names
    assert tracer.counts["rerank.entries"] == 2 * len(train) ** 2

    ran = sum(r.skipped_iterations == 0 for r in reports)
    metrics = spans.layer_metrics(tracer, traced_runs=1, loads=1)
    assert metrics["rerank.calls"] == 2
    assert metrics["trainer.steps"] == 3 * ran
    assert 0.0 < metrics["rerank.within_eps_frac"] <= 1.0
    assert metrics["rerank.share"] + metrics["trainer.iteration_share"] <= 1.0

    declared = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    # run.py adds the overhead and the epoch median, which need the untraced
    # runs, and the quality of the final epoch, which every run checks.
    added = {"trace.overhead", "epoch_s_p50", "skipped_iter_frac", "map", "rank1",
             "pseudo_precision", "pseudo_recall", "cluster_count_err"}
    assert set(metrics) | added == {m["name"] for m in declared["per_layer"]}
