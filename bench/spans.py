"""Span recorder and per-layer metrics for the traced benchmark run.

The recorder works from outside the program. `instrument` replaces the
public functions that `selfreid.trainer` and `selfreid.rerank` look up
at call time with wrappers that open a span around each call, and puts
the originals back on exit. The package itself is never edited.

Each span keeps its name, start, end and the index of the span that was
open when it started, so self time (duration minus the time covered by
direct children) can be derived after the run. Counts are recorded at
the same boundaries (camera proxies per build, Jaccard entries within
eps per DBSCAN call).
"""

import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field

import numpy as np

# Encoder forward passes are told apart by the span that called them.
FORWARD_BY_PARENT = {
    "trainer.extract_bank": "encoder.bank_forward",
    "trainer.iteration": "encoder.step_forward",
    "evaluation.evaluate": "encoder.eval_forward",
}

# Module attribute -> span name. The trainer looks every one of these up
# in its own namespace at call time, and generate_pseudo_labels looks up
# the rerank pair in `selfreid.rerank`.
TRAINER_SPANS = {
    "extract_bank": "trainer.extract_bank",
    "generate_pseudo_labels": "rerank.pseudo_labels",
    "build_proxies": "proxies.build",
    "sample_pk_batch": "sampling.pk_batch",
    "train_iteration": "trainer.iteration",
    "perturb": "sampling.perturb",
    "forward": "encoder.forward",
    "proxy_agnostic_loss": "losses.agnostic",
    "cross_camera_loss_batch": "losses.cross",
    "hard_instance_loss": "losses.hard",
    "consistency_distributions": "losses.soft",
    "soft_consistency_loss": "losses.soft",
    "kl_value": "losses.soft",
    "total_loss": "losses.total",
    "backward": "encoder.backward",
    "optimizer_step": "encoder.optimizer",
    "ema_update": "encoder.ema",
    "evaluate_encoder": "evaluation.evaluate",
}
RERANK_SPANS = {
    "jaccard_distance_matrix": "rerank.jaccard",
    "dbscan": "rerank.dbscan",
}

# Percentiles tried, highest first, for the step-latency tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


@dataclass
class SpanStats:
    total: float = 0.0
    self_time: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def open_name(self) -> str:
        return self.spans[self._open[-1]].name if self._open else ""

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def summarize(spans: list[Span]) -> dict[str, SpanStats]:
    """Total and self time per span name.

    Spans of one thread nest strictly, so the time a span's children
    cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    stats: dict[str, SpanStats] = {}
    for span, child_time in zip(spans, covered):
        duration = span.end - span.start
        entry = stats.setdefault(span.name, SpanStats())
        entry.total += duration
        entry.self_time += duration - child_time
        entry.durations.append(duration)
    return stats


def count_within_eps(dist: np.ndarray, eps: float) -> int:
    """Entries of a distance matrix at or below eps (what DBSCAN links)."""
    return int(np.count_nonzero(np.asarray(dist) <= eps))


def tail_percentile(sample_count: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if sample_count * (100.0 - pct) >= 1000.0 - 1e-6:  # 10 samples, float-safe
            return pct
    return 50.0


@contextmanager
def patched(module, attr: str, make_wrapper):
    """Replace `module.attr` by `make_wrapper(original)` for the block."""
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def _spanned(tracer: Tracer, name: str, observe=None):
    def make_wrapper(fn):
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "encoder.forward":
                span_name = FORWARD_BY_PARENT.get(tracer.open_name(), name)
            with tracer.span(span_name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result
        return wrapper
    return make_wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Record spans around the trainer's and re-ranker's layer calls."""
    from selfreid import rerank, trainer

    def count_proxies(args, memory):
        tracer.count("proxies.camera_proxies", len(memory.camera_ids))

    def count_links(args, assignment):
        dist, config = args[0], args[1]
        tracer.count("rerank.within_eps", count_within_eps(dist, config.eps))
        tracer.count("rerank.entries", np.asarray(dist).size)

    observers = {"build_proxies": count_proxies, "dbscan": count_links}
    with ExitStack() as stack:
        for module, table in ((trainer, TRAINER_SPANS), (rerank, RERANK_SPANS)):
            for attr, name in table.items():
                stack.enter_context(patched(
                    module, attr, _spanned(tracer, name, observers.get(attr))))
        yield tracer


def layer_metrics(tracer: Tracer, traced_runs: int, loads: int) -> dict[str, float]:
    """Per-layer numbers, per traced `train` call, from one tracer.

    `traced_runs` is how many `train` calls the tracer saw under a
    "trainer.train" span; `loads` how many times the three split files
    were loaded under "data.load" spans.
    """
    stats = summarize(tracer.spans)
    empty = SpanStats()

    def per_run(name):
        return stats.get(name, empty).total / traced_runs

    def self_per_run(name):
        return stats.get(name, empty).self_time / traced_runs

    train_s = per_run("trainer.train")
    steps_ms = 1000.0 * np.asarray(stats.get("trainer.iteration", empty).durations)
    tail = tail_percentile(len(steps_ms))
    builds = len(stats.get("proxies.build", empty).durations)
    entries = tracer.counts.get("rerank.entries", 0)
    metrics = {
        "data.load_s": stats.get("data.load", empty).total / loads,
        "trainer.train_s": train_s,
        "trainer.self_s": self_per_run("trainer.train"),
        "rerank.pseudo_labels_s": per_run("rerank.pseudo_labels"),
        "rerank.pseudo_labels_self_s": self_per_run("rerank.pseudo_labels"),
        "rerank.jaccard_s": per_run("rerank.jaccard"),
        "rerank.dbscan_s": per_run("rerank.dbscan"),
        "rerank.calls": len(stats.get("rerank.pseudo_labels", empty).durations) / traced_runs,
        "rerank.within_eps_frac": tracer.counts.get("rerank.within_eps", 0) / entries if entries else 0.0,
        "rerank.share": per_run("rerank.pseudo_labels") / train_s,
        "proxies.build_s": per_run("proxies.build"),
        "proxies.camera_proxies": tracer.counts.get("proxies.camera_proxies", 0) / builds if builds else 0.0,
        "sampling.pk_batch_s": per_run("sampling.pk_batch"),
        "sampling.perturb_s": per_run("sampling.perturb"),
        "encoder.bank_forward_s": per_run("encoder.bank_forward"),
        "encoder.step_forward_s": per_run("encoder.step_forward"),
        "encoder.backward_s": per_run("encoder.backward"),
        "encoder.optimizer_s": per_run("encoder.optimizer"),
        "encoder.ema_s": per_run("encoder.ema"),
        "losses.agnostic_s": per_run("losses.agnostic"),
        "losses.cross_s": per_run("losses.cross"),
        "losses.hard_s": per_run("losses.hard"),
        "losses.soft_s": per_run("losses.soft"),
        "losses.total_s": per_run("losses.total"),
        "evaluation.evaluate_s": per_run("evaluation.evaluate"),
        "evaluation.evaluate_self_s": self_per_run("evaluation.evaluate"),
        "trainer.iteration_s": per_run("trainer.iteration"),
        "trainer.iteration_self_s": self_per_run("trainer.iteration"),
        "trainer.iteration_share": per_run("trainer.iteration") / train_s,
        "trainer.steps": len(steps_ms) / traced_runs,
        "trainer.step_ms_p50": float(np.median(steps_ms)) if len(steps_ms) else 0.0,
        "trainer.step_ms_tail": float(np.percentile(steps_ms, tail)) if len(steps_ms) else 0.0,
        "trainer.step_tail_pct": tail,
    }
    return metrics
