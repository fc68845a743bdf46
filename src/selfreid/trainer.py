"""Training loop: per-epoch clustering, proxies, and batch updates.

Each epoch encodes the whole training set with the momentum encoder,
re-clusters it into pseudo identities, rebuilds the proxy memory, then
runs the iteration loop. Every iteration makes three encoder passes:
online on perturbed features, momentum on the same perturbed features,
and momentum on clean features; combines the losses; backpropagates
into the online encoder; and EMA-updates the momentum twin.

Everything downstream of the master seed is deterministic: pseudo
labels, proxies and batches within an epoch depend only on the
epoch-start momentum encoder and the seed.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .data import UNKNOWN_IDENTITY, EmbeddingDataset
from .encoder import (
    EncoderPair,
    OptimizerState,
    backward,
    ema_update,
    forward,
    init_optimizer,
    init_pair,
    optimizer_step,
    save_checkpoint,
)
from .errors import SelfReidError, TrainingAborted
from .evaluation import EvalReport, RetrievalSet, evaluate
from .losses import (
    LossWeights,
    Temperatures,
    consistency_distributions,
    cross_camera_loss_batch,
    hard_instance_loss,
    kl_value,
    proxy_agnostic_loss,
    soft_consistency_loss,
    total_loss,
)
from .proxies import AGNOSTIC, AWARE, ProxyMemory, build_proxies
from .rerank import ClusterAssignment, ClusterConfig, generate_pseudo_labels
from .sampling import (
    BatchSpec,
    IdentityBatch,
    PerturbationConfig,
    estimate_camera_offsets,
    perturb,
    sample_pk_batch,
)

log = logging.getLogger(__name__)

# Sub-stream tags for deterministic seed derivation.
_SEED_INIT = 0
_SEED_BATCH = 1
_SEED_PERTURB = 2

MAX_FAILED_EPOCHS = 3

CONSISTENCY_VARIANTS = {
    # variant -> (Q targets, divergence)
    "kl_clean": ("clean", "kl"),
    "mse": ("clean", "mse"),
    "strong_strong": ("strong", "kl"),
}


@dataclass
class TrainConfig:
    epochs: int = 20
    iterations: int = 50
    batch: BatchSpec = field(default_factory=BatchSpec)
    temperatures: Temperatures = field(default_factory=Temperatures)
    weights: LossWeights = field(default_factory=LossWeights)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    perturbation: PerturbationConfig = field(default_factory=PerturbationConfig)
    alpha: float = 0.999
    base_lr: float = 0.00035
    warmup_epochs: int = 10
    weight_decay: float = 0.0005
    memory_mode: str = AWARE
    n_neg: int = 50
    hidden_dim: int = 128
    out_dim: int = 32
    seed: int = 0
    labels_mode: str = "pseudo"      # "pseudo" | "oracle"
    hard_negatives: str = "all"      # "all" | "hardest"
    consistency_variant: str = "kl_clean"
    checkpoint_every: int = 0
    eval_every: int = 0

    def validate(self) -> None:
        if self.epochs < 1 or self.iterations < 0:
            raise SelfReidError("need epochs >= 1 and iterations >= 0")
        self.batch.validate()
        self.temperatures.validate()
        self.weights.validate()
        self.cluster.validate()
        self.perturbation.validate()
        if self.memory_mode not in (AWARE, AGNOSTIC):
            raise SelfReidError(f"unknown memory_mode {self.memory_mode!r}")
        if self.n_neg < 1:
            raise SelfReidError(f"need n_neg >= 1, got {self.n_neg}")
        if self.hidden_dim < 1 or self.out_dim < 1:
            raise SelfReidError(f"need hidden_dim >= 1 and out_dim >= 1, got "
                                f"({self.hidden_dim}, {self.out_dim})")
        if not 0.0 <= self.alpha <= 1.0:
            raise SelfReidError(f"need 0 <= alpha <= 1, got {self.alpha}")
        if self.labels_mode not in ("pseudo", "oracle"):
            raise SelfReidError(f"unknown labels_mode {self.labels_mode!r}")
        if self.hard_negatives not in ("all", "hardest"):
            raise SelfReidError(f"unknown hard_negatives {self.hard_negatives!r}")
        if self.consistency_variant not in CONSISTENCY_VARIANTS:
            raise SelfReidError(f"unknown consistency_variant {self.consistency_variant!r}")


@dataclass
class EpochReport:
    epoch: int
    cluster_count: int
    outlier_count: int
    mean_agnostic: float
    mean_cross: float
    mean_hard: float
    mean_soft: float
    mean_total: float
    mean_kl: float
    wall_time: float
    skipped_iterations: int = 0
    evaluation: EvalReport | None = None


@dataclass
class TrainState:
    """Mutable loop state; single writer for parameters and optimizer."""

    config: TrainConfig
    dataset: EmbeddingDataset
    pair: EncoderPair
    opt: OptimizerState
    camera_offsets: np.ndarray | None = None
    memory: ProxyMemory | None = None
    epoch: int = 0
    iteration: int = 0


def extract_bank(pair: EncoderPair, features: np.ndarray) -> np.ndarray:
    """Momentum-encoder representations of all samples, dataset order."""
    return forward(pair.momentum, features)


def oracle_assignment(dataset: EmbeddingDataset) -> ClusterAssignment:
    """Ground-truth identities as pseudo labels (supervised oracle mode)."""
    if np.any(dataset.identities == UNKNOWN_IDENTITY):
        raise SelfReidError("oracle labels requested but identities are unknown")
    _, labels = np.unique(dataset.identities, return_inverse=True)
    return ClusterAssignment(labels=labels.astype(np.int64),
                             cluster_count=int(labels.max()) + 1)


def train_iteration(state: TrainState, batch: IdentityBatch):
    """One optimization step; returns (LossBreakdown, kl_diagnostic)."""
    cfg = state.config
    raw = state.dataset.features[batch.indices]
    perturbed = perturb(raw, cfg.perturbation,
                        [cfg.seed, state.epoch, state.iteration, _SEED_PERTURB],
                        cameras=batch.cameras,
                        camera_offsets=state.camera_offsets)

    feats = forward(state.pair.online, perturbed)
    momentum_aug = forward(state.pair.momentum, perturbed)
    momentum_clean = forward(state.pair.momentum, raw)

    agnostic = proxy_agnostic_loss(feats, batch.labels,
                                   state.memory.cluster_vectors,
                                   cfg.temperatures.agnostic)
    if cfg.memory_mode == AWARE:
        cross = cross_camera_loss_batch(feats, batch.cameras, batch.labels,
                                        state.memory, cfg.temperatures.cross,
                                        cfg.n_neg)
    else:
        cross = (0.0, np.zeros_like(feats))
    hard = hard_instance_loss(feats, momentum_aug, batch.labels,
                              cfg.temperatures.hard, cfg.hard_negatives)
    targets, divergence = CONSISTENCY_VARIANTS[cfg.consistency_variant]
    dists = consistency_distributions(feats, momentum_aug, momentum_clean,
                                      cfg.temperatures.soft, targets=targets)
    soft = soft_consistency_loss(dists, divergence=divergence)
    breakdown = total_loss(agnostic, cross, hard, soft, cfg.weights)

    grads = backward(state.pair.online, perturbed, breakdown.grads)
    optimizer_step(state.opt, state.pair.online, grads, state.epoch)
    ema_update(state.pair)
    state.iteration += 1
    return breakdown, kl_value(dists)


def evaluate_encoder(pair: EncoderPair, query: EmbeddingDataset,
                     gallery: EmbeddingDataset) -> EvalReport:
    """Retrieval metrics of the momentum encoder (the inference model)."""
    q = RetrievalSet(forward(pair.momentum, query.features),
                     query.identities, query.cameras)
    g = RetrievalSet(forward(pair.momentum, gallery.features),
                     gallery.identities, gallery.cameras)
    return evaluate(q, g)


def train(config: TrainConfig, dataset: EmbeddingDataset,
          query: EmbeddingDataset | None = None,
          gallery: EmbeddingDataset | None = None,
          checkpoint_dir=None):
    """Full training run; returns (EncoderPair, list of EpochReport).

    The momentum encoder of the returned pair is the inference model.
    Evaluation runs when query/gallery are given, every `eval_every`
    epochs and always on the last epoch.
    """
    config.validate()
    dataset.validate()
    rng = np.random.default_rng([config.seed, _SEED_INIT])
    pair = init_pair(dataset.dim, config.hidden_dim, config.out_dim, rng,
                     alpha=config.alpha)
    opt = init_optimizer(pair.online, base_lr=config.base_lr,
                         warmup_epochs=config.warmup_epochs,
                         weight_decay=config.weight_decay)
    state = TrainState(config=config, dataset=dataset, pair=pair, opt=opt,
                       camera_offsets=estimate_camera_offsets(dataset.features,
                                                              dataset.cameras))

    reports: list[EpochReport] = []
    failed_epochs = 0
    for epoch in range(config.epochs):
        start = time.perf_counter()
        state.epoch = epoch
        state.iteration = 0

        bank = extract_bank(pair, dataset.features)
        if config.labels_mode == "oracle":
            assignment = oracle_assignment(dataset)
        else:
            assignment = generate_pseudo_labels(bank, config.cluster)

        if assignment.cluster_count == 0:
            failed_epochs += 1
            log.warning("epoch %d: clustering found no inliers (%d consecutive)",
                        epoch, failed_epochs)
            if failed_epochs > MAX_FAILED_EPOCHS:
                raise TrainingAborted(
                    f"no clusters for {failed_epochs} consecutive epochs; "
                    f"check eps/min_samples against the data scale")
            reports.append(EpochReport(
                epoch=epoch, cluster_count=0, outlier_count=len(dataset),
                mean_agnostic=0.0, mean_cross=0.0, mean_hard=0.0, mean_soft=0.0,
                mean_total=0.0, mean_kl=0.0,
                wall_time=time.perf_counter() - start,
                skipped_iterations=config.iterations))
            continue
        failed_epochs = 0
        state.memory = build_proxies(bank, assignment, dataset.cameras,
                                     config.memory_mode, epoch=epoch)

        sums = np.zeros(6)  # agnostic, cross, hard, soft, total, kl
        ran = 0
        skipped = 0
        if assignment.cluster_count < config.batch.n_identities:
            log.warning("epoch %d: %d clusters < %d identities per batch; "
                        "skipping iterations", epoch, assignment.cluster_count,
                        config.batch.n_identities)
            skipped = config.iterations
        else:
            for _ in range(config.iterations):
                batch = sample_pk_batch(
                    assignment, dataset.cameras, config.batch,
                    [config.seed, epoch, state.iteration, _SEED_BATCH])
                breakdown, kl = train_iteration(state, batch)
                sums += (breakdown.agnostic, breakdown.cross, breakdown.hard,
                         breakdown.soft, breakdown.total, kl)
                ran += 1

        means = sums / ran if ran else sums
        report = EpochReport(
            epoch=epoch, cluster_count=assignment.cluster_count,
            outlier_count=assignment.outlier_count,
            mean_agnostic=means[0], mean_cross=means[1], mean_hard=means[2],
            mean_soft=means[3], mean_total=means[4], mean_kl=means[5],
            wall_time=time.perf_counter() - start, skipped_iterations=skipped)

        last_epoch = epoch == config.epochs - 1
        if query is not None and gallery is not None:
            due = config.eval_every > 0 and (epoch + 1) % config.eval_every == 0
            if due or last_epoch:
                report.evaluation = evaluate_encoder(pair, query, gallery)
        reports.append(report)

        if checkpoint_dir is not None and config.checkpoint_every > 0:
            if (epoch + 1) % config.checkpoint_every == 0 or last_epoch:
                save_checkpoint(f"{checkpoint_dir}/checkpoint_epoch{epoch:03d}.npz",
                                pair, opt)
    return pair, reports
