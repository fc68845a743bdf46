"""Training loop: per-epoch clustering, proxies, and batch updates.

Each epoch encodes the whole training set with the momentum encoder,
re-clusters it into pseudo identities, rebuilds the proxy memory, then
runs the iteration loop. Every iteration makes two encoder passes: the
online encoder on perturbed features, and the momentum encoder once over
the perturbed rows stacked on the clean ones (its output is split back
into the two views); combines the losses; backpropagates into the
online encoder; and EMA-updates the momentum twin.

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
    effective_lr,
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
from .proxies import ProxyMemory, build_proxies
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

# Memory modes. Both build the same proxy memory; agnostic replaces the
# cross-camera loss by zero, so only the cluster proxies are trained against.
AWARE = "aware"
AGNOSTIC = "agnostic"
MEMORY_MODES = (AWARE, AGNOSTIC)

CONSISTENCY_VARIANTS = {
    # variant -> (Q targets, divergence)
    "kl_clean": ("clean", "kl"),
    "mse": ("clean", "mse"),
    "strong_strong": ("strong", "kl"),
}


@dataclass
class TrainConfig:
    """Every run setting, grouped by the stage that reads it.

    The fields are the single source of the flat config keys used by
    config files, manifests and `selfreid train` flags (see reporting):
    each leaf field's metadata["help"] is its --help text, and a group
    field's metadata["prefix"] is prepended to its leaves' names (so
    temperatures.cross is tau_cross). Keys follow declaration order.
    """

    epochs: int = field(default=20, metadata={"help": "training epochs"})
    iterations: int = field(default=50, metadata={"help": "iterations per epoch"})
    batch: BatchSpec = field(default_factory=BatchSpec)
    temperatures: Temperatures = field(default_factory=Temperatures,
                                       metadata={"prefix": "tau_"})
    weights: LossWeights = field(default_factory=LossWeights, metadata={"prefix": "lambda_"})
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    perturbation: PerturbationConfig = field(default_factory=PerturbationConfig)
    alpha: float = field(default=0.999, metadata={"help": "EMA momentum coefficient"})
    base_lr: float = field(default=0.00035, metadata={"help": "optimizer learning rate"})
    warmup_epochs: int = field(default=10, metadata={"help": "linear warmup epochs"})
    weight_decay: float = field(default=0.0005, metadata={"help": "decoupled weight decay"})
    memory_mode: str = field(default=AWARE, metadata={
        "help": "aware | agnostic (agnostic drops the cross-camera loss)"})
    n_neg: int = field(default=50, metadata={
        "help": "nearest negative proxies in the cross-camera loss"})
    hidden_dim: int = field(default=128, metadata={"help": "encoder hidden width"})
    out_dim: int = field(default=32, metadata={"help": "embedding dimension"})
    seed: int = field(default=0, metadata={"help": "master seed"})
    labels_mode: str = field(default="pseudo",
                             metadata={"help": "pseudo | oracle (ground-truth labels)"})
    hard_negatives: str = field(default="all",
                                metadata={"help": "denominator variant: all | hardest"})
    consistency_variant: str = field(default="kl_clean",
                                     metadata={"help": "kl_clean | mse | strong_strong"})
    checkpoint_every: int = field(default=0, metadata={
        "help": "checkpoint interval in epochs (0 = off)"})
    eval_every: int = field(default=0, metadata={
        "help": "evaluation interval in epochs (0 = final only)"})

    def validate(self) -> None:
        if self.epochs < 1 or self.iterations < 0:
            raise SelfReidError("need epochs >= 1 and iterations >= 0")
        self.batch.validate()
        self.temperatures.validate()
        self.weights.validate()
        self.cluster.validate()
        self.perturbation.validate()
        if self.memory_mode not in MEMORY_MODES:
            raise SelfReidError(f"unknown memory_mode {self.memory_mode!r}")
        if self.n_neg < 1:
            raise SelfReidError(f"need n_neg >= 1, got {self.n_neg}")
        if self.hidden_dim < 1 or self.out_dim < 1:
            raise SelfReidError(f"need hidden_dim >= 1 and out_dim >= 1, got "
                                f"({self.hidden_dim}, {self.out_dim})")
        if not 0.0 <= self.alpha <= 1.0:
            raise SelfReidError(f"need 0 <= alpha <= 1, got {self.alpha}")
        for name in ("base_lr", "weight_decay", "warmup_epochs"):
            if not (getattr(self, name) >= 0):
                raise SelfReidError(f"need {name} >= 0, got {getattr(self, name)}")
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
    return forward(pair.momentum, features).out


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

    online = forward(state.pair.online, perturbed)
    feats = online.out
    momentum = forward(state.pair.momentum, np.concatenate((perturbed, raw))).out
    momentum_aug, momentum_clean = momentum[:len(raw)], momentum[len(raw):]

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
    # a "kl" loss value is kl_value(dists), computed by the same operations
    kl = soft[0] if divergence == "kl" else kl_value(dists)
    breakdown = total_loss(agnostic, cross, hard, soft, cfg.weights)

    grads = backward(state.pair.online, online, breakdown.grads)
    optimizer_step(state.opt, state.pair.online, grads,
                   effective_lr(cfg.base_lr, cfg.warmup_epochs, state.epoch),
                   cfg.weight_decay)
    ema_update(state.pair, cfg.alpha)
    state.iteration += 1
    return breakdown, kl


def evaluate_encoder(pair: EncoderPair, query: EmbeddingDataset,
                     gallery: EmbeddingDataset) -> EvalReport:
    """Retrieval metrics of the momentum encoder (the inference model)."""
    q = RetrievalSet(forward(pair.momentum, query.features).out,
                     query.identities, query.cameras)
    g = RetrievalSet(forward(pair.momentum, gallery.features).out,
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
    pair = init_pair(dataset.dim, config.hidden_dim, config.out_dim, rng)
    opt = init_optimizer(pair.online)
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
        state.memory = build_proxies(bank, assignment, dataset.cameras)

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
