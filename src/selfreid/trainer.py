"""Training loop: per-epoch clustering, proxies, and batch updates.

`train` is `init_state`, which runs `check_run` (the one home of a run's
up-front rules), plus a loop of `run_epoch` on the one `TrainState` that holds
the run's splits and epoch reports. Each epoch encodes the whole training set
with the momentum encoder and re-clusters it into pseudo identities; fewer than
a batch's identities stop the run. It rebuilds the proxy memory, then runs its
steps in chunks of `_PLAN_STEPS`. A chunk is three arrays with one row per
step, from `plan_steps`: the batches' pseudo labels and cameras, read at the
dataset indices one `sample_pk_batch` call draws, and the encoder inputs.
Those are the batches' rows gathered twice over, the first copy perturbed in
place by one `perturb` call, so each step's perturbed rows sit on its clean
ones. Each step draws from its own seeds. The epoch holds one chunk at a time,
so its memory does not grow with the iteration count. `train_iteration` makes
a step's two encoder passes on its row of the inputs: the online encoder on
the perturbed rows, the momentum encoder once over both (its output is split
back into the two views). It combines the losses (`batch_loss`),
backpropagates into the online encoder, and EMA-updates the momentum twin.

Everything downstream of the master seed is deterministic: pseudo
labels, proxies and batches within an epoch depend only on the
epoch-start momentum encoder and the seed.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import EmbeddingDataset
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
from .errors import SelfReidError
from .evaluation import (
    EvalReport,
    RetrievalSet,
    evaluate,
    require_evaluable,
    require_known_identities,
)
from .losses import (
    LossBreakdown,
    LossWeights,
    Temperatures,
    consistency_distributions,  # unused here; bench/spans.py wraps it in this module by name
    cross_camera_loss_batch,
    hard_instance_loss,
    kl_value,  # unused here; bench/spans.py wraps it in this module by name
    proxy_agnostic_loss,
    soft_consistency_loss,
    total_loss,
)
from .proxies import ProxyMemory, build_proxies
from .rerank import ClusterAssignment, ClusterConfig, generate_pseudo_labels
from .sampling import (
    BatchSpec,
    PerturbationConfig,
    estimate_camera_offsets,
    perturb,
    sample_pk_batch,
)
from .settings import Settings, setting

# Sub-stream tags for deterministic seed derivation.
_SEED_INIT = 0
_SEED_BATCH = 1
_SEED_PERTURB = 2

HIDDEN_DIM = 128  # the encoder's hidden width; 256 trains alike (ROADMAP item 14)

# Steps whose batches and augmentations one `plan_steps` call draws. The
# plan of one chunk is all an epoch holds of it at a time.
_PLAN_STEPS = 8

# The LossBreakdown terms an EpochReport averages over the epoch's steps.
_LOSS_TERMS = ("agnostic", "cross", "hard", "soft", "total")

# Memory modes. Both build the same proxy memory; agnostic replaces the
# cross-camera loss by zero, so only the cluster proxies are trained against.
AWARE = "aware"
AGNOSTIC = "agnostic"
MEMORY_MODES = (AWARE, AGNOSTIC)


@dataclass
class TrainConfig(Settings):
    """Every run setting, grouped by the stage that reads it.

    Its leaves (see settings) are the flat keys of config files, manifests
    and `selfreid train` flags, in declaration order; a group's key_prefix
    comes before its leaves' names (so temperatures.cross is tau_cross).
    """

    epochs: int = setting(20, "training epochs", "[1, inf)")
    iterations: int = setting(50, "iterations per epoch", "[0, inf)")
    batch: BatchSpec = field(default_factory=BatchSpec)
    temperatures: Temperatures = field(default_factory=Temperatures)
    weights: LossWeights = field(default_factory=LossWeights)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    perturbation: PerturbationConfig = field(default_factory=PerturbationConfig)
    alpha: float = setting(0.999, "EMA momentum coefficient", "[0, 1]")
    base_lr: float = setting(0.00035, "optimizer learning rate", "[0, inf)")
    warmup_epochs: int = setting(10, "linear warmup epochs", "[0, inf)")
    weight_decay: float = setting(0.0005, "decoupled weight decay", "[0, inf)")
    memory_mode: str = setting(
        AWARE, "aware | agnostic (agnostic drops the cross-camera loss)", MEMORY_MODES)
    n_neg: int = setting(50, "nearest negative proxies in the cross-camera loss", "[1, inf)")
    out_dim: int = setting(32, "embedding dimension", "[1, inf)")
    seed: int = setting(0, "master seed", "[0, inf)")
    labels_mode: str = setting("pseudo", "pseudo | oracle (ground-truth labels)",
                               ("pseudo", "oracle"))
    checkpoint_every: int = setting(0, "checkpoint interval in epochs (0 = off)", "[0, inf)")
    eval_every: int = setting(0, "evaluation interval in epochs (0 = final only)", "[0, inf)")


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
    skipped_iterations: int = 0  # always 0: an epoch runs every step or stops the run
    evaluation: EvalReport | None = None


@dataclass
class TrainState:
    """One run: the inputs check_run passed, and what carries across epochs."""

    config: TrainConfig
    dataset: EmbeddingDataset
    query: EmbeddingDataset | None  # evaluation splits, both given or both None
    gallery: EmbeddingDataset | None
    camera_offsets: np.ndarray  # per-camera style offsets of the training features
    pair: EncoderPair
    opt: OptimizerState
    reports: list[EpochReport] = field(default_factory=list)  # one per epoch run so far


def require_paired_splits(query, gallery, query_name="query", gallery_name="gallery") -> None:
    """Reject a query split without a gallery split or the reverse (None: not given)."""
    if (query is None) != (gallery is None):
        given, missing, name = (("query", "gallery", query_name) if gallery is None
                                else ("gallery", "query", gallery_name))
        shown = "" if name == given else f" ({name})"
        raise SelfReidError(f"a {given} split{shown} is given without a {missing} split; "
                            f"evaluation needs both")


def require_input_width(encoder: str, width: int, *splits) -> None:
    """Reject a (name, dataset) split whose width is not `encoder`'s `width`."""
    for name, split in splits:
        if split.dim != width:
            raise SelfReidError(f"{encoder} takes {width}-d inputs, "
                                f"but {name} has dim {split.dim}")


def check_run(config: TrainConfig, dataset: EmbeddingDataset, query=None, gallery=None,
              data_name="training data", query_name="query", gallery_name="gallery") -> None:
    """A run's up-front rules, in order: a valid config and training split (a split passes
    EmbeddingDataset.validate); a dropout that keeps an input coordinate; `query` and
    `gallery` given together, valid splits of the training width, ready for evaluation;
    oracle labels only with known identities, at least a batch's. Messages name the splits."""
    config.validate()
    dataset.validate(f"{data_name}: ")
    dropout = config.perturbation.dropout
    if round(dropout * dataset.dim) >= dataset.dim:  # as perturb counts the dropped coordinates
        raise SelfReidError(f"dropout = {dropout} zeroes all {dataset.dim} input coordinates of "
                            f"{data_name}; need round(dropout * {dataset.dim}) < {dataset.dim}")
    require_paired_splits(query, gallery, query_name, gallery_name)
    if query is not None:
        for name, split in ((query_name, query), (gallery_name, gallery)):
            split.validate(f"{name}: ")
        require_input_width(f"the encoder trained on {data_name}", dataset.dim,
                            (query_name, query), (gallery_name, gallery))
        require_evaluable(query, gallery, query_name, gallery_name)
    if config.labels_mode == "oracle":
        require_known_identities(dataset.identities, data_name,
                                 "labels_mode = oracle trains on the identities as pseudo "
                                 "labels, so every one must be known")
        count, needed = len(np.unique(dataset.identities)), config.batch.n_identities
        if count < needed:
            raise SelfReidError(f"{data_name} holds {count} identities < {needed} identities "
                                f"per batch, and labels_mode = oracle trains on them as its "
                                f"clusters; lower n_identities")


def init_state(config: TrainConfig, dataset: EmbeddingDataset, query=None,
               gallery=None) -> TrainState:
    """The run before its first epoch (untrained encoders, no reports), after check_run."""
    check_run(config, dataset, query, gallery)
    rng = np.random.default_rng([config.seed, _SEED_INIT])
    pair = init_pair(dataset.dim, HIDDEN_DIM, config.out_dim, rng)
    return TrainState(config=config, dataset=dataset, query=query, gallery=gallery,
                      camera_offsets=estimate_camera_offsets(dataset.features, dataset.cameras),
                      pair=pair, opt=init_optimizer(pair.online))


def extract_bank(pair: EncoderPair, features: np.ndarray) -> np.ndarray:
    """Momentum-encoder representations of all samples, dataset order."""
    return forward(pair.momentum, features).out


def batch_loss(cfg: TrainConfig, memory: ProxyMemory, labels: np.ndarray, cameras: np.ndarray,
               feats: np.ndarray, momentum_aug: np.ndarray,
               momentum_clean: np.ndarray) -> LossBreakdown:
    """A step's loss and its gradient in the online representations `feats` of
    its batch; the momentum-encoder outputs and the proxies are held fixed.
    A non-finite term or total is a SelfReidError naming the settings that
    differ from their defaults."""
    tau = cfg.temperatures
    agnostic = proxy_agnostic_loss(feats, labels, memory.cluster_vectors, tau.agnostic)
    if cfg.memory_mode == AWARE:
        cross = cross_camera_loss_batch(feats, cameras, labels, memory, tau.cross, cfg.n_neg)
    else:
        cross = (0.0, np.zeros_like(feats))
    hard = hard_instance_loss(feats, momentum_aug, labels, tau.hard)
    soft = soft_consistency_loss(feats, momentum_aug, momentum_clean, tau.soft)
    breakdown = total_loss(agnostic, cross, hard, soft, cfg.weights)
    for term in _LOSS_TERMS:  # the four terms, then their weighted total
        value = getattr(breakdown, term)
        if not math.isfinite(value):
            defaults = TrainConfig().values()
            changed = [f"{key} = {now}" for key, now in cfg.values().items()
                       if now != defaults[key]]
            hint = (f"check the settings not at their defaults: {', '.join(changed)}"
                    if changed else "every setting is at its default")
            raise SelfReidError(f"{term} loss is {value}; the run diverged: {hint}")
    return breakdown


def plan_steps(state: TrainState, assignment: ClusterAssignment,
               iterations: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps `iterations` of epoch len(state.reports): (labels, cameras, inputs).
    Row j of each is step j's: its batch's (batch rows,) pseudo labels and
    cameras, and its (2 * batch rows, d) encoder inputs, the perturbed rows
    stacked on the clean ones. One draw, one gather and one `perturb` call
    serve every step, each step drawing from its own seeds."""
    cfg, epoch, dataset = state.config, len(state.reports), state.dataset
    indices = sample_pk_batch(assignment, cfg.batch, [[cfg.seed, epoch, iteration, _SEED_BATCH]
                                                      for iteration in iterations])
    labels, cameras = assignment.labels[indices], dataset.cameras[indices]
    rows = np.concatenate((indices, indices), axis=1)
    inputs = dataset.features[rows].astype(np.float64, copy=False)  # perturb adds floats
    perturb(inputs[:, :indices.shape[1]], cfg.perturbation,
            [[cfg.seed, epoch, iteration, _SEED_PERTURB] for iteration in iterations],
            cameras, state.camera_offsets)
    return labels, cameras, inputs


def train_iteration(state: TrainState, memory: ProxyMemory, labels: np.ndarray,
                    cameras: np.ndarray, inputs: np.ndarray) -> LossBreakdown:
    """One step of epoch len(state.reports), against that epoch's proxy memory;
    `inputs` are the batch's perturbed rows stacked on its clean ones."""
    cfg, rows = state.config, len(labels)
    online = forward(state.pair.online, inputs[:rows])
    momentum = forward(state.pair.momentum, inputs).out
    breakdown = batch_loss(cfg, memory, labels, cameras, online.out, momentum[:rows],
                           momentum[rows:])

    grads = backward(state.pair.online, online, breakdown.grads)
    optimizer_step(state.opt, state.pair.online, grads,
                   effective_lr(cfg.base_lr, cfg.warmup_epochs, len(state.reports)),
                   cfg.weight_decay)
    ema_update(state.pair, cfg.alpha)
    return breakdown


def evaluate_encoder(pair: EncoderPair, query: EmbeddingDataset,
                     gallery: EmbeddingDataset) -> EvalReport:
    """Retrieval metrics of the momentum encoder (the inference model)."""
    q, g = (RetrievalSet(forward(pair.momentum, split.features).out, split.identities,
                         split.cameras) for split in (query, gallery))
    return evaluate(q, g)


def run_epoch(state: TrainState) -> EpochReport:
    """Run epoch `len(state.reports)`, append its report and return it. An epoch
    with fewer clusters than a batch's identities could run no step, and every
    later one would re-cluster the same bank, so it stops the run with a
    SelfReidError naming the settings to change. A step's SelfReidError is
    re-raised naming the epoch and iteration. Evaluates on the state's query and
    gallery, if any, every `eval_every` epochs and the last."""
    start = time.perf_counter()
    cfg, dataset, reports = state.config, state.dataset, state.reports
    epoch = len(reports)
    bank = extract_bank(state.pair, dataset.features)
    if cfg.labels_mode == "oracle":  # ground-truth identities, known and enough (check_run)
        _, labels = np.unique(dataset.identities, return_inverse=True)
        assignment = ClusterAssignment(labels.astype(np.int64), int(labels.max()) + 1)
    else:
        assignment = generate_pseudo_labels(bank, cfg.cluster)
    if assignment.cluster_count < cfg.batch.n_identities:
        outliers = f" ({assignment.outlier_count} outliers)" if not assignment.cluster_count else ""
        raise SelfReidError(f"epoch {epoch}: {assignment.cluster_count} clusters{outliers} < "
                            f"{cfg.batch.n_identities} identities per batch, so no step can "
                            f"run; change eps, min_samples or k1 for more clusters, or lower "
                            f"n_identities")

    # each term summed in step order (np.mean's pairwise sum has other bits)
    sums, steps = dict.fromkeys(_LOSS_TERMS, 0.0), 0
    memory = build_proxies(bank, assignment, dataset.cameras)
    with np.errstate(all="ignore"):  # a diverging step fails a finiteness check instead
        for first in range(0, cfg.iterations, _PLAN_STEPS):
            chunk = range(first, min(first + _PLAN_STEPS, cfg.iterations))
            for step in zip(*plan_steps(state, assignment, chunk)):
                try:
                    breakdown = train_iteration(state, memory, *step)
                except SelfReidError as exc:
                    raise SelfReidError(f"epoch {epoch}, iteration {steps}: {exc}") from None
                for term in _LOSS_TERMS:
                    sums[term] += getattr(breakdown, term)
                steps += 1

    means = {term: sums[term] / steps if steps else 0.0 for term in _LOSS_TERMS}
    report = EpochReport(
        epoch=epoch, cluster_count=assignment.cluster_count,
        outlier_count=assignment.outlier_count,
        mean_agnostic=means["agnostic"], mean_cross=means["cross"], mean_hard=means["hard"],
        # the soft loss is D_KL(P || Q), so it is also the KL diagnostic
        mean_soft=means["soft"], mean_kl=means["soft"], mean_total=means["total"],
        wall_time=time.perf_counter() - start)
    due = cfg.eval_every > 0 and (epoch + 1) % cfg.eval_every == 0
    if state.query is not None and (due or epoch == cfg.epochs - 1):
        report.evaluation = evaluate_encoder(state.pair, state.query, state.gallery)
    reports.append(report)
    return report


def train(config: TrainConfig, dataset: EmbeddingDataset,
          query: EmbeddingDataset | None = None, gallery: EmbeddingDataset | None = None,
          checkpoint_dir=None):
    """Full training run; returns (EncoderPair, list of EpochReport).

    The momentum encoder of the returned pair is the inference model.
    check_run (through init_state) checks every input before the first epoch.
    """
    state = init_state(config, dataset, query, gallery)
    for epoch in range(config.epochs):
        run_epoch(state)
        if checkpoint_dir is not None and config.checkpoint_every > 0 and (
                (epoch + 1) % config.checkpoint_every == 0 or epoch == config.epochs - 1):
            save_checkpoint(f"{checkpoint_dir}/checkpoint_epoch{epoch:03d}.npz",
                            state.pair, state.opt)
    return state.pair, state.reports
