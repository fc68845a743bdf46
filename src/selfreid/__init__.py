"""Unsupervised re-identification embeddings at desk scale.

A framework-free pipeline on numpy alone: momentum-encoder feature
banks, k-reciprocal Jaccard re-ranking, DBSCAN pseudo labels,
cluster/camera proxy contrastive losses, hardest-positive instance
contrast, and a soft consistency loss between augmented and clean views.
"""

from .data import EmbeddingDataset, SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .encoder import (
    EncoderPair,
    EncoderParams,
    OptimizerState,
    backward,
    ema_update,
    forward,
    init_pair,
    init_params,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
)
from .errors import SelfReidError
from .evaluation import EvalReport, RetrievalSet, evaluate
from .linalg import normalize_rows, softmax_rows
from .losses import (
    LossBreakdown,
    LossWeights,
    Temperatures,
    consistency_distributions,
    cross_camera_loss_batch,
    hard_instance_loss,
    proxy_agnostic_loss,
    soft_consistency_loss,
    total_loss,
)
from .proxies import ProxyMemory, build_proxies
from .rerank import (
    OUTLIER,
    ClusterAssignment,
    ClusterConfig,
    JaccardPairs,
    dbscan,
    generate_pseudo_labels,
    jaccard_distance_matrix,
)
from .sampling import BatchSpec, PerturbationConfig, perturb, sample_pk_batch
from .trainer import EpochReport, TrainConfig, evaluate_encoder, extract_bank, train

__version__ = "0.1.0"
