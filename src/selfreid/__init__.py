"""Unsupervised re-identification embeddings at desk scale.

A framework-free pipeline on numpy alone: momentum-encoder feature
banks, k-reciprocal Jaccard re-ranking, DBSCAN pseudo labels,
cluster/camera proxy contrastive losses, hardest-positive instance
contrast, and a soft consistency loss between augmented and clean views.

The names here are the library's surface: entry points that check their
own inputs (`train` checks every setting once, before its first epoch),
and the settings and data classes they take and return. The step's
kernels stay importable from their modules; they trust their callers.
"""

from .data import EmbeddingDataset, SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .encoder import load_checkpoint, save_checkpoint
from .errors import SelfReidError
from .evaluation import EvalReport, RetrievalSet, evaluate
from .linalg import normalize_rows
from .losses import LossWeights, Temperatures
from .rerank import OUTLIER, ClusterAssignment, ClusterConfig, JaccardPairs, jaccard_distance_matrix
from .sampling import BatchSpec, PerturbationConfig
from .trainer import EpochReport, TrainConfig, evaluate_encoder, extract_bank, train

__version__ = "0.1.0"
