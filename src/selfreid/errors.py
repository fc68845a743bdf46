"""Exception types raised across the package."""


class SelfReidError(Exception):
    """Base class for all library errors."""


class DegenerateVector(SelfReidError):
    """Zero vector cannot be normalized."""


class DimensionMismatch(SelfReidError):
    """Operands disagree on embedding dimension or shape."""


class InvalidTemperature(SelfReidError):
    """Softmax temperature must be strictly positive."""


class InvalidMomentum(SelfReidError):
    """EMA coefficient must lie in [0, 1]."""


class NonFiniteGradient(SelfReidError):
    """Gradient tensors contain NaN or infinity."""


class NonFiniteLoss(SelfReidError):
    """A loss component evaluated to NaN or infinity."""


class InsufficientSamples(SelfReidError):
    """Too few samples for the requested neighborhood size."""


class InvalidDistanceMatrix(SelfReidError):
    """Distance matrix is not symmetric / zero-diagonal."""


class NoClustersFound(SelfReidError):
    """Clustering marked every sample as an outlier."""


class InsufficientClusters(SelfReidError):
    """Fewer clusters than identities requested per batch."""


class NoNegatives(SelfReidError):
    """Batch contains a single pseudo identity; no negatives exist."""


class ProxyNotFound(SelfReidError):
    """A batch label has no proxy in the memory."""


class NoRelevantItems(SelfReidError):
    """Average precision is undefined without a relevant item."""


class EmptyEvaluation(SelfReidError):
    """No query retained a valid cross-camera match."""


class ParseError(SelfReidError):
    """Malformed dataset or config file."""


class DuplicateId(SelfReidError):
    """Dataset contains a repeated sample id."""


class EmptyDataset(SelfReidError):
    """Dataset file holds no records."""


class TrainingAborted(SelfReidError):
    """Training stopped early (e.g. repeated clustering failures)."""


class ConfigWarning(UserWarning):
    """Non-fatal configuration concern (e.g. feature dim too small)."""
