"""Small differentiable encoder and its training machinery.

A one-hidden-layer perceptron maps input features to unit-norm embeddings:

    x -> tanh(x W1 + b1) W2 + b2 -> row-wise L2 normalization

`forward` returns a `ForwardPass` whose `.out` are the embeddings, and
`backward` turns that record into exact reverse-mode gradients (including
the normalization Jacobian) without recomputing a layer. `optimizer_step`
is an adaptive-moment update with decoupled weight decay and `ema_update`
the exponential-moving-average twin that gives stable targets and the
final inference model; the run's settings for both come from TrainConfig.

A version-2 checkpoint is an .npz file with the keys version, step and
{online, momentum, opt_m, opt_v}_{w1, b1, w2, b2}.
"""

import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidMomentum,
    NonFiniteGradient,
    SelfReidError,
)

PARAM_FIELDS = ("w1", "b1", "w2", "b2")

# Adam moment decay rates and denominator guard (Kingma & Ba defaults).
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_VERSION = 2
CHECKPOINT_TABLES = ("online", "momentum", "opt_m", "opt_v")
CHECKPOINT_KEYS = ("version", "step") + tuple(
    f"{table}_{f}" for table in CHECKPOINT_TABLES for f in PARAM_FIELDS)


@dataclass
class EncoderParams:
    """Weights of the two-layer perceptron.

    Gradients and the Adam moments use the same container, with one
    array per weight.
    """

    w1: np.ndarray  # (d_in, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, d_out)
    b2: np.ndarray  # (d_out,)

    def copy(self) -> "EncoderParams":
        return EncoderParams(*(getattr(self, f).copy() for f in PARAM_FIELDS))


@dataclass
class EncoderPair:
    """Online encoder plus its EMA ("momentum") twin.

    The momentum side starts as an exact copy of the online side: the
    EMA recursion needs a defined starting point and the copy is its
    fixed point at step zero.
    """

    online: EncoderParams
    momentum: EncoderParams


@dataclass
class OptimizerState:
    """Adam first and second moments and the number of steps taken."""

    m: EncoderParams
    v: EncoderParams
    step: int = 0


@dataclass
class ForwardPass:
    """What `forward` computed for one batch; `backward` reads it."""

    input: np.ndarray   # (n, d_in)
    hidden: np.ndarray  # (n, hidden), tanh(input W1 + b1)
    norms: np.ndarray   # (n, 1), row norms before normalization
    out: np.ndarray     # (n, d_out), unit-norm embeddings


def init_params(d_in: int, hidden: int, d_out: int,
                rng: np.random.Generator) -> EncoderParams:
    """Glorot-uniform initialization, seeded for reproducibility."""
    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return EncoderParams(
        w1=glorot(d_in, hidden),
        b1=np.zeros(hidden),
        w2=glorot(hidden, d_out),
        b2=np.zeros(d_out),
    )


def init_pair(d_in: int, hidden: int, d_out: int,
              rng: np.random.Generator) -> EncoderPair:
    online = init_params(d_in, hidden, d_out, rng)
    return EncoderPair(online=online, momentum=online.copy())


def init_optimizer(params: EncoderParams) -> OptimizerState:
    zeros = lambda: EncoderParams(*(np.zeros_like(getattr(params, f)) for f in PARAM_FIELDS))
    return OptimizerState(m=zeros(), v=zeros())


def forward(params: EncoderParams, batch: np.ndarray) -> ForwardPass:
    """Encode a batch of input rows; the embeddings are `.out`."""
    batch = np.asarray(batch, dtype=np.float64)
    d_in = params.w1.shape[0]
    if batch.ndim != 2 or batch.shape[1] != d_in:
        raise DimensionMismatch(
            f"batch shape {batch.shape}, encoder expects (*, {d_in})")
    if not np.all(np.isfinite(batch)):
        raise SelfReidError("non-finite values in encoder input")
    hidden = np.tanh(batch @ params.w1 + params.b1)
    raw = hidden @ params.w2 + params.b2
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return ForwardPass(input=batch, hidden=hidden, norms=norms, out=raw / norms)


def normalize_rows_vjp(y: np.ndarray, norms: np.ndarray,
                       grad_out: np.ndarray) -> np.ndarray:
    """Backprop grad_out through y = raw / norms applied row-wise.

    dL/draw = (g - y * <g, y>) / ||raw||
    """
    inner = np.sum(grad_out * y, axis=1, keepdims=True)
    return (grad_out - y * inner) / norms


def backward(params: EncoderParams, fwd: ForwardPass,
             output_gradient: np.ndarray) -> EncoderParams:
    """Gradient of sum(fwd.out * output_gradient) w.r.t. the parameters.

    output_gradient is dLoss/d(normalized embeddings); the normalization
    Jacobian is applied here, so losses can differentiate w.r.t. unit
    vectors and stay ignorant of the encoder internals.
    """
    output_gradient = np.asarray(output_gradient, dtype=np.float64)
    if output_gradient.shape != fwd.out.shape:
        raise DimensionMismatch(
            f"output_gradient shape {output_gradient.shape} != {fwd.out.shape}")

    g_raw = normalize_rows_vjp(fwd.out, fwd.norms, output_gradient)
    g_pre = (g_raw @ params.w2.T) * (1.0 - fwd.hidden ** 2)
    return EncoderParams(w1=fwd.input.T @ g_pre, b1=g_pre.sum(axis=0),
                         w2=fwd.hidden.T @ g_raw, b2=g_raw.sum(axis=0))


def ema_update(pair: EncoderPair, alpha: float) -> None:
    """In-place EMA: momentum <- alpha * momentum + (1 - alpha) * online."""
    if not (0.0 <= alpha <= 1.0):
        raise InvalidMomentum(f"alpha must be in [0, 1], got {alpha}")
    for f in PARAM_FIELDS:
        mom = getattr(pair.momentum, f)
        onl = getattr(pair.online, f)
        if mom.shape != onl.shape:
            raise DimensionMismatch(f"parameter {f} shapes differ")
        mom *= alpha
        mom += (1.0 - alpha) * onl


def effective_lr(base_lr: float, warmup_epochs: int, epoch: int) -> float:
    """Linear warmup from base_lr/warmup to base_lr; flat afterwards."""
    if warmup_epochs <= 0:
        return base_lr
    return base_lr * min(1.0, (epoch + 1) / warmup_epochs)


def optimizer_step(state: OptimizerState, params: EncoderParams,
                   grads: EncoderParams, lr: float, weight_decay: float) -> None:
    """One adaptive-moment update of the online parameters, in place."""
    for f in PARAM_FIELDS:
        if not np.all(np.isfinite(getattr(grads, f))):
            raise NonFiniteGradient(f"gradient {f} contains NaN/inf")
    state.step += 1
    t = state.step
    for f in PARAM_FIELDS:
        g = getattr(grads, f)
        m = getattr(state.m, f)
        v = getattr(state.v, f)
        p = getattr(params, f)
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        p -= lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + weight_decay * p)


def save_checkpoint(path, pair: EncoderPair, opt: OptimizerState) -> None:
    """Write a version-2 checkpoint; the round trip is bit-exact.

    Keys: version, step, and {online, momentum, opt_m, opt_v}_{w1, b1, w2, b2}.
    """
    tables = zip(CHECKPOINT_TABLES, (pair.online, pair.momentum, opt.m, opt.v))
    arrays = {f"{table}_{f}": getattr(p, f) for table, p in tables for f in PARAM_FIELDS}
    np.savez(path, version=np.array(CHECKPOINT_VERSION), step=np.array(opt.step),
             **arrays)


def _integer(path, data, key) -> int:
    """A checkpoint's integer scalar `key`; anything else is a SelfReidError."""
    value = data[key]
    if value.shape != () or value.dtype.kind not in "iu":
        raise SelfReidError(f"{path}: checkpoint {key} must be an integer, "
                            f"got {value.tolist()!r}")
    return int(value)


def load_checkpoint(path) -> tuple[EncoderPair, OptimizerState]:
    """Read a version-2 checkpoint (keys as in save_checkpoint).

    An unreadable file, another checkpoint version, a version or step that
    is not an integer, or a missing key is a SelfReidError naming the path.
    """
    with open(path, "rb") as fh:
        try:
            data = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise SelfReidError(f"{path}: not a checkpoint file ({exc})") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise SelfReidError(f"{path}: not a checkpoint file (holds a single array)")
        with data:
            version = (_integer(path, data, "version") if "version" in data.files
                       else CHECKPOINT_VERSION)
            if version != CHECKPOINT_VERSION:
                raise SelfReidError(
                    f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}; "
                    f"`selfreid train --from-manifest` on the run's manifest.txt "
                    f"re-creates the run byte for byte")
            missing = [key for key in CHECKPOINT_KEYS if key not in data.files]
            if missing:
                raise SelfReidError(f"{path}: checkpoint is missing {', '.join(missing)}")

            def params(table):
                return EncoderParams(*(data[f"{table}_{f}"] for f in PARAM_FIELDS))

            pair = EncoderPair(online=params("online"), momentum=params("momentum"))
            opt = OptimizerState(m=params("opt_m"), v=params("opt_v"),
                                 step=_integer(path, data, "step"))
    return pair, opt
