"""Small differentiable encoder and its training machinery.

A one-hidden-layer perceptron maps input features to unit-norm embeddings:

    x -> tanh(x W1 + b1) W2 + b2 -> row-wise L2 normalization

`forward` returns a `ForwardPass` whose `.out` are the embeddings, and
`backward` turns that record into exact reverse-mode gradients (including
the normalization Jacobian) without recomputing a layer. `optimizer_step`
is an adaptive-moment update with decoupled weight decay, made in place
with two reused temporaries, and `ema_update` the exponential-moving-average
twin that gives stable targets and the final inference model; the run's
settings for both come from TrainConfig.

The four weight arrays of an `EncoderParams` are views into one flat
buffer, so the optimizer, the EMA and the finite-gradient check each act
on every weight in one array operation.

A version-2 checkpoint is an .npz file with the keys version, step and
{online, momentum, opt_m, opt_v}_{w1, b1, w2, b2}.
"""

import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import SelfReidError

PARAM_FIELDS = ("w1", "b1", "w2", "b2")

# Adam moment decay rates and denominator guard (Kingma & Ba defaults).
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_VERSION = 2
CHECKPOINT_TABLES = ("online", "momentum", "opt_m", "opt_v")
CHECKPOINT_KEYS = ("version", "step") + tuple(
    f"{table}_{f}" for table in CHECKPOINT_TABLES for f in PARAM_FIELDS)


@dataclass(init=False, eq=False)
class EncoderParams:
    """Weights of the two-layer perceptron.

    Gradients and the Adam moments use the same container. The
    constructor copies the four arrays into one new buffer, `flat`, and
    the fields become views into it: writing a field writes `flat`.
    """

    w1: np.ndarray    # (d_in, hidden)
    b1: np.ndarray    # (hidden,)
    w2: np.ndarray    # (hidden, d_out)
    b2: np.ndarray    # (d_out,)
    flat: np.ndarray  # every weight, fields in PARAM_FIELDS order

    def __init__(self, w1, b1, w2, b2):
        arrays = [np.asarray(a, dtype=np.float64) for a in (w1, b1, w2, b2)]
        self.flat = np.concatenate([a.ravel() for a in arrays])
        start = 0
        for f, a in zip(PARAM_FIELDS, arrays):
            setattr(self, f, self.flat[start:start + a.size].reshape(a.shape))
            start += a.size

    def copy(self) -> "EncoderParams":
        return EncoderParams(*(getattr(self, f) for f in PARAM_FIELDS))


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
        raise SelfReidError(f"batch shape {batch.shape}, encoder expects (*, {d_in})")
    if not np.isfinite(batch).all():
        raise SelfReidError("non-finite values in encoder input")
    hidden = batch @ params.w1  # the bias and tanh act in place
    np.tanh(np.add(hidden, params.b1, out=hidden), out=hidden)
    raw = hidden @ params.w2 + params.b2
    # np.linalg.norm's own reduction for these arguments, without its dispatch
    norms = np.sqrt(np.add.reduce(raw * raw, axis=1, keepdims=True))
    return ForwardPass(input=batch, hidden=hidden, norms=norms, out=raw / norms)


def normalize_rows_vjp(y: np.ndarray, norms: np.ndarray,
                       grad_out: np.ndarray) -> np.ndarray:
    """Backprop grad_out through y = raw / norms applied row-wise.

    dL/draw = (g - y * <g, y>) / ||raw||
    """
    inner = (grad_out * y).sum(axis=1, keepdims=True)
    return (grad_out - y * inner) / norms


def backward(params: EncoderParams, fwd: ForwardPass,
             output_gradient: np.ndarray) -> EncoderParams:
    """Gradient of sum(fwd.out * output_gradient) w.r.t. the parameters.

    output_gradient is dLoss/d(normalized embeddings); the normalization
    Jacobian is applied here, so losses can differentiate w.r.t. unit
    vectors and stay ignorant of the encoder internals. The caller passes
    a float64 output_gradient of fwd.out's shape.
    """
    g_raw = normalize_rows_vjp(fwd.out, fwd.norms, output_gradient)
    g_pre = (g_raw @ params.w2.T) * (1.0 - fwd.hidden ** 2)
    return EncoderParams(w1=fwd.input.T @ g_pre, b1=g_pre.sum(axis=0),
                         w2=fwd.hidden.T @ g_raw, b2=g_raw.sum(axis=0))


def ema_update(pair: EncoderPair, alpha: float) -> None:
    """In-place EMA: momentum <- alpha * momentum + (1 - alpha) * online."""
    mom = pair.momentum.flat
    mom *= alpha
    mom += (1.0 - alpha) * pair.online.flat


def effective_lr(base_lr: float, warmup_epochs: int, epoch: int) -> float:
    """Linear warmup from base_lr/warmup to base_lr; flat afterwards."""
    if warmup_epochs <= 0:
        return base_lr
    return base_lr * min(1.0, (epoch + 1) / warmup_epochs)


def optimizer_step(state: OptimizerState, params: EncoderParams,
                   grads: EncoderParams, lr: float, weight_decay: float) -> None:
    """One adaptive-moment update of the online parameters, in place.

    p -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p), evaluated
    in that order on the flat buffers. Every product and quotient is
    written in place or into one of two flat temporaries reused within the
    update, which allocates nothing else.
    """
    if not np.isfinite(grads.flat).all():
        bad = next(f for f in PARAM_FIELDS if not np.isfinite(getattr(grads, f)).all())
        raise SelfReidError(f"gradient {bad} contains NaN/inf")
    state.step += 1
    t = state.step
    g, m, v, p = grads.flat, state.m.flat, state.v.flat, params.flat
    scratch = np.multiply(1.0 - BETA1, g)
    m *= BETA1
    m += scratch
    np.multiply(1.0 - BETA2, g, out=scratch)
    scratch *= g
    v *= BETA2
    v += scratch
    update = np.divide(m, 1.0 - BETA1 ** t)
    denom = np.divide(v, 1.0 - BETA2 ** t, out=scratch)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    update += np.multiply(weight_decay, p, out=scratch)
    update *= lr
    p -= update


def save_checkpoint(path, pair: EncoderPair, opt: OptimizerState) -> None:
    """Write a version-2 checkpoint; the round trip is bit-exact.

    Keys: version, step, and {online, momentum, opt_m, opt_v}_{w1, b1, w2, b2}.
    """
    tables = zip(CHECKPOINT_TABLES, (pair.online, pair.momentum, opt.m, opt.v))
    arrays = {f"{table}_{f}": getattr(p, f) for table, p in tables for f in PARAM_FIELDS}
    np.savez(path, version=np.array(CHECKPOINT_VERSION), step=np.array(opt.step),
             **arrays)


def _read(path, data, key) -> np.ndarray:
    """Array `key` of an open checkpoint; an unreadable one (an object
    array needs pickle, which stays off) is a SelfReidError."""
    try:
        return data[key]
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise SelfReidError(f"{path}: checkpoint {key} cannot be read ({exc})") from exc


def _integer(path, data, key) -> int:
    """A checkpoint's integer scalar `key`; anything else is a SelfReidError."""
    value = _read(path, data, key)
    if value.shape != () or value.dtype.kind not in "iu":
        raise SelfReidError(f"{path}: checkpoint {key} must be an integer, "
                            f"got {value.tolist()!r}")
    return int(value)


def load_checkpoint(path) -> tuple[EncoderPair, OptimizerState]:
    """Read a version-2 checkpoint (keys as in save_checkpoint).

    An unreadable file, another checkpoint version, a version or step that
    is not an integer, a missing or unreadable key, a weight table whose
    shape does not fit online_w1 and online_w2 (w1 (d_in, hidden), b1
    (hidden,), w2 (hidden, d_out), b2 (d_out,) in every table) or a value
    that is not a finite number is a SelfReidError naming the path.
    """
    with open(path, "rb") as fh:
        try:
            data = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            # numpy takes any bytes that are neither .npz nor .npy for a
            # pickle, and its error would send the reader there
            raise SelfReidError(f"{path}: not a checkpoint file (not an .npz archive)") from exc
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

            w1, w2 = _read(path, data, "online_w1"), _read(path, data, "online_w2")
            if w1.ndim != 2 or w2.ndim != 2:
                raise SelfReidError(f"{path}: checkpoint online_w1 and online_w2 must be "
                                    f"matrices, got shapes {w1.shape} and {w2.shape}")
            (d_in, hidden), d_out = w1.shape, w2.shape[1]
            shapes = {"w1": (d_in, hidden), "b1": (hidden,), "w2": (hidden, d_out),
                      "b2": (d_out,)}

            def params(table):
                arrays = []
                for f in PARAM_FIELDS:
                    key = f"{table}_{f}"
                    value = _read(path, data, key)
                    if value.shape != shapes[f]:
                        raise SelfReidError(
                            f"{path}: checkpoint {key} has shape {value.shape}, expected "
                            f"{shapes[f]} to fit online_w1 {w1.shape} and online_w2 "
                            f"{w2.shape}")
                    if value.dtype.kind not in "fiu" or not np.all(np.isfinite(value)):
                        raise SelfReidError(
                            f"{path}: checkpoint {key} must hold finite numbers")
                    arrays.append(value)
                return EncoderParams(*arrays)

            pair = EncoderPair(online=params("online"), momentum=params("momentum"))
            opt = OptimizerState(m=params("opt_m"), v=params("opt_v"),
                                 step=_integer(path, data, "step"))
    return pair, opt
