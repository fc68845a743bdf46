"""Small differentiable encoder and its training machinery.

A one-hidden-layer perceptron maps input features to unit-norm embeddings:

    x -> tanh(x W1 + b1) W2 + b2 -> row-wise L2 normalization

`backward` implements exact reverse-mode gradients (including the
normalization Jacobian), `optimizer_step` an adaptive-moment update with
decoupled weight decay and linear learning-rate warmup, and `ema_update`
the exponential-moving-average twin used to produce stable targets and
the final inference model.
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

CHECKPOINT_VERSION = 1
CHECKPOINT_KEYS = ("version", "activation", "scalars") + tuple(
    f"{prefix}_{f}" for prefix in ("online", "momentum", "opt_m", "opt_v")
    for f in PARAM_FIELDS)


@dataclass
class EncoderParams:
    """Weights of the two-layer perceptron.

    activation is "tanh" for training; "identity" turns the hidden layer
    into a pass-through, which makes hand-checkable configurations
    possible in tests. Gradients and the Adam moments use the same
    container, with one array per weight; their activation is unused.
    """

    w1: np.ndarray  # (d_in, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, d_out)
    b2: np.ndarray  # (d_out,)
    activation: str = "tanh"

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def d_out(self) -> int:
        return self.w2.shape[1]

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(),
            activation=self.activation,
        )


@dataclass
class EncoderPair:
    """Online encoder plus its EMA ("momentum") twin.

    The momentum side starts as an exact copy of the online side: the
    EMA recursion needs a defined starting point and the copy is its
    fixed point at step zero.
    """

    online: EncoderParams
    momentum: EncoderParams
    alpha: float = 0.999


@dataclass
class OptimizerState:
    """Adam moments plus schedule settings (decoupled weight decay)."""

    m: EncoderParams
    v: EncoderParams
    step: int = 0
    base_lr: float = 0.00035
    warmup_epochs: int = 10
    weight_decay: float = 0.0005
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_params(d_in: int, hidden: int, d_out: int, rng: np.random.Generator,
                activation: str = "tanh") -> EncoderParams:
    """Glorot-uniform initialization, seeded for reproducibility."""
    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return EncoderParams(
        w1=glorot(d_in, hidden),
        b1=np.zeros(hidden),
        w2=glorot(hidden, d_out),
        b2=np.zeros(d_out),
        activation=activation,
    )


def init_pair(d_in: int, hidden: int, d_out: int, rng: np.random.Generator,
              alpha: float = 0.999, activation: str = "tanh") -> EncoderPair:
    online = init_params(d_in, hidden, d_out, rng, activation=activation)
    return EncoderPair(online=online, momentum=online.copy(), alpha=alpha)


def init_optimizer(params: EncoderParams, base_lr: float = 0.00035,
                   warmup_epochs: int = 10,
                   weight_decay: float = 0.0005) -> OptimizerState:
    zeros = lambda: EncoderParams(*(np.zeros_like(getattr(params, f)) for f in PARAM_FIELDS))
    return OptimizerState(m=zeros(), v=zeros(), base_lr=base_lr,
                          warmup_epochs=warmup_epochs, weight_decay=weight_decay)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    if kind == "identity":
        return z
    raise SelfReidError(f"unknown activation {kind!r}")


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    if kind == "identity":
        return np.ones_like(z)
    raise SelfReidError(f"unknown activation {kind!r}")


def forward(params: EncoderParams, batch: np.ndarray) -> np.ndarray:
    """Encode a batch of input rows to unit-norm embeddings."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.d_in:
        raise DimensionMismatch(
            f"batch shape {batch.shape}, encoder expects (*, {params.d_in})")
    if not np.all(np.isfinite(batch)):
        raise SelfReidError("non-finite values in encoder input")
    z2, _, _ = _forward_raw(params, batch)
    norms = np.linalg.norm(z2, axis=1, keepdims=True)
    return z2 / norms


def _forward_raw(params, batch):
    """Pre-normalization forward pass; returns (z2, z1, a1)."""
    z1 = batch @ params.w1 + params.b1
    a1 = _activate(z1, params.activation)
    z2 = a1 @ params.w2 + params.b2
    return z2, z1, a1


def normalize_rows_vjp(raw: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Backprop grad_out through y = raw / ||raw|| applied row-wise.

    dL/draw = (g - y * <g, y>) / ||raw||
    """
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    y = raw / norms
    inner = np.sum(grad_out * y, axis=1, keepdims=True)
    return (grad_out - y * inner) / norms


def backward(params: EncoderParams, batch: np.ndarray,
             output_gradient: np.ndarray) -> EncoderParams:
    """Gradient of sum(output * output_gradient) w.r.t. the parameters.

    output_gradient is dLoss/d(normalized embeddings); the normalization
    Jacobian is applied here, so losses can differentiate w.r.t. unit
    vectors and stay ignorant of the encoder internals.
    """
    batch = np.asarray(batch, dtype=np.float64)
    output_gradient = np.asarray(output_gradient, dtype=np.float64)
    z2, z1, a1 = _forward_raw(params, batch)
    if output_gradient.shape != z2.shape:
        raise DimensionMismatch(
            f"output_gradient shape {output_gradient.shape} != {z2.shape}")

    g_z2 = normalize_rows_vjp(z2, output_gradient)
    g_w2 = a1.T @ g_z2
    g_b2 = g_z2.sum(axis=0)
    g_a1 = g_z2 @ params.w2.T
    g_z1 = g_a1 * _activate_grad(z1, params.activation)
    g_w1 = batch.T @ g_z1
    g_b1 = g_z1.sum(axis=0)
    return EncoderParams(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2)


def ema_update(pair: EncoderPair) -> EncoderPair:
    """In-place EMA: momentum <- alpha * momentum + (1 - alpha) * online."""
    if not (0.0 <= pair.alpha <= 1.0):
        raise InvalidMomentum(f"alpha must be in [0, 1], got {pair.alpha}")
    for f in PARAM_FIELDS:
        mom = getattr(pair.momentum, f)
        onl = getattr(pair.online, f)
        if mom.shape != onl.shape:
            raise DimensionMismatch(f"parameter {f} shapes differ")
        mom *= pair.alpha
        mom += (1.0 - pair.alpha) * onl
    return pair


def effective_lr(state: OptimizerState, epoch: int) -> float:
    """Linear warmup from base_lr/warmup to base_lr; flat afterwards."""
    if state.warmup_epochs <= 0:
        return state.base_lr
    return state.base_lr * min(1.0, (epoch + 1) / state.warmup_epochs)


def optimizer_step(state: OptimizerState, params: EncoderParams,
                   grads: EncoderParams, epoch: int) -> None:
    """One adaptive-moment update of the online parameters, in place."""
    for f in PARAM_FIELDS:
        if not np.all(np.isfinite(getattr(grads, f))):
            raise NonFiniteGradient(f"gradient {f} contains NaN/inf")
    lr = effective_lr(state, epoch)
    state.step += 1
    t = state.step
    for f in PARAM_FIELDS:
        g = getattr(grads, f)
        m = getattr(state.m, f)
        v = getattr(state.v, f)
        p = getattr(params, f)
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        p -= lr * (m_hat / (np.sqrt(v_hat) + state.eps) + state.weight_decay * p)


def save_checkpoint(path, pair: EncoderPair, opt: OptimizerState) -> None:
    """Dump EncoderPair + OptimizerState; round trip is bit-exact."""
    arrays = {"version": np.array(CHECKPOINT_VERSION)}
    for prefix, p in (("online", pair.online), ("momentum", pair.momentum),
                      ("opt_m", opt.m), ("opt_v", opt.v)):
        for f in PARAM_FIELDS:
            arrays[f"{prefix}_{f}"] = getattr(p, f)
    arrays["scalars"] = np.array([
        pair.alpha, opt.step, opt.base_lr, opt.warmup_epochs,
        opt.weight_decay, opt.beta1, opt.beta2, opt.eps,
    ])
    arrays["activation"] = np.array(pair.online.activation)
    np.savez(path, **arrays)


def load_checkpoint(path) -> tuple[EncoderPair, OptimizerState]:
    """Inverse of save_checkpoint; an unreadable or incomplete file is a SelfReidError."""
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise SelfReidError(f"{path}: not a checkpoint file ({exc})") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise SelfReidError(f"{path}: not a checkpoint file (holds a single array)")
    with data:
        missing = [key for key in CHECKPOINT_KEYS if key not in data.files]
        if missing:
            raise SelfReidError(f"{path}: checkpoint is missing {', '.join(missing)}")
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise SelfReidError(f"{path}: unsupported checkpoint version {version}")
        activation = str(data["activation"])

        def params(prefix):
            return EncoderParams(
                *(data[f"{prefix}_{f}"].copy() for f in PARAM_FIELDS),
                activation=activation)

        scal = data["scalars"]
        pair = EncoderPair(online=params("online"), momentum=params("momentum"),
                           alpha=float(scal[0]))
        opt = OptimizerState(
            m=params("opt_m"), v=params("opt_v"), step=int(scal[1]),
            base_lr=float(scal[2]), warmup_epochs=int(scal[3]),
            weight_decay=float(scal[4]), beta1=float(scal[5]),
            beta2=float(scal[6]), eps=float(scal[7]))
    return pair, opt
