"""From-scratch single-hidden-layer MLP and its two batch trainers.

Hidden activation is the logistic sigmoid, output is softmax, loss is mean
cross-entropy. Gradients come from exact backpropagation over the flat
parameter vector (W1, b1, W2, b2 order). The default trainer is Moller's
scaled conjugate gradient (no user learning rate); a classical momentum
gradient-descent trainer carries the learning-rate/momentum knobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .raster import check_text_fields, read_utf8, write_utf8

MODEL_MAGIC = "DEVOC-MLP"
MODEL_VERSION = 1


class NnError(Exception):
    pass


class BadDimensionsError(NnError):
    pass


class NonFiniteInputError(NnError):
    pass


class EmptyBatchError(NnError):
    pass


class LabelOutOfRangeError(NnError):
    pass


class MalformedModelFileError(NnError):
    pass


class VersionMismatchError(NnError):
    pass


class StopReason(Enum):
    MIN_GRADIENT = "min_gradient"
    MAX_EPOCHS = "max_epochs"
    CONVERGED = "converged"


@dataclass(frozen=True)
class Mlp:
    w1: np.ndarray  # (n_hidden, n_in)
    b1: np.ndarray  # (n_hidden,)
    w2: np.ndarray  # (n_out, n_hidden)
    b2: np.ndarray  # (n_out,)

    @property
    def n_in(self):
        return self.w1.shape[1]

    @property
    def n_hidden(self):
        return self.w1.shape[0]

    @property
    def n_out(self):
        return self.w2.shape[0]


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.95
    min_gradient: float = 1e-8
    max_epochs: int = 500
    trainer: str = "scg"  # "scg" or "momentum"
    seed: int = 0
    n_hidden: int = 40

    def validate(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 <= self.momentum < 1):
            raise ValueError("momentum must be in [0, 1)")
        if self.min_gradient <= 0:
            raise ValueError("min_gradient must be positive")
        if self.trainer not in ("scg", "momentum"):
            raise ValueError("unknown trainer %r" % self.trainer)
        if self.n_hidden < 1:
            raise ValueError("n_hidden must be >= 1")


@dataclass
class TrainReport:
    epochs_run: int
    final_loss: float
    final_gradient_norm: float
    stop_reason: StopReason
    loss_history: tuple = field(default_factory=tuple, repr=False)


def init_mlp(n_hidden, n_out, seed, n_in=32):
    """Seeded uniform init in +-sqrt(6/(fan_in+fan_out)) per layer, zero biases."""
    if n_hidden < 1 or n_in < 1:
        raise BadDimensionsError("layer sizes must be >= 1")
    if n_out < 2:
        raise BadDimensionsError("softmax output needs at least 2 classes")
    rng = np.random.default_rng(seed)
    r1 = math.sqrt(6.0 / (n_in + n_hidden))
    r2 = math.sqrt(6.0 / (n_hidden + n_out))
    return Mlp(
        w1=rng.uniform(-r1, r1, size=(n_hidden, n_in)),
        b1=np.zeros(n_hidden),
        w2=rng.uniform(-r2, r2, size=(n_out, n_hidden)),
        b2=np.zeros(n_out),
    )


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_batch(net, x):
    hidden = _sigmoid(x @ net.w1.T + net.b1)
    logits = hidden @ net.w2.T + net.b2
    return hidden, logits


def forward(net, x):
    """Class probability vector (sums to 1) for a single input."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInputError("input contains non-finite values")
    _, logits = _forward_batch(net, x.reshape(1, -1))
    return _softmax(logits)[0]


def flatten_params(net):
    return np.concatenate([net.w1.ravel(), net.b1, net.w2.ravel(), net.b2])


def unflatten_params(theta, n_in, n_hidden, n_out):
    i = 0
    w1 = theta[i : i + n_hidden * n_in].reshape(n_hidden, n_in)
    i += n_hidden * n_in
    b1 = theta[i : i + n_hidden]
    i += n_hidden
    w2 = theta[i : i + n_out * n_hidden].reshape(n_out, n_hidden)
    i += n_out * n_hidden
    b2 = theta[i : i + n_out]
    return Mlp(w1.copy(), b1.copy(), w2.copy(), b2.copy())


def _check_batch(net, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise EmptyBatchError("batch must be a nonempty (n, %d) array" % net.n_in)
    if x.shape[1] != net.n_in:
        raise BadDimensionsError("inputs have %d features, net expects %d" % (x.shape[1], net.n_in))
    if y.shape != (x.shape[0], net.n_out):
        raise LabelOutOfRangeError("labels must be one-hot of width %d" % net.n_out)
    row_sums = y.sum(axis=1)
    if not (np.all(row_sums == 1.0) and np.all((y == 0) | (y == 1))):
        raise LabelOutOfRangeError("labels must be exact one-hot rows")
    return x, y


def loss_and_gradient(net, x, y):
    """Mean cross-entropy and its exact gradient, flattened (W1, b1, W2, b2)."""
    x, y = _check_batch(net, x, y)
    n = x.shape[0]
    hidden, logits = _forward_batch(net, x)
    # stable log-softmax
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = float(-(y * log_probs).sum() / n)
    probs = np.exp(log_probs)
    dlogits = (probs - y) / n
    gw2 = dlogits.T @ hidden
    gb2 = dlogits.sum(axis=0)
    dhidden = dlogits @ net.w2
    dz1 = dhidden * hidden * (1.0 - hidden)
    gw1 = dz1.T @ x
    gb1 = dz1.sum(axis=0)
    grad = np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])
    return loss, grad


# ---------------------------------------------------------------------------
# Trainers

_FLAT_TOL = 1e-12
_FLAT_RUN = 5


def train_momentum(net, x, y, cfg):
    """Full-batch gradient descent with classical momentum:
    v <- momentum*v - lr*grad; theta <- theta + v."""
    cfg.validate()
    x, y = _check_batch(net, x, y)
    theta = flatten_params(net)
    shape = (net.n_in, net.n_hidden, net.n_out)
    loss, grad = loss_and_gradient(net, x, y)
    history = [loss]
    velocity = np.zeros_like(theta)
    stop = StopReason.MAX_EPOCHS
    epochs = 0
    flat = 0
    gnorm = float(np.linalg.norm(grad))
    while epochs < cfg.max_epochs:
        if gnorm <= cfg.min_gradient:
            stop = StopReason.MIN_GRADIENT
            break
        velocity = cfg.momentum * velocity - cfg.learning_rate * grad
        theta = theta + velocity
        epochs += 1
        new_loss, grad = loss_and_gradient(unflatten_params(theta, *shape), x, y)
        gnorm = float(np.linalg.norm(grad))
        flat = flat + 1 if abs(new_loss - loss) < _FLAT_TOL else 0
        loss = new_loss
        history.append(loss)
        if flat >= _FLAT_RUN:
            stop = StopReason.CONVERGED
            break
    else:
        if gnorm <= cfg.min_gradient:
            stop = StopReason.MIN_GRADIENT
    return unflatten_params(theta, *shape), TrainReport(epochs, loss, gnorm, stop, tuple(history))


def train_scg(net, x, y, cfg):
    """Moller's scaled conjugate gradient: conjugate directions with
    Hessian-vector products estimated from finite gradient differences and a
    scalar lambda trust regulator. No user learning rate; the loss over
    accepted steps is non-increasing."""
    cfg.validate()
    x, y = _check_batch(net, x, y)
    shape = (net.n_in, net.n_hidden, net.n_out)

    def evaluate(theta):
        return loss_and_gradient(unflatten_params(theta, *shape), x, y)

    sigma0 = 1e-4
    lamb, lamb_bar = 1e-6, 0.0
    w = flatten_params(net)
    n_params = w.size
    fw, gk = evaluate(w)
    r = -gk
    p = r.copy()
    success = True
    history = [fw]
    stop = StopReason.MAX_EPOCHS
    epochs = 0
    flat = 0
    delta_p = 0.0
    p_norm2 = 0.0
    while epochs < cfg.max_epochs:
        gnorm = float(np.linalg.norm(r))
        if gnorm <= cfg.min_gradient:
            stop = StopReason.MIN_GRADIENT
            break
        epochs += 1
        if success:
            p_norm2 = float(p @ p)
            if p_norm2 == 0.0:
                stop = StopReason.CONVERGED
                epochs -= 1
                break
            sigma = sigma0 / math.sqrt(p_norm2)
            _, g_sig = evaluate(w + sigma * p)
            s = (g_sig - gk) / sigma
            delta_p = float(p @ s)
        delta = delta_p + (lamb - lamb_bar) * p_norm2
        if delta <= 0:  # make the Hessian estimate positive definite
            lamb_bar = 2.0 * (lamb - delta / p_norm2)
            delta = -delta + lamb * p_norm2
            lamb = lamb_bar
        mu = float(p @ r)
        alpha = mu / delta
        fw_new, g_new = evaluate(w + alpha * p)
        if np.isfinite(fw_new) and mu != 0.0:
            comparison = 2.0 * delta * (fw - fw_new) / mu**2
        else:
            comparison = -1.0
        if comparison >= 0:
            w = w + alpha * p
            gk = g_new
            r_new = -gk
            lamb_bar = 0.0
            success = True
            if epochs % n_params == 0:
                p = r_new.copy()  # periodic restart
            else:
                beta = float(r_new @ r_new - r_new @ r) / mu
                p = r_new + beta * p
            r = r_new
            if comparison >= 0.75:
                lamb = max(lamb * 0.25, 1e-300)
            change = fw - fw_new
            fw = fw_new
            history.append(fw)
            flat = flat + 1 if abs(change) < _FLAT_TOL else 0
        else:
            lamb_bar = lamb
            success = False
            flat += 1  # a rejected step makes no progress
        if comparison < 0.25:
            lamb = min(lamb + delta * (1.0 - comparison) / p_norm2, 1e300)
        if flat >= _FLAT_RUN:
            stop = StopReason.CONVERGED
            break
    gnorm = float(np.linalg.norm(r))
    if stop == StopReason.MAX_EPOCHS and gnorm <= cfg.min_gradient:
        stop = StopReason.MIN_GRADIENT
    return unflatten_params(w, *shape), TrainReport(epochs, fw, gnorm, stop, tuple(history))


def train(net, x, y, cfg):
    if cfg.trainer == "momentum":
        return train_momentum(net, x, y, cfg)
    return train_scg(net, x, y, cfg)


# ---------------------------------------------------------------------------
# Model files


def save_model(path, net, labels):
    """Line-oriented text model file; 17 significant digits round-trip
    float64 parameters exactly. Checks the labels before any write."""
    check_text_fields(labels, path)
    lines = [
        "%s v%d" % (MODEL_MAGIC, MODEL_VERSION),
        "dims %d %d %d" % (net.n_in, net.n_hidden, net.n_out),
        "layout row-major W1 b1 W2 b2",
        "labels %s" % ",".join(labels),
    ]
    for v in flatten_params(net):
        lines.append(format(v, ".17g"))
    write_utf8(path, "\n".join(lines) + "\n")


def load_model(path):
    """Inverse of save_model; returns (net, labels)."""
    try:
        lines = read_utf8(path, MalformedModelFileError).splitlines()
    except OSError as exc:
        raise MalformedModelFileError("cannot read %s: %s" % (path, exc))
    if len(lines) < 4:
        raise MalformedModelFileError("model file too short")
    head = lines[0].split()
    if len(head) != 2 or head[0] != MODEL_MAGIC or not head[1].startswith("v"):
        raise MalformedModelFileError("bad model header %r" % lines[0])
    try:
        version = int(head[1][1:])
    except ValueError:
        raise MalformedModelFileError("bad model version %r" % head[1])
    if version != MODEL_VERSION:
        raise VersionMismatchError("model version %d, reader supports %d" % (version, MODEL_VERSION))
    dims = lines[1].split()
    if len(dims) != 4 or dims[0] != "dims":
        raise MalformedModelFileError("bad dims line %r" % lines[1])
    try:
        n_in, n_hidden, n_out = (int(v) for v in dims[1:])
    except ValueError:
        raise MalformedModelFileError("bad dims line %r" % lines[1])
    if lines[2] != "layout row-major W1 b1 W2 b2":
        raise MalformedModelFileError("bad layout line %r" % lines[2])
    if not lines[3].startswith("labels "):
        raise MalformedModelFileError("bad labels line %r" % lines[3])
    labels = lines[3][len("labels ") :].split(",")
    if len(labels) != n_out:
        raise MalformedModelFileError("%d labels for %d outputs" % (len(labels), n_out))
    total = n_hidden * n_in + n_hidden + n_out * n_hidden + n_out
    params = lines[4:]
    if len(params) != total:
        raise MalformedModelFileError("expected %d parameters, found %d" % (total, len(params)))
    try:
        theta = np.array([float(v) for v in params])
    except ValueError:
        raise MalformedModelFileError("non-numeric parameter line")
    if not np.all(np.isfinite(theta)):
        raise MalformedModelFileError("non-finite parameter")
    return unflatten_params(theta, n_in, n_hidden, n_out), labels
