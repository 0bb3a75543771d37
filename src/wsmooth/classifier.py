"""Small dense classifiers with hand-written forward and backward passes,
plus an SGD-with-momentum trainer on softmax cross-entropy that perturbs
each minibatch with one shared noise draw so the base classifier sees the
distribution the smoothed classifier will sample at prediction time.

Inputs are flattened pixel arrays and may be negative (flow noise can push
pixels below zero); nothing clamps them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .flow_domain import (AT_LEAST_0, AT_LEAST_1, AT_LEAST_2, POSITIVE, _check_fields,
                          _check_value, channel_shape)
from .smoothing import FLOW, NoiseSpec, _sample_increments

CHECKPOINT_VERSION = 1


@dataclass
class ClassifierParams:
    """Dense feed-forward parameters: zero or more ReLU hidden layers and a
    linear output layer of logits.  weights[i] has shape (d_in, d_out); the
    first d_in is the flattened input size and the last d_out is num_classes,
    so the arrays alone fix the architecture."""

    input_shape: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    num_classes: int = field(init=False)

    def __post_init__(self):
        self.input_shape = tuple(int(_check_value(f"input_shape[{i}]", int, side, AT_LEAST_0))
                                 for i, side in enumerate(self.input_shape))
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be nonempty lists of equal length")
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        if not all(np.isfinite(a).all() for a in self.weights + self.biases):
            raise ValueError("weights and biases must be finite")
        d_in = self.input_dim
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape != (d_in, b.size):
                raise ValueError(
                    f"layer {i}: weight shape {w.shape} and bias shape {b.shape} "
                    f"do not chain from input width {d_in}"
                )
            d_in = b.size
        self.num_classes = _check_value("num_classes", int, d_in, AT_LEAST_2)

    @property
    def input_dim(self) -> int:
        return int(np.prod(self.input_shape))

    def arrays(self) -> list[np.ndarray]:
        """Parameters in the fixed order [W0, b0, W1, b1, ...] used by
        gradients and the optimizer."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def forward_batch(self, X) -> np.ndarray:
        """Logits of a batch, shape (S, num_classes).  Every caller only
        takes the argmax, the 0-based predicted class, so no softmax is
        computed; training applies it inside the cross-entropy."""
        return _forward(self, X)[0]


def init_params(input_shape, num_classes: int, hidden: int | None = None,
                rng=None) -> ClassifierParams:
    """Random initial parameters: logistic regression when hidden is None,
    otherwise one ReLU hidden layer of that width.  Weights are Gaussian
    with std 1/sqrt(fan-in), biases zero."""
    rng = np.random.default_rng(rng)
    dims = [math.prod(_check_value(f"input_shape[{i}]", int, side, AT_LEAST_1)
                      for i, side in enumerate(input_shape))]
    if hidden is not None:
        dims.append(_check_value("hidden", int, hidden, AT_LEAST_1))
    dims.append(_check_value("num_classes", int, num_classes, AT_LEAST_2))
    weights = []
    biases = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return ClassifierParams(tuple(input_shape), weights, biases)


def _forward(params: ClassifierParams, X) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits of a batch and the input of every layer: the flattened batch,
    then each hidden layer's ReLU output."""
    X = np.asarray(X, dtype=float)
    flat = X.reshape(X.shape[0], -1)
    if flat.shape[1] != params.input_dim:
        raise ValueError(f"batch of width {flat.shape[1]} fed to classifier "
                         f"expecting {params.input_dim}")
    acts = [flat]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    return acts[-1] @ params.weights[-1] + params.biases[-1], acts


def _backward(params: ClassifierParams, X, labels, mean: bool):
    """Backprop of each row's cross-entropy loss against its label (a logit column).

    Returns the per-row losses (through log-sum-exp, so saturated logits do
    not produce infinities), the layer inputs, and the gradient at each
    layer's output: of the batch-mean loss when ``mean``, else of each
    row's own loss.
    """
    logits, acts = _forward(params, X)
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (len(logits),):
        raise ValueError("one label per batch row required")
    if labels.size and (labels.min() < 0 or labels.max() >= params.num_classes):
        raise ValueError(f"labels must lie in [0, {params.num_classes})")
    rows = np.arange(len(labels))
    zmax = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - zmax)
    total = e.sum(axis=1)
    losses = zmax[:, 0] + np.log(total) - logits[rows, labels]
    delta = e / total[:, None]
    delta[rows, labels] -= 1.0
    if mean:
        delta /= len(labels)
    deltas = [delta]
    for layer in range(len(params.weights) - 1, 0, -1):
        deltas.append((deltas[-1] @ params.weights[layer].T) * (acts[layer] > 0))
    return losses, acts, deltas[::-1]


def loss_and_gradients(params: ClassifierParams, X, labels) -> tuple[float, list[np.ndarray]]:
    """Mean cross-entropy over the batch and its gradients in arrays() order."""
    losses, acts, deltas = _backward(params, X, labels, mean=True)
    grads = [g for a, d in zip(acts, deltas) for g in (a.T @ d, d.sum(axis=0))]
    return float(np.mean(losses)), grads


def input_gradient_batch(params: ClassifierParams, X, labels) -> np.ndarray:
    """Per-sample gradient of each sample's own cross-entropy loss with
    respect to its input pixels; shape matches X."""
    _, _, deltas = _backward(params, X, labels, mean=False)
    return (deltas[0] @ params.weights[0].T).reshape(np.shape(X))


@dataclass(frozen=True)
class TrainConfig:
    """The model width, SGD-with-momentum hyperparameters and the training-time noise.

    noise and sigma are a NoiseSpec's smoothing scheme and standard
    deviation; sigma = 0 trains without noise.  One noise draw is shared by
    every image in a minibatch, which is cheap and sufficient since fresh
    noise arrives every batch.
    """

    epochs: int = 200
    batch_size: int = 128
    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    noise: str = FLOW
    sigma: float = 0.0
    seed: int = 0
    hidden: int | None = None  # init_params' hidden-layer width; None: a linear model

    def __post_init__(self):
        _check_fields(self, epochs=AT_LEAST_1, batch_size=AT_LEAST_1, learning_rate=POSITIVE,
                      momentum=("in [0, 1)", lambda v: 0 <= v < 1), weight_decay=AT_LEAST_0,
                      seed=AT_LEAST_0, hidden=AT_LEAST_1)
        NoiseSpec(self.noise, self.sigma)  # refuses a bad scheme or sigma < 0


@dataclass
class TrainResult:
    params: ClassifierParams
    epoch_losses: list[float] = field(default_factory=list)


@np.errstate(over="ignore", invalid="ignore")
def train(dataset, config: TrainConfig) -> TrainResult:
    """Train a classifier on a labeled dataset under the configured noise.

    Randomness (init, shuffling, noise) flows from config.seed through three
    spawned streams, so runs are bit-for-bit reproducible; with sigma 0 the
    sampler adds zeros and never consumes the noise stream, whatever the scheme.
    A diverged run overflows to inf and NaN without a RuntimeWarning; its
    non-finite weights are refused where they would be kept, by save_checkpoint.
    """
    X, y = dataset.as_arrays()
    root = np.random.default_rng(config.seed)
    r_init, r_shuffle, r_noise = root.spawn(3)
    params = init_params(X.shape[1:], dataset.num_classes, config.hidden, r_init)
    velocity = [np.zeros_like(a) for a in params.arrays()]
    spec = NoiseSpec(config.noise, config.sigma)
    cshape = channel_shape(X.shape[1:])
    losses = []
    num = len(X)
    starts = range(0, num, config.batch_size)
    for _ in range(config.epochs):
        perm = r_shuffle.permutation(num)
        increments = _sample_increments(spec, cshape, len(starts), r_noise)
        epoch_loss = 0.0
        for b, start in enumerate(starts):
            idx = perm[start : start + config.batch_size]
            xb = X[idx]
            xb += increments[b].reshape(X.shape[1:])
            loss, grads = loss_and_gradients(params, xb, y[idx])
            for p, g, v in zip(params.arrays(), grads, velocity):
                np.multiply(v, config.momentum, out=v)
                v += g + config.weight_decay * p
                p -= config.learning_rate * v
            epoch_loss += loss * len(idx)
        losses.append(epoch_loss / num)
    return TrainResult(params, losses)


def accuracy(params: ClassifierParams, dataset) -> float:
    """Clean accuracy of the base classifier's argmax on a dataset."""
    X, y = dataset.as_arrays()
    pred = np.argmax(params.forward_batch(X), axis=1)
    return float(np.mean(pred == y))


def _check_hidden(params: ClassifierParams, config: TrainConfig):
    """Refuse a config that would not rebuild the params: init_params makes
    one hidden layer of width config.hidden, or none when it is None."""
    widths = [b.size for b in params.biases[:-1]]
    if widths != ([] if config.hidden is None else [config.hidden]):
        raise ValueError(f"hidden {config.hidden!r} does not describe the hidden widths {widths}")


def save_checkpoint(path, params: ClassifierParams, config: TrainConfig):
    """Write params and config to a single .npz container, making its
    directory if needed.

    Arrays go in as w0, b0, w1, b1, ...; a JSON string under "meta" carries
    the format version, input shape and TrainConfig.  The class count and
    depth are the arrays', and config.hidden must describe them.  What
    load_checkpoint refuses, non-finite weights included, is refused before
    anything is written: training updates the arrays in place, past
    ClassifierParams' own check.
    """
    params = ClassifierParams(params.input_shape, params.weights, params.biases)
    _check_hidden(params, config)
    arrays = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    meta = json.dumps({"version": CHECKPOINT_VERSION, "input_shape": list(params.input_shape),
                       "config": asdict(config)})
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(meta), **arrays)


def load_checkpoint(path) -> tuple[ClassifierParams, TrainConfig]:
    """Inverse of save_checkpoint: every layer the file holds, under its
    recorded config.  Raises ValueError for an unknown format version and
    for a meta that does not describe the params and config."""
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(str(z["meta"]))
        if not isinstance(meta, dict):
            raise ValueError(f"checkpoint meta is not a JSON object: {meta!r:.60}")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
        try:
            layers = range(len(z.files) // 2)  # meta, w0, b0, w1, b1, ...
            params = ClassifierParams(tuple(meta["input_shape"]), [z[f"w{i}"] for i in layers],
                                      [z[f"b{i}"] for i in layers])
            config = TrainConfig(**meta["config"])
            _check_hidden(params, config)
            return params, config
        except (KeyError, TypeError, ValueError) as exc:  # a missing or unknown key, a bad value
            raise ValueError(f"checkpoint meta does not fit: {exc!r}") from None
