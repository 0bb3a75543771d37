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
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .flow_domain import ShapeMismatchError
from .smoothing import FLOW, NoiseSpec, _sample_increments

CHECKPOINT_VERSION = 1


@dataclass
class ClassifierParams:
    """Dense feed-forward parameters: zero or more ReLU hidden layers and a
    linear output layer of logits.  weights[i] has shape (d_in, d_out); the
    first d_in is the flattened input size and the last d_out is num_classes."""

    input_shape: tuple[int, ...]
    num_classes: int
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        self.input_shape = tuple(int(s) for s in self.input_shape)
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be nonempty lists of equal length")
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        if not all(np.isfinite(a).all() for a in self.weights + self.biases):
            raise ValueError("weights and biases must be finite")
        d_in = self.input_dim
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape != (d_in, b.size):
                raise ShapeMismatchError(
                    f"layer {i}: weight shape {w.shape} and bias shape {b.shape} "
                    f"do not chain from input width {d_in}"
                )
            d_in = b.size
        if d_in != self.num_classes:
            raise ShapeMismatchError(
                f"final layer width {d_in} != num_classes {self.num_classes}"
            )

    @property
    def input_dim(self) -> int:
        return int(np.prod(self.input_shape))

    @property
    def num_layers(self) -> int:
        return len(self.weights)

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
    dims = [int(np.prod(input_shape))]
    if hidden is not None:
        if hidden < 1:
            raise ValueError("hidden width must be >= 1")
        dims.append(int(hidden))
    dims.append(int(num_classes))
    weights = []
    biases = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return ClassifierParams(tuple(input_shape), num_classes, weights, biases)


def _forward(params: ClassifierParams, X) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits of a batch and the input of every layer: the flattened batch,
    then each hidden layer's ReLU output."""
    X = np.asarray(X, dtype=float)
    flat = X.reshape(X.shape[0], -1)
    if flat.shape[1] != params.input_dim:
        raise ShapeMismatchError(f"batch of width {flat.shape[1]} fed to classifier "
                                 f"expecting {params.input_dim}")
    acts = [flat]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    return acts[-1] @ params.weights[-1] + params.biases[-1], acts


def _backward(params: ClassifierParams, X, labels, mean: bool):
    """Backprop of each row's cross-entropy loss against its 1-based label.

    Returns the per-row losses (through log-sum-exp, so saturated logits do
    not produce infinities), the layer inputs, and the gradient at each
    layer's output: of the batch-mean loss when ``mean``, else of each
    row's own loss.
    """
    logits, acts = _forward(params, X)
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (len(logits),):
        raise ShapeMismatchError("one label per batch row required")
    if labels.size and (labels.min() < 1 or labels.max() > params.num_classes):
        raise ValueError(f"labels must lie in [1, {params.num_classes}]")
    rows = np.arange(len(labels))
    zmax = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - zmax)
    total = e.sum(axis=1)
    losses = zmax[:, 0] + np.log(total) - logits[rows, labels - 1]
    delta = e / total[:, None]
    delta[rows, labels - 1] -= 1.0
    if mean:
        delta /= len(labels)
    deltas = [delta]
    for layer in range(params.num_layers - 1, 0, -1):
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
    """SGD-with-momentum hyperparameters and the training-time noise.

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

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        NoiseSpec(self.noise, self.sigma)  # refuses a bad scheme, or sigma < 0, NaN or inf


@dataclass
class TrainResult:
    params: ClassifierParams
    epoch_losses: list[float] = field(default_factory=list)


def train(dataset, config: TrainConfig, hidden: int | None = None) -> TrainResult:
    """Train a classifier on a labeled dataset under the configured noise.

    Randomness (init, shuffling, noise) flows from config.seed through three
    spawned streams, so runs are bit-for-bit reproducible; with sigma 0 the
    noise stream is never consumed, whatever the scheme.
    """
    X, y = dataset.as_arrays()
    if len(X) == 0:
        raise ValueError("cannot train on an empty dataset")
    root = np.random.default_rng(config.seed)
    r_init, r_shuffle, r_noise = root.spawn(3)
    params = init_params(X.shape[1:], dataset.num_classes, hidden, r_init)
    velocity = [np.zeros_like(a) for a in params.arrays()]
    spec = NoiseSpec(config.noise, config.sigma)
    cshape = X.shape[1:] if X.ndim == 4 else (1,) + X.shape[1:]
    losses = []
    num = len(X)
    starts = range(0, num, config.batch_size)
    for _ in range(config.epochs):
        perm = r_shuffle.permutation(num)
        if spec.sigma > 0:
            increments = _sample_increments(spec, cshape, len(starts), r_noise)
        epoch_loss = 0.0
        for b, start in enumerate(starts):
            idx = perm[start : start + config.batch_size]
            xb = X[idx]
            if spec.sigma > 0:
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
    if len(X) == 0:
        raise ValueError("empty dataset")
    pred = np.argmax(params.forward_batch(X), axis=1) + 1
    return float(np.mean(pred == y))


def save_checkpoint(path, params: ClassifierParams, config: TrainConfig):
    """Write params and config to a single .npz container.

    Arrays go in as w0, b0, w1, b1, ...; a JSON string under "meta" carries
    the format version, architecture and TrainConfig.
    """
    arrays = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    meta = json.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "input_shape": list(params.input_shape),
            "num_classes": params.num_classes,
            "num_layers": params.num_layers,
            "config": asdict(config),
        }
    )
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(meta), **arrays)


def load_checkpoint(path) -> tuple[ClassifierParams, TrainConfig]:
    """Inverse of save_checkpoint.  Raises ValueError for an unknown format
    version and for a meta that does not describe the params and config."""
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(str(z["meta"]))
        if not isinstance(meta, dict):
            raise ValueError(f"checkpoint meta is not a JSON object: {meta!r:.60}")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
        try:
            layers = range(meta["num_layers"])
            params = ClassifierParams(tuple(meta["input_shape"]), meta["num_classes"],
                                      [z[f"w{i}"] for i in layers], [z[f"b{i}"] for i in layers])
            return params, TrainConfig(**meta["config"])
        except (KeyError, TypeError, ValueError) as exc:  # a missing or unknown key, a bad value
            raise ValueError(f"checkpoint meta does not fit: {exc!r}") from None
