"""Dataset plumbing: one IDX reader, one normalization pass that turns a
stack of raw intensity grids into unit-mass images, and deterministic
synthetic datasets for desk-scale experiments."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .flow_domain import (AT_LEAST_1, AT_LEAST_2, _check_stack_shape, _check_unit_mass,
                          _check_value)


def _read_idx(path, rank: int) -> np.ndarray:
    """Read an unsigned-byte IDX array of the given rank: 3 for an image
    stack, 1 for a label vector.

    The magic number is 0x0800 + rank.  The size the header declares is
    compared with the file's before anything past the header is read, so
    a corrupt header cannot ask for an absurd allocation.
    """
    magic, head = 0x0800 + rank, 4 * (1 + rank)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < head:
            raise ValueError(f"truncated file {fh.name}: expected {head} bytes of header, "
                             f"got {size}")
        found, *dims = struct.unpack(f">{1 + rank}i", fh.read(head))
        if found != magic:
            raise ValueError(f"bad magic {found:#010x} in {fh.name}, expected {magic:#010x}")
        if min(dims) < 0:
            raise ValueError(f"negative dimensions in header: {' x '.join(map(str, dims))}")
        count, got = math.prod(dims), size - head
        if got < count:
            raise ValueError(f"truncated file {fh.name}: expected {count} bytes of "
                             f"{'pixels' if rank == 3 else 'labels'}, got {got}")
        if got > count:
            raise ValueError(f"trailing bytes after declared payload in {fh.name}")
        payload = fh.read(count)
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Read a paired IDX image/label set: a (N, rows, cols) uint8 stack and
    its (N,) uint8 labels, insisting the counts agree."""
    images = _read_idx(images_path, 3)
    labels = _read_idx(labels_path, 1)
    if len(images) != len(labels):
        raise ValueError(f"{len(images)} images but {len(labels)} labels")
    return images, labels


def _normalize(x: np.ndarray) -> np.ndarray:
    """Divide each image of a float (N, n, m) or (N, C, n, m) stack by its
    grand total, in place, so every image becomes a distribution.

    An image's total must be positive and finite, else the first image whose
    total is not is named; LabeledDataset then checks the pixels themselves.
    An image whose total is exactly 1 comes back bit for bit.
    """
    _check_stack_shape(x)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN totals fail, unwarned
        totals = x.sum(axis=tuple(range(1, x.ndim)), keepdims=True)
        bad = np.flatnonzero(~((totals > 0) & (totals < np.inf)))
        if bad.size:
            raise ValueError(f"image {bad[0]} has total mass {float(totals.flat[bad[0]])!r}, "
                             f"not positive and finite")
        x /= totals
    return x


@dataclass
class LabeledDataset:
    """Unit-mass images with integer labels, logit columns 0 ... num_classes - 1.

    ``images`` is kept as one read-only (N, n, m) or (N, C, n, m) float
    array, checked in one pass to hold at least one image, each of unit
    mass, with one label per image.  An array passed in is not copied, only
    viewed read-only.
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=float).view()
        _check_unit_mass(self.images)
        with np.errstate(invalid="ignore"):  # NaN and inf cast to junk, refused below
            labels, self.labels = self.labels, np.asarray(self.labels).astype(int, copy=False)
        if not np.array_equal(self.labels, labels):
            raise ValueError("labels must be integers")
        if self.labels.ndim != 1 or len(self.images) != self.labels.size:
            raise ValueError(
                f"{len(self.images)} images but label array of shape {self.labels.shape}"
            )
        _check_value("num_classes", int, self.num_classes, AT_LEAST_2)
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        self.images.setflags(write=False)

    def __len__(self) -> int:
        return len(self.images)

    @property
    def image_shape(self) -> tuple[int, ...]:
        return self.images.shape[1:]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only image array itself, plus a copy of the labels."""
        return self.images, self.labels.copy()

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices)
        if indices.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {indices.shape}")
        if indices.size and indices.dtype.kind not in "iu":  # not a bool mask, not cast floats
            raise ValueError(f"indices must be integers, got dtype {indices.dtype}")
        indices = indices.astype(int)
        outside = indices[(indices < 0) | (indices >= len(self.labels))]
        if outside.size:  # numpy would take -1 as the last image
            raise ValueError(f"indices must be in [0, {len(self.labels)}), got {outside[0]}")
        return LabeledDataset(self.images[indices], self.labels[indices], self.num_classes)


def make_dataset(images, labels, num_classes: int | None = None) -> LabeledDataset:
    """Normalize raw grids; labels pass through, num_classes defaults to the top + 1.

    An image whose total is not positive and finite (zero mass included) is
    refused; drop such images beforehand if the source may contain any.
    """
    images = np.array(images, dtype=float)
    labels = np.asarray(labels)
    if num_classes is None:  # LabeledDataset refuses NaN and inf; int() must not fail first
        num_classes = int(np.nan_to_num(labels.max())) + 1 if labels.size else 2
    return LabeledDataset(_normalize(images), labels, num_classes)


def _bars(rng: np.random.Generator, label: int, n: int, m: int) -> np.ndarray:
    base = rng.uniform(0.0, 0.1, size=(n, m))
    if label == 0:
        base[n // 2, :] += 1.0
    else:
        base[:, m // 2] += 1.0
    return base


def _blobs(rng: np.random.Generator, label: int, n: int, m: int) -> np.ndarray:
    ci = rng.uniform(0.5, n / 2 - 1.5) if label == 0 else rng.uniform(n / 2 + 0.5, n - 1.5)
    cj = rng.uniform(1.0, m - 2.0)
    rows, cols = np.ogrid[:n, :m]
    blob = np.exp(-((rows - ci) ** 2 + (cols - cj) ** 2) / (2 * 0.9**2))
    return blob + rng.uniform(0.0, 0.05, size=(n, m))


def _corners(rng: np.random.Generator, label: int, n: int, m: int) -> np.ndarray:
    base = rng.uniform(0.0, 0.05, size=(n, m))
    r0 = 0 if label <= 1 else n - 2
    c0 = m - 2 if label % 2 else 0
    base[r0 : r0 + 2, c0 : c0 + 2] += 0.5
    return base


# kind: (class count, smallest grid, draw of one unnormalized image of a label)
_SYNTHETIC = {"bars": (2, (2, 2), _bars), "blobs": (2, (4, 3), _blobs),
              "corners": (4, (3, 3), _corners)}


def synthetic_dataset(kind: str, size: int, shape: tuple[int, int] = (6, 6),
                      seed=0) -> LabeledDataset:
    """Deterministic synthetic image sets for desk-scale experiments.

    bars:    2 classes, a full-width horizontal bar on the center row vs a
             full-height vertical bar on the center column, over faint
             background noise; linearly separable.
    blobs:   2 classes, a soft blob centered in the top half vs the bottom
             half; the discriminative signal is a half-image mass aggregate.
    corners: 4 classes, a bright 2x2 block in one of the four corners.
    """
    _check_value("size", int, size, AT_LEAST_1)
    if _check_value("kind", str, kind) not in _SYNTHETIC:
        raise ValueError(f"unknown synthetic dataset kind {kind!r}")
    num_classes, (min_n, min_m), draw = _SYNTHETIC[kind]
    if np.array(shape, dtype=object).shape != (2,):
        raise ValueError(f"shape must be (rows, columns), got {shape!r}")
    n, m = (_check_value(f"shape[{i}]", int, side, AT_LEAST_1) for i, side in enumerate(shape))
    if n < min_n or m < min_m:
        raise ValueError(f"{kind} need at least a {min_n}x{min_m} grid")
    rng = np.random.default_rng(seed)
    images = np.empty((size, n, m))
    labels = np.empty(size, dtype=int)
    for i in range(size):
        labels[i] = int(rng.integers(0, num_classes))
        images[i] = draw(rng, labels[i], n, m)
    return LabeledDataset(_normalize(images), labels, num_classes)
