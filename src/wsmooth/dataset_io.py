"""Dataset plumbing: IDX-format readers, normalization of raw
intensity grids into unit-mass images, and deterministic synthetic datasets
for desk-scale experiments."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .flow_domain import MASS_TOL, NormalizationError, ShapeMismatchError, unit_mass

# IDX magic numbers: unsigned-byte data, rank 3 for image stacks and rank 1
# for label vectors.
IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """File does not look like the expected IDX record type."""


class IdxLengthError(ValueError):
    """File size disagrees with its own header."""


class PairingError(ValueError):
    """Image and label collections do not line up."""


class DegenerateImageError(ValueError):
    """Image with zero total mass cannot be normalized."""


def _read_exact(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise IdxLengthError(f"truncated file {fh.name}: expected {count} bytes of {what}, "
                             f"got {len(data)}")
    return data


def _check_no_trailing(fh):
    if fh.read(1):
        raise IdxLengthError(f"trailing bytes after declared payload in {fh.name}")


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image stack as a (N, rows, cols) uint8 array."""
    with open(path, "rb") as fh:
        magic, num, rows, cols = struct.unpack(">iiii", _read_exact(fh, 16, "header"))
        if magic != IMAGE_MAGIC:
            raise IdxFormatError(f"bad image magic {magic:#010x}, expected {IMAGE_MAGIC:#010x}")
        if num < 0 or rows < 0 or cols < 0:
            raise IdxFormatError(f"negative dimensions in header: {num} x {rows} x {cols}")
        payload = _read_exact(fh, num * rows * cols, "pixels")
        _check_no_trailing(fh)
    return np.frombuffer(payload, dtype=np.uint8).reshape(num, rows, cols)


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label vector as a (N,) uint8 array."""
    with open(path, "rb") as fh:
        magic, num = struct.unpack(">ii", _read_exact(fh, 8, "header"))
        if magic != LABEL_MAGIC:
            raise IdxFormatError(f"bad label magic {magic:#010x}, expected {LABEL_MAGIC:#010x}")
        if num < 0:
            raise IdxFormatError(f"negative count in header: {num}")
        payload = _read_exact(fh, num, "labels")
        _check_no_trailing(fh)
    return np.frombuffer(payload, dtype=np.uint8)


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Read a paired IDX image/label set, insisting the counts agree."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if len(images) != len(labels):
        raise PairingError(f"{len(images)} images but {len(labels)} labels")
    return images, labels


def normalize(raw) -> np.ndarray:
    """Scale a nonnegative (n, m) or (C, n, m) grid to grand total mass 1.

    Intensity grids (e.g. 0..255 bytes) become distributions; an all-zero
    grid has no distribution and is rejected, since smoothing one would be
    meaningless.  Already-normalized input passes through unchanged.
    """
    a = np.asarray(raw, dtype=float)
    if a.ndim not in (2, 3) or a.size == 0:
        raise ShapeMismatchError(f"raw image must be a nonempty 2-D or 3-D array, got {a.shape}")
    if not np.isfinite(a).all():
        raise NormalizationError("raw image intensities must be finite (found NaN or inf)")
    if np.any(a < 0):
        raise NormalizationError("raw image intensities must be nonnegative")
    total = float(a.sum())
    if total <= 0.0:
        raise DegenerateImageError("image has zero total mass")
    return unit_mass(a / total)


@dataclass
class LabeledDataset:
    """Unit-mass images with 1-based integer labels.

    ``images`` is kept as one read-only (N, n, m) or (N, C, n, m) float
    array, checked in one pass to hold ``unit_mass`` images.  An array
    passed in is not copied, only viewed read-only.
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=float).view()
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.ndim != 1 or len(self.images) != self.labels.size:
            raise PairingError(
                f"{len(self.images)} images but label array of shape {self.labels.shape}"
            )
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.labels.size and (self.labels.min() < 1 or self.labels.max() > self.num_classes):
            raise ValueError(f"labels must lie in [1, {self.num_classes}]")
        x = self.images
        if x.ndim not in (3, 4) or 0 in x.shape[1:]:
            raise ShapeMismatchError(f"images must stack nonempty 2-D or 3-D arrays, got {x.shape}")
        axes = tuple(range(1, x.ndim))
        off_mass = ~(np.abs(x.sum(axis=axes) - 1.0) <= MASS_TOL)  # NaN is off too
        bad = np.flatnonzero((x < 0).any(axis=axes) | off_mass)
        if bad.size:
            raise NormalizationError(f"image {bad[0]} has a negative pixel or a total mass "
                                     f"that is not 1 within {MASS_TOL}")
        x.setflags(write=False)

    def __len__(self) -> int:
        return len(self.images)

    @property
    def image_shape(self) -> tuple[int, ...]:
        return self.images.shape[1:]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only image array itself, plus a copy of the 1-based labels."""
        return self.images, self.labels.copy()

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=int)
        return LabeledDataset(self.images[indices], self.labels[indices], self.num_classes)


def make_dataset(images, labels, num_classes: int | None = None, label_base: int = 0) -> LabeledDataset:
    """Normalize raw grids and shift labels to the 1-based convention.

    label_base says what the smallest raw label means (0 for IDX files).
    Zero-mass images are rejected outright; drop them beforehand if the
    source may contain any.
    """
    images = np.asarray(images)
    labels = np.asarray(labels).astype(int)
    if len(images) != len(labels):
        raise PairingError(f"{len(images)} images but {len(labels)} labels")
    shifted = labels + (1 - label_base)
    if num_classes is None:
        num_classes = int(shifted.max()) if shifted.size else 2
    normed = np.empty(images.shape)
    for i, arr in enumerate(images):
        try:
            normed[i] = normalize(arr)
        except DegenerateImageError as exc:
            raise DegenerateImageError(f"image {i}: {exc}") from None
    return LabeledDataset(normed, shifted, num_classes)


def _bars(rng: np.random.Generator, label: int, n: int, m: int) -> np.ndarray:
    base = rng.uniform(0.0, 0.1, size=(n, m))
    if label == 1:
        base[n // 2, :] += 1.0
    else:
        base[:, m // 2] += 1.0
    return base


def _blobs(rng: np.random.Generator, label: int, n: int, m: int) -> np.ndarray:
    ci = rng.uniform(0.5, n / 2 - 1.5) if label == 1 else rng.uniform(n / 2 + 0.5, n - 1.5)
    cj = rng.uniform(1.0, m - 2.0)
    rows, cols = np.ogrid[:n, :m]
    blob = np.exp(-((rows - ci) ** 2 + (cols - cj) ** 2) / (2 * 0.9**2))
    return blob + rng.uniform(0.0, 0.05, size=(n, m))


def _corners(rng: np.random.Generator, label: int, n: int, m: int) -> np.ndarray:
    base = rng.uniform(0.0, 0.05, size=(n, m))
    r0 = 0 if label <= 2 else n - 2
    c0 = 0 if label % 2 else m - 2
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
    if size < 1:
        raise ValueError("size must be >= 1")
    if kind not in _SYNTHETIC:
        raise ValueError(f"unknown synthetic dataset kind {kind!r}")
    num_classes, (min_n, min_m), draw = _SYNTHETIC[kind]
    n, m = shape
    if n < min_n or m < min_m:
        raise ValueError(f"{kind} need at least a {min_n}x{min_m} grid")
    rng = np.random.default_rng(seed)
    images = np.empty((size, n, m))
    labels = np.empty(size, dtype=int)
    for i in range(size):
        labels[i] = int(rng.integers(1, num_classes + 1))
        images[i] = normalize(draw(rng, labels[i], n, m))
    return LabeledDataset(images, labels, num_classes)
