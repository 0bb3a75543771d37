"""Grid images and signed local flows between 4-adjacent pixels.

An image is a plain float array, (n, m) or (C, n, m), of nonnegative
intensities whose grand total is 1; ``unit_mass`` checks that where an
image enters the package and ``as_channels`` views either form as
(C, n, m).  A local flow moves mass only between vertically or
horizontally adjacent pixels.  Applying a flow f to an image x gives
x + D f, where D is the grid divergence: each pixel gains its net inflow,
so total mass is conserved even though individual pixels may go negative.
``divergence`` and its adjoint ``divergence_adjoint`` are the one
implementation of D and D^T that smoothing, training and the attack
share; both are batched over leading axes.  ``pack_edges`` /
``unpack_edges`` are the one flat layout of a (C, n, m) image's edge
values, and a flow is always an array in that layout: smoothing draws its
noise there, the attack keeps its perturbation there, and the grid oracle
returns its directed edge flow as a (2, E) array whose rows ship forward
and backward along the same packed edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance for the unit-mass check on incoming images.
MASS_TOL = 1e-9


class ShapeMismatchError(ValueError):
    """Operands describe grids of incompatible dimensions."""


class NormalizationError(ValueError):
    """Grid is not a unit-mass nonnegative intensity field."""


def _as_float_grid(values, name: str = "values") -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ShapeMismatchError(f"{name} must be a nonempty 2-D grid, got shape {a.shape}")
    return a


def as_channels(x) -> np.ndarray:
    """View an (n, m) or (C, n, m) image as a (C, n, m) float array."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 2:
        return a[None]
    if a.ndim != 3:
        raise ShapeMismatchError(f"expected a 2-D or 3-D image, got shape {a.shape}")
    return a


def unit_mass(x) -> np.ndarray:
    """``x`` as a float array, checked to be a nonempty (n, m) or (C, n, m)
    nonnegative image whose grand total is 1 within MASS_TOL.

    Individual channels may carry any nonnegative share of the mass.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim not in (2, 3) or a.size == 0:
        raise ShapeMismatchError(f"image must be a nonempty 2-D or 3-D array, got shape {a.shape}")
    if np.any(a < 0):
        raise NormalizationError("image intensities must be nonnegative")
    total = float(a.sum())
    if not abs(total - 1.0) <= MASS_TOL:  # NaN fails too
        raise NormalizationError(f"total mass {total!r} is not 1 within {MASS_TOL}")
    return a


@dataclass
class RawGrid:
    """Real-valued grid with total mass 1; entries may be negative.

    This is the codomain of flow application: mass is conserved but nothing
    keeps individual pixels nonnegative.
    """

    values: np.ndarray

    def __post_init__(self):
        a = _as_float_grid(self.values).copy()
        total = float(a.sum())
        if not abs(total - 1.0) <= MASS_TOL:  # NaN fails too
            raise NormalizationError(f"total mass {total!r} is not 1 within {MASS_TOL}")
        a.setflags(write=False)
        self.values = a


def divergence(vert: np.ndarray, horiz: np.ndarray) -> np.ndarray:
    """Net inflow D f of every pixel under the signed edge flows f.

    vert has shape (..., n-1, m) and horiz (..., n, m-1), with the sign
    convention of unpack_edges; the result has shape (..., n, m) and each
    of its grids sums to zero.
    """
    out = np.zeros(horiz.shape[:-1] + vert.shape[-1:])
    out[..., 1:, :] += vert
    out[..., :-1, :] -= vert
    out[..., :, 1:] += horiz
    out[..., :, :-1] -= horiz
    return out


def divergence_adjoint(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D^T g: the (vert, horiz) edge values with <D f, g> = <f, D^T g>.

    Each edge gets the difference of g across it (head minus tail), so a
    pixel-space gradient pulls back to the flow coordinates.  g has shape
    (..., n, m); the result has shapes (..., n-1, m) and (..., n, m-1).
    """
    return g[..., 1:, :] - g[..., :-1, :], g[..., :, 1:] - g[..., :, :-1]


def edge_count(cshape: tuple[int, int, int]) -> int:
    """Length C((n-1)m + n(m-1)) of the packed edge vector of a (C, n, m) image."""
    c, n, m = cshape
    return c * ((n - 1) * m + n * (m - 1))


def unpack_edges(edges: np.ndarray, cshape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel (vert, horiz) stacks of packed edge vectors.

    The packed vector holds, channel by channel, the row-major vertical
    edges followed by the row-major horizontal edges; pack_edges inverts
    this.  edges has shape (..., edge_count(cshape)); the results have
    shapes (..., C, n-1, m) and (..., C, n, m-1).  vert[..., i, j] moves
    mass from pixel (i, j) to (i+1, j) and horiz[..., i, j] from (i, j) to
    (i, j+1); negative values move it the opposite way.  Flows across the
    image boundary do not exist.
    """
    c, n, m = cshape
    nv = (n - 1) * m
    blocks = edges.reshape(edges.shape[:-1] + (c, nv + n * (m - 1)))
    lead = blocks.shape[:-1]
    return blocks[..., :nv].reshape(lead + (n - 1, m)), blocks[..., nv:].reshape(lead + (n, m - 1))


def pack_edges(vert: np.ndarray, horiz: np.ndarray) -> np.ndarray:
    """Inverse of unpack_edges: (..., C, n-1, m) and (..., C, n, m-1) stacks
    to packed vectors of shape (..., edge_count)."""
    lead = vert.shape[:-2]
    flat = np.concatenate([vert.reshape(lead + (-1,)), horiz.reshape(lead + (-1,))], axis=-1)
    return flat.reshape(lead[:-1] + (-1,))


def apply_flow(x, edges) -> RawGrid:
    """Redistribute the mass of ``x`` (an (n, m) array or a RawGrid) along
    the signed flows ``edges``, a packed vector of length
    edge_count((1, n, m)).

    Each pixel gains what its up/left neighbors push in and loses what it
    pushes out, so the total is preserved exactly up to float rounding.
    Destination pixels can go negative; the result is a RawGrid.  The
    packed length 2nm - n - m is the same for (n, m) and (m, n), so only
    the length is checked: the caller must pass flows made for the image's
    own shape.
    """
    a = _as_float_grid(x.values if isinstance(x, RawGrid) else x, "image")
    cshape = (1,) + a.shape
    f = np.asarray(edges, dtype=float)
    if f.shape != (edge_count(cshape),):
        raise ShapeMismatchError(f"flow of shape {f.shape} applied to image of shape {a.shape}: "
                                 f"expected ({edge_count(cshape)},)")
    return RawGrid(a + divergence(*unpack_edges(f, cshape))[0])


def l1_norm(edges) -> float:
    """Total moved mass |edges|_1, the transport cost of a signed packed
    flow under unit per-step cost."""
    return float(np.abs(edges).sum())


def solve_flow_1d(x, xp) -> np.ndarray:
    """Unique flow vector turning 1-D distribution ``x`` into ``xp``.

    Entry i is the net mass crossing the boundary between cells i and i+1,
    which telescopes to cumsum(x)[i] - cumsum(xp)[i].  Its L1 norm is the
    1-Wasserstein distance between the two distributions.
    """
    xa = np.asarray(x, dtype=float)
    xpa = np.asarray(xp, dtype=float)
    if xa.ndim != 1 or xpa.ndim != 1:
        raise ShapeMismatchError("inputs must be 1-D distributions")
    if xa.shape != xpa.shape:
        raise ShapeMismatchError(f"length mismatch {xa.shape} vs {xpa.shape}")
    for name, arr in (("x", xa), ("xp", xpa)):
        if np.any(arr < 0):
            raise NormalizationError(f"{name} must be nonnegative")
        if not abs(float(arr.sum()) - 1.0) <= MASS_TOL:
            raise NormalizationError(f"{name} must sum to 1 within {MASS_TOL}")
    return (np.cumsum(xa) - np.cumsum(xpa))[:-1]


def flow_from_edge(arcs) -> np.ndarray:
    """Net signed packed flow of a nonnegative (2, E) directed edge flow
    whose rows ship forward (down / right) and backward (up / left) in the
    packed order.

    Opposite directions on the same pixel pair cancel, so the net flow's L1
    norm never exceeds the directed total and is strictly smaller whenever
    the flow circulates mass both ways.
    """
    a = np.asarray(arcs, dtype=float)
    if a.ndim != 2 or a.shape[0] != 2:
        raise ShapeMismatchError(f"directed edge flow must have shape (2, E), got {a.shape}")
    return a[0] - a[1]
