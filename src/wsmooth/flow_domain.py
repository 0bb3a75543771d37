"""Grid images and signed local flows between 4-adjacent pixels.

An image is a plain float array, (n, m) or (C, n, m), of nonnegative
intensities whose grand total is 1; ``unit_mass`` checks that where an
image enters the package and ``as_channels`` views either form as
(C, n, m).  A local flow moves mass only between 4-adjacent pixels and is
always a packed edge vector: channel by channel, the row-major vertical
edges (i, j) -> (i+1, j), then the row-major horizontal edges
(i, j) -> (i, j+1), negative values moving mass the opposite way.
Applying a flow f to an image x gives x + D f, where D, the grid
divergence, is one sparse matrix (``divergence_matrix``): each pixel gains
its net inflow, so total mass is conserved even though individual pixels
may go negative.  ``divergence`` and ``divergence_adjoint`` multiply by D
and D^T, batched over leading axes; smoothing, training and the attack
share them, and the grid oracle's arcs are [-D, D], so its directed edge
flow is a (2, E) array of packed edges, forward over backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

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


def edge_count(cshape: tuple[int, int, int]) -> int:
    """Length C((n-1)m + n(m-1)) of the packed edge vector of a (C, n, m) image."""
    c, n, m = cshape
    return c * ((n - 1) * m + n * (m - 1))


@lru_cache(maxsize=32)
def divergence_matrix(cshape: tuple[int, int, int]) -> sp.csr_matrix:
    """D of a (C, n, m) image as a sparse (C n m, edge_count(cshape)) matrix.

    Column k is +1 at the flattened pixel edge k fills and -1 at the one
    it drains, with one diagonal block per channel.  Each row's entries are
    sorted, so a pixel sums its vertical inflow, vertical outflow,
    horizontal inflow and horizontal outflow in that order.  Callers share
    the cached matrix and must not modify it.
    """
    c = cshape[0]
    pixels = np.arange(math.prod(cshape)).reshape(cshape)
    tails = np.hstack([pixels[:, :-1].reshape(c, -1), pixels[:, :, :-1].reshape(c, -1)]).ravel()
    heads = np.hstack([pixels[:, 1:].reshape(c, -1), pixels[:, :, 1:].reshape(c, -1)]).ravel()
    edges = np.arange(tails.size)
    d = sp.csr_matrix((np.repeat([1.0, -1.0], edges.size),
                       (np.concatenate([heads, tails]), np.tile(edges, 2))),
                      shape=(pixels.size, edges.size))
    d.sort_indices()
    return d


@lru_cache(maxsize=32)  # a CSR copy of D^T multiplies 2-3x faster than the view D.T
def _adjoint_matrix(cshape: tuple[int, int, int]) -> sp.csr_matrix:
    return divergence_matrix(cshape).T.tocsr()


def divergence(edges: np.ndarray, cshape: tuple[int, int, int]) -> np.ndarray:
    """Net inflow D f of every pixel of a (C, n, m) image under packed edge
    flows f of shape (..., edge_count(cshape)); the result has shape
    (..., C, n, m) and each of its grids sums to zero."""
    if edges.shape[-1:] != (edge_count(cshape),):
        raise ShapeMismatchError(f"flows of shape {edges.shape} do not fit a {tuple(cshape)} "
                                 f"image's {edge_count(cshape)} packed edges")
    lead = edges.shape[:-1]
    flat = edges.reshape(math.prod(lead), edges.shape[-1])
    return (divergence_matrix(tuple(cshape)) @ flat.T).T.reshape(lead + tuple(cshape))


def divergence_adjoint(g: np.ndarray) -> np.ndarray:
    """D^T g, with <D f, g> = <f, D^T g>: each packed edge gets the difference
    of g across it (head minus tail), so a pixel-space gradient g of shape
    (..., C, n, m) pulls back to flow coordinates of shape (..., E)."""
    if g.ndim < 3:
        raise ShapeMismatchError(f"expected (..., C, n, m) pixel values, got shape {g.shape}")
    lead, cshape = g.shape[:-3], g.shape[-3:]
    flat = g.reshape(math.prod(lead), math.prod(cshape))
    return (_adjoint_matrix(cshape) @ flat.T).T.reshape(lead + (edge_count(cshape),))


def apply_flow(x, edges) -> RawGrid:
    """x + D f: the mass of ``x`` (an (n, m) array or a RawGrid) moved
    along the packed flow ``edges`` of length edge_count((1, n, m)).

    The total is preserved up to float rounding, but pixels can go
    negative; the result is a RawGrid.  The packed length 2nm - n - m is
    the same for (n, m) and (m, n), so only the length is checked: the
    caller must pass flows made for the image's own shape.
    """
    a = _as_float_grid(x.values if isinstance(x, RawGrid) else x, "image")
    cshape = (1,) + a.shape
    f = np.asarray(edges, dtype=float)
    if f.shape != (edge_count(cshape),):
        raise ShapeMismatchError(f"flow of shape {f.shape} applied to image of shape {a.shape}: "
                                 f"expected ({edge_count(cshape)},)")
    return RawGrid(a + divergence(f, cshape)[0])


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
