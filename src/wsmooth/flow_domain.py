"""Grid images and signed local flows between 4-adjacent pixels.

An image is a plain float array, (n, m) or (C, n, m), of nonnegative
intensities whose grand total is 1; ``_check_unit_mass`` checks that
where images enter the package and ``as_channels`` views either form as
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
flow is a (2, E) array of packed edges, forward over backward.  Every
module imports this one, so ``_check_value`` here is the package's one
type-and-range check of counts, class counts, radii, levels and fields.
"""

from __future__ import annotations

import math
import numbers
import sys
import typing
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

# Tolerance for the unit-mass check on incoming images.
MASS_TOL = 1e-9

# Ranges: the words an error message uses, and the test.
AT_LEAST_0 = (">= 0", lambda v: v >= 0)
AT_LEAST_1 = (">= 1", lambda v: v >= 1)
AT_LEAST_2 = (">= 2", lambda v: v >= 2)
POSITIVE = ("> 0", lambda v: v > 0)
OPEN_UNIT = ("in (0, 1)", lambda v: 0 < v < 1)
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite number"),
          str: (str, "a string")}


def _check_value(name: str, kind: type, value, rule=None):
    """``value`` if it is of ``kind`` (int: an integer but not a bool; float: a
    finite number, returned as a float; str) and within ``rule``, a (words,
    test) range; else ValueError("<name> must be <words>, got <value>")."""
    types, words = _KINDS[kind]
    # The bound also refuses nan, inf and integers too large for a float.
    if (not isinstance(value, types) or isinstance(value, bool)
            or kind is float and not abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be {words}, got {value!r}")
    value = float(value) if kind is float else value
    if rule is not None and not rule[1](value):
        raise ValueError(f"{name} must be {rule[0]}, got {value!r}")
    return value


def _check_fields(config, **ranges):
    """Check each field of a config dataclass with _check_value: its
    annotated kind, and the range ``ranges`` gives under its name.  A
    ``float | None`` field may also be None."""
    for name, hint in typing.get_type_hints(type(config)).items():
        value = getattr(config, name)
        kinds = typing.get_args(hint) or (hint,)
        if value is not None or type(None) not in kinds:
            _check_value(name, kinds[0], value, ranges.get(name))


def _as_float_grid(values, name: str = "values") -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D grid, got shape {a.shape}")
    return a


def channel_shape(shape) -> tuple[int, ...]:
    """The (C, n, m) form of an image shape: (n, m) is the one-channel (1, n, m)."""
    if len(shape) not in (2, 3):
        raise ValueError(f"expected a 2-D or 3-D image, got shape {tuple(shape)}")
    return tuple(shape) if len(shape) == 3 else (1, *shape)


def as_channels(x) -> np.ndarray:
    """View an (n, m) or (C, n, m) image as a (C, n, m) float array."""
    a = np.asarray(x, dtype=float)
    return a.reshape(channel_shape(a.shape))


def _check_stack_shape(x: np.ndarray):
    if x.ndim not in (3, 4) or 0 in x.shape:
        raise ValueError(f"images must stack nonempty 2-D or 3-D arrays, got {x.shape}")


def _check_unit_mass(x: np.ndarray):
    """Refuse a float (N, n, m) or (N, C, n, m) stack by its first image with
    a negative pixel or a grand total not 1 within MASS_TOL (NaN too)."""
    _check_stack_shape(x)
    axes = tuple(range(1, x.ndim))
    negative, totals = (x < 0).any(axis=axes), x.sum(axis=axes)
    bad = np.flatnonzero(negative | ~(np.abs(totals - 1.0) <= MASS_TOL))
    if bad.size:
        i = bad[0]
        why = ("a negative pixel" if negative[i]
               else f"total mass {float(totals[i])!r}, not 1 within {MASS_TOL}")
        raise ValueError(f"image {i} has {why}")


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
            raise ValueError(f"total mass {total!r} is not 1 within {MASS_TOL}")
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
        raise ValueError(f"flows of shape {edges.shape} do not fit a {tuple(cshape)} "
                         f"image's {edge_count(cshape)} packed edges")
    lead = edges.shape[:-1]
    flat = edges.reshape(math.prod(lead), edges.shape[-1])
    return (divergence_matrix(tuple(cshape)) @ flat.T).T.reshape(lead + tuple(cshape))


def divergence_adjoint(g: np.ndarray) -> np.ndarray:
    """D^T g, with <D f, g> = <f, D^T g>: each packed edge gets the difference
    of g across it (head minus tail), so a pixel-space gradient g of shape
    (..., C, n, m) pulls back to flow coordinates of shape (..., E)."""
    if g.ndim < 3:
        raise ValueError(f"expected (..., C, n, m) pixel values, got shape {g.shape}")
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
    cshape = channel_shape(a.shape)
    f = np.asarray(edges, dtype=float)
    if f.shape != (edge_count(cshape),):
        raise ValueError(f"flow of shape {f.shape} applied to image of shape {a.shape}: "
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
    1-Wasserstein distance between the two distributions.  ``x`` and ``xp``
    are checked as images 0 and 1, each a 1 x L grid.
    """
    xa = np.asarray(x, dtype=float)
    xpa = np.asarray(xp, dtype=float)
    if xa.ndim != 1 or xpa.ndim != 1:
        raise ValueError("inputs must be 1-D distributions")
    if xa.shape != xpa.shape:
        raise ValueError(f"length mismatch {xa.shape} vs {xpa.shape}")
    _check_unit_mass(np.stack([xa, xpa])[:, None])
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
        raise ValueError(f"directed edge flow must have shape (2, E), got {a.shape}")
    return a[0] - a[1]
