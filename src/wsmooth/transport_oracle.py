"""Exact 1-Wasserstein oracles for unit-mass grid images.

Two independent routes compute the same distance when the ground metric is
the L1 pixel distance: a dense coupling linear program (any metric ground
cost, capped at 64 pixels) and a sparse flow linear program over the
directed edges of the 4-adjacency grid with unit edge costs (the EMD-L1
formulation of Ling & Okada, TPAMI 2007, exact on much larger grids), whose
constraint matrix is [-D, D] for flow_domain's divergence D.  Both are
solved by HiGHS.  The coupling LP leaves the mass the two images share
in place and ships only the difference, from the pixels with surplus to
those with deficit; that is exact because the ground cost is a metric.  The
flow route also yields the optimal directed edge flow, whose net packed
flow is feasible with minimal L1 norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .flow_domain import (MASS_TOL, ShapeMismatchError, as_channels, divergence_matrix,
                          flow_from_edge, unit_mass)

# The dense LP has N^2 variables; past 64 pixels it stops being an oracle
# and starts being a liability.
MAX_LP_PIXELS = 64

# HiGHS settings for both transport LPs.  Presolve misclassifies
# near-degenerate marginals (entries ~1e-10) as infeasible at this primal
# tolerance, so it stays off.
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-9,
    "presolve": False,
}


class ScaleError(ValueError):
    """Problem instance exceeds the size the dense oracle is meant for."""


class ChannelMassError(ValueError):
    """Per-channel masses of the two images disagree, so no per-channel
    transport exists."""


class GroundMetric(Enum):
    """Ground distance between pixel centers (i, j) and (i', j')."""

    L1 = "L1"
    L2 = "L2"

    def cost_matrix(self, shape: tuple[int, int]) -> np.ndarray:
        n, m = shape
        ii, jj = np.unravel_index(np.arange(n * m), (n, m))
        di = np.abs(ii[:, None] - ii[None, :]).astype(float)
        dj = np.abs(jj[:, None] - jj[None, :]).astype(float)
        if self is GroundMetric.L1:
            return di + dj
        return np.hypot(di, dj)


def _coerce_image(x) -> np.ndarray:
    """Validate as a unit-mass nonnegative (n, m) or (C, n, m) grid, then
    renormalize exactly so paired inputs give a consistent transport
    instance."""
    a = unit_mass(x)
    return a / a.sum()


def _check_same_shape(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ShapeMismatchError(f"image shapes differ: {a.shape} vs {b.shape}")


def _solve_lp(cost: np.ndarray, a_eq: sp.csr_matrix,
              b_eq: np.ndarray) -> tuple[float, np.ndarray]:
    """min cost'x subject to a_eq x = b_eq and x >= 0, by HiGHS.

    Both transport LPs conserve mass, so their equality rows are linearly
    dependent; each caller drops the redundant rows first, which keeps the
    system exactly consistent under the tight tolerance.  The optimum and
    the solution are clipped at zero.  scipy.optimize is imported here, not
    at module load, so commands that solve no LP do not pay for loading it.
    """
    from scipy.optimize import linprog

    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return max(float(res.fun), 0.0), np.maximum(res.x, 0.0)


def wasserstein_lp(x, xp, metric: GroundMetric = GroundMetric.L1) -> tuple[float, np.ndarray]:
    """Exact 1-Wasserstein distance by solving the coupling LP directly.

    Minimizes sum(C * P) over couplings P with row marginal x and column
    marginal xp.  Returns the distance and the optimal (N, N) coupling over
    flattened pixel pairs: entry (s, t) is the mass moved from source pixel
    s to target pixel t.  Dense in the number of pixel pairs, so inputs are
    capped at MAX_LP_PIXELS pixels.

    When the ground cost is a metric, some optimal coupling keeps the mass
    the images share, min(x, xp), in place (Kantorovich-Rubinstein duality),
    so the LP only ships the surplus d = x - xp from the sources {d > 0} to
    the sinks {d < 0}.  Both GroundMetric members are metrics; the reduction
    would be wrong for a non-metric cost such as the squared distance.
    """
    a = _coerce_image(x)
    b = _coerce_image(xp)
    _check_same_shape(a, b)
    if a.ndim != 2:
        raise ShapeMismatchError(f"expected an (n, m) image, got shape {a.shape}")
    npix = a.size
    if npix > MAX_LP_PIXELS:
        raise ScaleError(f"{npix} pixels exceeds the dense LP cap of {MAX_LP_PIXELS}")
    cost = metric.cost_matrix(a.shape)
    a, b = a.ravel(), b.ravel()
    coupling = np.diag(np.minimum(a, b))
    surplus = a - b
    sources = np.flatnonzero(surplus > 0)
    sinks = np.flatnonzero(surplus < 0)
    if sources.size == 0 or sinks.size == 0:  # identical up to round-off
        return 0.0, coupling
    # Variable s * |T| + t ships from sources[s] to sinks[t]; it enters row
    # s (that source's outflow) and row |S| + t (that sink's inflow).
    ns, nt = sources.size, sinks.size
    var = np.arange(ns * nt)
    a_eq = sp.csr_matrix(
        (np.ones(2 * var.size), (np.concatenate([var // nt, ns + var % nt]), np.tile(var, 2))),
        shape=(ns + nt, var.size),
    )
    b_eq = np.concatenate([surplus[sources], -surplus[sinks]])
    block = np.ix_(sources, sinks)
    # Both sides ship the same total, so the last row is redundant.
    distance, plan = _solve_lp(cost[block].ravel(), a_eq[:-1], b_eq[:-1])
    coupling[block] = plan.reshape(ns, nt)
    return distance, coupling


@lru_cache(maxsize=32)
def _grid_equations(cshape: tuple[int, int, int]) -> tuple[sp.csr_matrix, np.ndarray]:
    """Equality rows of the grid LP of a (C, n, m) image, and the mask of
    the pixels they constrain.  The rows are the node-arc incidence
    [-D, D] of the 4-adjacency digraph, D = divergence_matrix(cshape): arc
    k ships forward along packed edge k (down / right) and arc E + k
    backward, and the product with an arc flow is each pixel's net
    outflow.  Each channel's rows sum to zero, so its last pixel's row is
    redundant and dropped.  Callers share the cached arrays and must not
    modify them."""
    d = divergence_matrix(cshape)
    pixels = cshape[1] * cshape[2]
    keep = np.arange(d.shape[0]) % pixels != pixels - 1
    return sp.hstack([-d, d], format="csr")[keep], keep


def wasserstein_grid_l1(x, xp) -> tuple[float, np.ndarray]:
    """Exact 1-Wasserstein distance under the L1 ground metric, computed as
    the minimum total adjacent-pixel flow turning ``x`` into ``xp``.

    Moving mass one grid step costs exactly 1 under the L1 metric, so the
    edge flow LP on the adjacency graph (Ling & Okada, TPAMI 2007),
    min 1'f subject to [-D, D] f = x - xp and f >= 0, equals the coupling
    LP's optimum.  Both images are (n, m) or both (C, n, m); mass never
    crosses channels, so for C > 1 the distance is the mass-weighted sum of
    the per-channel distances, solved as one LP on the block-diagonal D.
    Per-channel masses must agree within MASS_TOL (else ChannelMassError);
    each of ``xp``'s channels is then rescaled to ``x``'s mass so every
    block balances exactly, and a channel with no mass moves none.

    The returned arcs are the optimal directed edge flow as a (2, E) array
    of packed edges, forward over backward.  An optimal flow never ships
    both ways along one pixel pair, so its net flow_from_edge(arcs) moves
    ``x`` to ``xp`` with L1 norm equal to the distance.
    """
    a = _coerce_image(x)
    b = _coerce_image(xp)
    _check_same_shape(a, b)
    a, b = as_channels(a), as_channels(b)
    mass_a, mass_b = a.sum(axis=(1, 2)), b.sum(axis=(1, 2))
    if np.any(np.abs(mass_a - mass_b) > MASS_TOL):
        raise ChannelMassError(f"per-channel masses differ: {mass_a} vs {mass_b}")
    if a.shape[0] > 1:  # one channel is balanced by the normalization above
        b = b * (mass_a / np.where(mass_b > 0, mass_b, 1.0))[:, None, None]
    a_eq, keep = _grid_equations(a.shape)
    if a_eq.shape[1] == 0:  # single-pixel channels have no arcs and move no mass
        return 0.0, np.zeros((2, 0))
    distance, flow = _solve_lp(np.ones(a_eq.shape[1]), a_eq, (a - b).ravel()[keep])
    return distance, flow.reshape(2, -1)


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one oracle cross-validation property."""

    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _random_image(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    return rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)


# Each cross-validated property and the largest residual it may show.
_CHECK_TOLERANCES = {
    "lp_vs_grid_l1": 1e-8,
    "min_plan_norm_matches_distance": 1e-8,
    "min_plan_is_feasible": 1e-9,
    "metric_sandwich_l2_l1_sqrt2": 1e-8,
    "pixel_l1_at_most_two_wasserstein": 1e-8,
    "factor_two_equality_instance": 1e-12,
    "product_coupling_feasible": 1e-12,
    "one_dim_closed_form": 1e-9,
}


def run_oracle_checks(num_pairs: int = 50, seed: int = 0) -> list[CheckOutcome]:
    """Cross-validate the transport oracles and flow identities on random
    image pairs; every property must hold up to stated numerical tolerance.

    Covered: agreement of the coupling LP and the grid edge flow LP under
    the L1 ground; the minimal plan's norm and feasibility, also on one
    28 x 28 pair drawn after the small ones; the L1/L2 distance sandwich;
    the factor-2 bound of pixelwise L1 distance by the Wasserstein
    distance, with its exact equality instance; feasibility of the product
    coupling; and the 1-D cumulative-sum closed form.
    """
    from .flow_domain import apply_flow, l1_norm, solve_flow_1d

    if num_pairs < 1:
        raise ValueError("need at least one pair")
    rng = np.random.default_rng(seed)
    res = dict.fromkeys(_CHECK_TOLERANCES, 0.0)

    def worse(name: str, *residuals: float):
        res[name] = max(res[name], *residuals)

    def check_grid_plan(x: np.ndarray, xp: np.ndarray) -> float:
        """The grid oracle's distance; its plan must be feasible and as
        short as that distance."""
        d_grid, edge = wasserstein_grid_l1(x, xp)
        plan = flow_from_edge(edge)
        worse("min_plan_norm_matches_distance", abs(l1_norm(plan) - d_grid))
        worse("min_plan_is_feasible", np.abs(apply_flow(x, plan).values - xp).max())
        return d_grid

    shapes = [(3, 3), (4, 4)]
    for pair in range(num_pairs):
        shape = shapes[pair % len(shapes)]
        x = _random_image(rng, shape)
        xp = _random_image(rng, shape)
        d_l1, _ = wasserstein_lp(x, xp, GroundMetric.L1)
        d_l2, _ = wasserstein_lp(x, xp, GroundMetric.L2)
        d_grid = check_grid_plan(x, xp)
        worse("lp_vs_grid_l1", abs(d_l1 - d_grid))
        worse("metric_sandwich_l2_l1_sqrt2", d_l2 - d_l1, d_l1 - np.sqrt(2.0) * d_l2)
        pix_l1 = float(np.abs(x - xp).sum())
        worse("pixel_l1_at_most_two_wasserstein", pix_l1 - 2.0 * d_l2, pix_l1 - 2.0 * d_l1)
        product = np.outer(x.ravel(), xp.ravel())
        worse("product_coupling_feasible", np.abs(product.sum(axis=1) - x.ravel()).max(),
              np.abs(product.sum(axis=0) - xp.ravel()).max())
        width = shape[0] * shape[1]
        u = rng.dirichlet(np.ones(width))
        v = rng.dirichlet(np.ones(width))
        d_1d, _ = wasserstein_grid_l1(u.reshape(1, width), v.reshape(1, width))
        worse("one_dim_closed_form", abs(float(np.abs(solve_flow_1d(u, v)).sum()) - d_1d))

    # A pair at the paper's MNIST scale, past the dense LP's reach.
    check_grid_plan(_random_image(rng, (28, 28)), _random_image(rng, (28, 28)))

    # One unit of mass at a pixel vs keeping half there and shifting half to
    # a neighbor: the pixelwise L1 distance is 1 while the transport cost is
    # only 1/2, meeting the factor-2 bound with equality.
    split_x = np.array([[1.0, 0.0]])
    split_xp = np.array([[0.5, 0.5]])
    d_split, _ = wasserstein_grid_l1(split_x, split_xp)
    worse("factor_two_equality_instance", abs(d_split - 0.5),
          abs(float(np.abs(split_x - split_xp).sum()) - 1.0))
    return [CheckOutcome(name, float(res[name]), tol) for name, tol in _CHECK_TOLERANCES.items()]
