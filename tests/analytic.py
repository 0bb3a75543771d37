"""Analytic companions for the test suite.

A family of two-class linear classifiers that threshold the total mass of a
leading block of full rows (or columns).  Flow noise changes that aggregate
only through the flow coordinates crossing the block boundary, so the
smoothed classifier's exact score is the survival function of a sum of
independent Laplace variables, for which a closed form is given (and
cross-checked against quadrature in the tests).
"""

from __future__ import annotations

import math
import struct
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate, stats
from scipy.special import gammaln

from wsmooth import (ClassifierParams, NoiseSpec, TrainConfig, flow_from_edge, init_params,
                     loss_and_gradients, wasserstein_grid_l1)
from wsmooth.flow_domain import as_channels
from wsmooth.smoothing import _fold, _sample_increments, _vote_counts


def laplace_sum_sf(u: float, k: int) -> float:
    """P(S > u) for S a sum of k iid Laplace(0, 1) variables.

    S is distributed as the difference of two Gamma(k, 1) variables; the
    integral telescopes to an exponential times a polynomial with all
    positive coefficients, so evaluation is stable for any u.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if u < 0:
        return 1.0 - laplace_sum_sf(-u, k)
    total = 0.0
    for j in range(k):
        for i in range(j + 1):
            total += (
                u ** (j - i)
                / (math.factorial(j - i) * math.factorial(i) * math.factorial(k - 1))
                * math.factorial(k - 1 + i)
                / 2.0 ** (k + i)
            )
    return math.exp(-u) * total


def binomial_log_sf(k: int, n: int, p: float) -> float:
    """log P(X >= k) for X ~ Binomial(n, p), 0 < p < 1, as a sum of
    log-space terms: exact to float rounding where betainc underflows."""
    j = np.arange(k, n + 1)
    terms = (gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1)
             + j * np.log(p) + (n - j) * np.log1p(-p))
    top = terms.max()
    return float(top + np.log(np.exp(terms - top).sum()))


def laplace_sum_sf_quad(u: float, k: int) -> float:
    """Independent quadrature route to the same survival function."""
    if u < 0:
        return 1.0 - laplace_sum_sf_quad(-u, k)
    val, _ = integrate.quad(lambda y: stats.gamma.pdf(y, k) * stats.gamma.sf(u + y, k),
                            0, np.inf, limit=200)
    return val


def linear_vote_probability(s: float, g, scale: float) -> float:
    """P(s + e.g > 0) for e iid Laplace(0, scale): the exact probability
    that a two-class linear model, whose logit gap is s at the clean image
    and moves by e.g under noise e, votes for its first class.

    X = e.g has the real characteristic function prod 1/(1 + scale^2 g_i^2
    t^2), so by Gil-Pelaez inversion P(X > -s) = 1/2 + (1/pi) int_0^inf
    sin(s t) phi(t) / t dt.  Splitting off int_0^inf sin(s t) / t dt =
    pi/2 for s > 0 leaves the smooth integrand (phi(t) - 1) / t, which
    quad's Fourier rule (weight="sin") integrates to infinity; s < 0
    follows by symmetry.
    """
    c2 = (scale * np.asarray(g, dtype=float).ravel()) ** 2
    if s < 0:
        return 1.0 - linear_vote_probability(-s, g, scale)
    if s == 0 or not c2.any():
        return 0.5 if s == 0 else 1.0

    def integrand(t):
        return 0.0 if t == 0 else math.expm1(-np.log1p(c2 * t * t).sum()) / t

    val, _ = integrate.quad(integrand, 0, np.inf, weight="sin", wvar=s)
    return 1.0 + val / math.pi


@dataclass
class RegionThresholdClassifier:
    """Two-class linear classifier on the mass of a leading row/column block.

    The aggregate is the total mass of rows 0..boundary (or columns for the
    "cols" orientation).  params() builds the classifier: its logits are
    (aggregate - threshold, 0), ordered so that positive_index wins when the
    aggregate exceeds the threshold.  Under flow noise every interior flow
    coordinate cancels out of the aggregate, leaving a sum of exactly
    boundary_coords() iid Laplace terms, which makes the smoothed score
    exactly computable.
    """

    image_shape: tuple[int, int]
    orientation: str
    boundary: int
    threshold: float
    positive_index: int = 0

    def __post_init__(self):
        n, m = self.image_shape
        limit = n - 1 if self.orientation == "rows" else m - 1
        if self.orientation not in ("rows", "cols"):
            raise ValueError("orientation must be rows or cols")
        if not 0 <= self.boundary < limit:
            raise ValueError(f"boundary must lie in [0, {limit})")
        if self.positive_index not in (0, 1):
            raise ValueError("positive_index must be 0 or 1")

    def boundary_coords(self) -> int:
        """Number of flow coordinates crossing the block boundary."""
        n, m = self.image_shape
        return m if self.orientation == "rows" else n

    def aggregate_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float).reshape((-1,) + tuple(self.image_shape))
        if self.orientation == "rows":
            return X[:, : self.boundary + 1, :].sum(axis=(1, 2))
        return X[:, :, : self.boundary + 1].sum(axis=(1, 2))

    def params(self) -> ClassifierParams:
        n, m = self.image_shape
        block = np.zeros((n, m))
        if self.orientation == "rows":
            block[: self.boundary + 1, :] = 1.0
        else:
            block[:, : self.boundary + 1] = 1.0
        weight = np.zeros((n * m, 2))
        weight[:, self.positive_index] = block.ravel()
        bias = np.zeros(2)
        bias[self.positive_index] = -self.threshold
        return ClassifierParams((n, m), [weight], [bias])

    def exact_positive_probability(self, x, sigma: float) -> float:
        """Exact probability that flow noise of standard deviation sigma
        pushes the aggregate above the threshold."""
        agg = float(self.aggregate_batch(np.asarray(x, dtype=float)[None])[0])
        if sigma == 0.0:
            return float(agg > self.threshold)
        b = sigma / math.sqrt(2.0)
        return laplace_sum_sf((self.threshold - agg) / b, self.boundary_coords())

    def exact_smoothed_scores(self, x, sigma: float) -> np.ndarray:
        p = self.exact_positive_probability(x, sigma)
        scores = np.empty(2)
        scores[self.positive_index] = p
        scores[1 - self.positive_index] = 1.0 - p
        return scores


def edge_from_flow(plan) -> np.ndarray:
    """(2, E) directed edge flow shipping each entry of a signed packed flow
    in its sign's direction: the minimal-total directed representation,
    whose total equals the plan's L1 norm and which flow_from_edge inverts
    exactly."""
    return np.stack([np.maximum(plan, 0.0), np.maximum(-plan, 0.0)])


def min_flow_plan(x, xp) -> np.ndarray:
    """The grid oracle's optimal edge flow from x to xp, netted into a signed
    packed flow: feasible, with L1 norm equal to the Wasserstein distance."""
    return flow_from_edge(wasserstein_grid_l1(x, xp)[1])


def image_vote_counts(params, x, spec: NoiseSpec, n: int, rng, workers: int):
    """The per-block vote tallies of ``n`` draws on the image x, as certify
    and smoothed_predict make them: params folded at x, then _vote_counts."""
    channels = as_channels(x)
    model = _fold(params, channels.shape, spec)(channels)
    return _vote_counts(model, spec, channels.shape, n, rng, workers)


def per_minibatch_train(dataset, config: TrainConfig):
    """classifier.train written with one noise draw per minibatch, drawn just
    before the minibatch is used: (params, epoch losses) that train must
    reproduce bit for bit, since every noise value takes one word of the
    noise stream in order however many draws one call makes."""
    X, y = dataset.as_arrays()
    r_init, r_shuffle, r_noise = np.random.default_rng(config.seed).spawn(3)
    params = init_params(X.shape[1:], dataset.num_classes, config.hidden, r_init)
    velocity = [np.zeros_like(a) for a in params.arrays()]
    spec = NoiseSpec(config.noise, config.sigma)
    cshape = X.shape[1:] if X.ndim == 4 else (1,) + X.shape[1:]
    losses = []
    for _ in range(config.epochs):
        perm = r_shuffle.permutation(len(X))
        epoch_loss = 0.0
        for start in range(0, len(X), config.batch_size):
            idx = perm[start : start + config.batch_size]
            xb = X[idx]
            if spec.sigma > 0:
                inc = _sample_increments(spec, cshape, 1, r_noise)
                xb = xb + inc.reshape((1,) + X.shape[1:])
            loss, grads = loss_and_gradients(params, xb, y[idx])
            for p, g, v in zip(params.arrays(), grads, velocity):
                np.multiply(v, config.momentum, out=v)
                v += g + config.weight_decay * p
                p -= config.learning_rate * v
            epoch_loss += loss * len(idx)
        losses.append(epoch_loss / len(X))
    return params, losses


def write_idx(path, array):
    """Write an unsigned-byte IDX file: magic 0x0800 + rank, each dimension
    as a big-endian int32, then the row-major bytes."""
    a = np.ascontiguousarray(array, dtype=np.uint8)
    Path(path).write_bytes(struct.pack(f">{1 + a.ndim}i", 0x800 + a.ndim, *a.shape) + a.tobytes())


def flip_member_byte(path, member: str, at_start: bool = False):
    """Invert one byte of an archive member's stored data, in the middle
    (which a stored member fails by its CRC) or at its start (where a
    deflated member's first block header fails to inflate)."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(member)
    raw = bytearray(Path(path).read_bytes())
    header = info.header_offset
    name_len, extra_len = struct.unpack("<HH", raw[header + 26:header + 30])
    raw[header + 30 + name_len + extra_len + (0 if at_start else info.compress_size // 2)] ^= 0xFF
    Path(path).write_bytes(bytes(raw))


def per_image_normalized(raw) -> np.ndarray:
    """Reference for dataset normalization: each image of a raw stack, cast
    to float and divided by its own grand total, one image at a time."""
    return np.stack([a / a.sum() for a in np.asarray(raw, dtype=float)])


def finite_difference_grads(params, X, labels, eps=1e-6) -> np.ndarray:
    """Central differences of the mean loss for every entry of
    params.arrays(), each perturbed in place and restored, concatenated in
    that order."""
    fd = []
    for a in params.arrays():
        grad = np.empty_like(a)
        for idx in np.ndindex(a.shape):
            saved = a[idx]
            a[idx] = saved + eps
            up, _ = loss_and_gradients(params, X, labels)
            a[idx] = saved - eps
            down, _ = loss_and_gradients(params, X, labels)
            a[idx] = saved
            grad[idx] = (up - down) / (2 * eps)
        fd.append(grad.ravel())
    return np.concatenate(fd)


def brute_force_l1_projection(v: np.ndarray, radius: float) -> np.ndarray:
    """Exact L1-ball projection by enumerating candidate supports.

    The projection shrinks some support set S by a common threshold and
    zeroes the rest; trying every S and keeping the feasible candidate
    closest to v recovers the optimum.  Exponential in the dimension, so
    keep inputs small.
    """
    import itertools

    v = np.asarray(v, dtype=float)
    mag = np.abs(v)
    if mag.sum() <= radius:
        return v.copy()
    best = np.zeros_like(v)
    best_dist = float(v @ v)
    for size in range(1, v.size + 1):
        for support in itertools.combinations(range(v.size), size):
            sel = list(support)
            theta = (mag[sel].sum() - radius) / size
            if theta < 0 or np.any(mag[sel] < theta):
                continue
            cand = np.zeros_like(v)
            cand[sel] = np.sign(v[sel]) * (mag[sel] - theta)
            dist = float(((cand - v) ** 2).sum())
            if dist < best_dist:
                best, best_dist = cand, dist
    return best


def full_coupling_lp(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> float:
    """Reference W1 distance from the full coupling LP over all N^2 pixel
    pairs, with row marginal a, column marginal b and any ground cost: no
    assumption that shared mass stays in place.  Solved by HiGHS at the
    tolerances the package uses; the redundant last marginal row is dropped.
    """
    from scipy.optimize import linprog
    import scipy.sparse as sp

    npix = a.size
    eye = sp.eye(npix, format="csr")
    ones = sp.csr_matrix(np.ones((1, npix)))
    a_eq = sp.vstack([sp.kron(eye, ones), sp.kron(ones, eye)], format="csr")
    b_eq = np.concatenate([a.ravel(), b.ravel()])
    res = linprog(cost.ravel(), A_eq=a_eq[:-1], b_eq=b_eq[:-1], bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-9,
                                           "presolve": False})
    assert res.status == 0, res.message
    return float(res.fun)


def successive_shortest_paths_grid_l1(a: np.ndarray, b: np.ndarray) -> float:
    """Independent reference for the grid W1 distance under the L1 ground
    metric: min-cost flow on the 4-adjacency grid with unit arc costs,
    solved by successive shortest paths.

    Node potentials are integers and every residual arc costs +-1, so
    Dijkstra's reduced costs stay exact integers; only shipped amounts are
    floats.  Pure Python, so keep grids to a few hundred pixels.
    """
    import heapq

    n, m = a.shape
    idx = np.arange(n * m).reshape(n, m)
    down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    arcs = [tuple(map(int, p)) for p in np.concatenate([down, down[:, ::-1], right, right[:, ::-1]])]
    out_arcs = [[] for _ in range(n * m)]
    in_arcs = [[] for _ in range(n * m)]
    for arc, (u, v) in enumerate(arcs):
        out_arcs[u].append(arc)
        in_arcs[v].append(arc)
    flow = [0.0] * len(arcs)
    supply = (a / a.sum() - b / b.sum()).ravel()
    potential = [0] * (n * m)
    settle = 1e-14
    while np.any(supply > settle) and np.any(supply < -settle):
        s = int(np.argmax(supply > settle))
        dist = [None] * (n * m)
        parent = [None] * (n * m)  # (previous node, arc, traversed backwards)
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d_u, u = heapq.heappop(heap)
            if d_u > dist[u]:
                continue
            steps = [(arcs[arc][1], arc, False, 1) for arc in out_arcs[u]]
            steps += [(arcs[arc][0], arc, True, -1) for arc in in_arcs[u] if flow[arc] > 0.0]
            for v, arc, backwards, cost in steps:
                nd = d_u + cost + potential[u] - potential[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    parent[v] = (u, arc, backwards)
                    heapq.heappush(heap, (nd, v))
        t = min(np.nonzero(supply < -settle)[0], key=lambda v: dist[int(v)])
        path = []
        v = int(t)
        while v != s:
            path.append(parent[v])
            v = parent[v][0]
        amount = min([supply[s], -supply[t]] + [flow[arc] for _, arc, back in path if back])
        for _, arc, back in path:
            flow[arc] += -amount if back else amount
        supply[s] -= amount
        supply[t] += amount
        potential = [p + d for p, d in zip(potential, dist)]
    return float(sum(flow))
