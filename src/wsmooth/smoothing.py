"""Randomized smoothing of grid-image classifiers with Laplace noise, either
in the flow domain (noise moves mass between adjacent pixels) or directly on
pixels, plus the statistical certification pipeline: Monte Carlo voting, a
Clopper-Pearson lower bound on the top-class probability, and closed-form
certified Wasserstein radii.

A noise draw is a vector e of iid Laplace(b) values, one per grid edge in
flow_domain's packed edge layout (flow scheme) or one per pixel (pixel
scheme, where D = I), each made by inverse transform from one uniform
64-bit word of the generator.  It reaches the pixels as the increment D e.
Training adds that increment to images; the voting engine, _vote_counts,
and the attack gradient never form the noisy images.  The first layer is
affine, so (x + D e) W0 + b0 = e (D^T W0) + (x W0 + b0): _fold makes D^T W0
once per certify (both stages), attack or smoothed_predict call, each image
sets only the first bias, and the raw draws are scored with that classifier.
Sampling is deterministic given a seeded generator and independent of the
worker count: draws are partitioned into fixed-size batches, each batch
gets its own child stream via Generator.spawn, and partial results are
merged in batch order.  Within a batch the draws are made and scored in
blocks of about DRAW_VALUES values, small enough that a block's work arrays
stay in cache.  Each value takes exactly one word of its batch's stream, so
the draws do not depend on the block size either.  _vote_counts hands out
one tally per block in draw order; certify sums them all, while
smoothed_predict stops at the first block after which its decision cannot
change.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import betainc, betaincinv

from .flow_domain import (AT_LEAST_0, AT_LEAST_1, OPEN_UNIT, POSITIVE, _check_unit_mass,
                          _check_value, as_channels, channel_shape, divergence,
                          divergence_adjoint, edge_count)
from .transport_oracle import GroundMetric

# Sentinel prediction that names none of the classes, logit columns 0 ... K-1.
ABSTAIN = -1

# Monte Carlo draws are split into batches of this size; each batch owns a
# spawned child stream, so results do not depend on how batches are
# scheduled across workers.
VOTE_BATCH = 1000

# Values drawn and scored at a time inside a batch, in whole rows (at least
# one, at most a quarter batch, so smoothed_predict checks its stop rule at
# least four times a batch): 2^16 values are 43 rows of the 1512 edges of a
# 28x28 image.  The sampler's two uint64 work arrays then take 1 MiB, which
# stays in a 2 MiB per-core L2 cache.
DRAW_VALUES = 1 << 16

FLOW = "wasserstein_flow"
PIXEL = "laplace_pixel"
_SCHEME = (f"one of {(FLOW, PIXEL)}", lambda v: v in (FLOW, PIXEL))  # _check_value range

# Certified-radius coefficients rho = c * sigma * ln(p / (1 - p)) per
# (smoothing scheme, ground metric of the Wasserstein ball).  Flow smoothing
# certifies the L1-ground radius directly; under the L2 ground every pixel
# step costs at most as much, which buys the sqrt(2) grid-diagonal factor.
# Pixel smoothing certifies an L1-pixel-norm radius first and converts via
# |x - x'|_1 <= 2 W1, a bound independent of the ground metric, hence the
# same coefficient for both grounds.
_RADIUS_COEFF = {
    (FLOW, GroundMetric.L1): 1.0 / (2.0 * math.sqrt(2.0)),
    (FLOW, GroundMetric.L2): 0.25,
    (PIXEL, GroundMetric.L2): 0.25 / math.sqrt(2.0),
    (PIXEL, GroundMetric.L1): 0.25 / math.sqrt(2.0),
}


@dataclass(frozen=True)
class NoiseSpec:
    """Smoothing noise description: scheme plus per-coordinate standard
    deviation sigma.  sigma = 0 means no noise (useful as a degenerate
    reference point; the command line rejects it)."""

    scheme: str
    sigma: float

    def __post_init__(self):
        _check_value("scheme", str, self.scheme, _SCHEME)
        _check_value("sigma", float, self.sigma, AT_LEAST_0)

    @property
    def scale(self) -> float:
        """Laplace scale parameter b with standard deviation sigma."""
        return self.sigma / math.sqrt(2.0)


@dataclass(frozen=True)
class SmoothedPrediction:
    """Outcome of the abstaining smoothed classifier on one image."""

    predicted: int
    num_samples: int
    top_counts: tuple[int, int]
    p_value: float
    confidence: float


@dataclass(frozen=True)
class Certificate:
    """Certified robustness statement for one image.

    rho2 is the certified radius of the Wasserstein ball under the L2 ground
    metric; the L1-ground radius is sqrt(2) * rho2 for the flow scheme.  It
    is present exactly when p_lower > 1/2; otherwise the prediction is
    ABSTAIN and nothing is certified.
    """

    predicted: int
    p_lower: float
    rho2: float | None
    spec: NoiseSpec
    n0: int
    n: int
    alpha: float


def _edge_noise(spec: NoiseSpec, cshape: tuple[int, int, int], size: int,
                rng: np.random.Generator) -> np.ndarray:
    """``size`` noise draws of shape (size, width): iid Laplace(spec.scale)
    values, one per packed edge of a (C, n, m) image for the flow scheme and
    one per pixel for the pixel scheme.

    Each value is made from one uniform 64-bit word of the generator by
    inverse transform, as in Generator.laplace: bits 12-63 as the mantissa
    of f in [1, 2) give U = 2 - f on the grid {k 2^-52 : k = 1..2^52} in
    (0, 1], the magnitude is -b log U, and bit 0 is the sign of every
    nonzero value (the value 0, from U = 1, is always -0.0).  That is
    Laplace(b) to double precision, with the tail cut at 52 b ln 2 (about
    36 b; probability 2^-52).  The words come from Generator.integers over
    the full uint64 range, which for PCG64 are its raw outputs and for a
    32-bit bit generator such as MT19937 join two outputs.  sigma = 0
    returns zeros and consumes no randomness.
    """
    c, n, m = cshape
    width = c * n * m if spec.scheme == PIXEL else edge_count(cshape)
    if spec.sigma == 0.0:
        return np.zeros((size, width))
    words = rng.integers(0, 1 << 64, (size, width), dtype=np.uint64)
    signs = words << 63
    words >>= 12
    words |= 0x3FF0000000000000
    noise = words.view(np.float64)
    np.subtract(2.0, noise, out=noise)
    np.log(noise, out=noise)
    noise *= -spec.scale
    words |= signs
    return noise


def _sample_increments(spec: NoiseSpec, cshape: tuple[int, int, int], size: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Pixel increments D e of ``size`` noise draws e, shape (size, C, n, m)."""
    noise = _edge_noise(spec, cshape, size, rng)
    if spec.scheme == PIXEL:
        return noise.reshape((size,) + cshape)
    return divergence(noise, cshape)


def _fold(params, cshape: tuple[int, int, int], spec: NoiseSpec):
    """Map an image x of channel shape ``cshape`` to the classifier e -> params(x + D e)
    over noise draws e, a ClassifierParams whose first layer is (D^T W0, x W0 + b0).
    D^T W0 is made once here; each image only sets the first bias."""
    w0, expected = params.weights[0], channel_shape(params.input_shape)
    if cshape != expected:
        raise ValueError(f"image of shape {cshape} fed to classifier expecting {expected}")
    g = w0 if spec.scheme == PIXEL else divergence_adjoint(w0.T.reshape((-1,) + cshape)).T
    folded = replace(params, input_shape=(g.shape[0],), weights=[g, *params.weights[1:]])
    return lambda x: replace(folded, biases=[x.reshape(-1) @ w0 + params.biases[0],
                                             *params.biases[1:]])


def _vote_counts(model, spec: NoiseSpec, cshape: tuple[int, int, int], n: int, rng, workers: int):
    """Vote tallies of a folded ``model`` (_fold) on ``n`` noise draws for
    ``cshape`` images, one tally per block, in draw order: batch by batch.

    With one worker the blocks are drawn as they are consumed.  With more,
    ``workers`` batches are scored at a time and their tallies handed out
    in order, so the sequence does not depend on the worker count.
    """
    sizes = [VOTE_BATCH] * (n // VOTE_BATCH) + ([n % VOTE_BATCH] if n % VOTE_BATCH else [])
    streams = np.random.default_rng(rng).spawn(len(sizes))
    # An image with no edges (1 x 1 under flow noise) draws 0 values a row.
    rows = min(max(1, DRAW_VALUES // max(1, model.input_shape[0])), VOTE_BATCH // 4)

    def blocks(stream, size):
        for start in range(0, size, rows):
            noise = _edge_noise(spec, cshape, min(rows, size - start), stream)
            yield np.bincount(np.argmax(model.forward_batch(noise), axis=1),
                              minlength=model.num_classes)

    batches = [blocks(stream, size) for stream, size in zip(streams, sizes)]
    if workers <= 1 or len(batches) <= 1:
        for batch in batches:
            yield from batch
        return
    with ThreadPoolExecutor(max_workers=workers) as ex:
        for first in range(0, len(batches), workers):
            for tallies in ex.map(list, batches[first:first + workers]):
                yield from tallies


def _p_value(n_top: int, n_run: int) -> float:
    """Two-sided exact binomial p-value of n_top votes against n_run at
    p = 1/2: twice the lower tail I_{1/2}(n_top, n_run + 1) of the smaller
    count, capped at 1, and exactly 1 at a tie.  The incomplete beta keeps
    about 13 digits out to n = 10^4 (scipy's bdtr keeps about 10 there)."""
    return 1.0 if n_top == n_run else min(1.0, 2.0 * float(betainc(n_top, n_run + 1, 0.5)))


def prediction_from_counts(counts, alpha: float) -> SmoothedPrediction:
    """Abstaining decision rule on a finished vote tally: the top class if
    the two-sided exact binomial test (_p_value) rejects that top and
    runner-up are equally likely; ties and weak majorities abstain."""
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.size < 2 or counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be a 1-D integer tally of two or more classes, got {counts!r}")
    if counts.min() < 0 or counts.sum() < 1:
        raise ValueError(f"counts must be nonnegative with at least one vote, got {counts!r}")
    _check_value("alpha", float, alpha, OPEN_UNIT)
    top = int(np.argmax(counts))
    n_top, n_run = int(counts[top]), int(np.partition(counts, -2)[-2])
    p_value = _p_value(n_top, n_run)
    predicted = top if p_value <= alpha else ABSTAIN
    return SmoothedPrediction(predicted, int(counts.sum()), (n_top, n_run), p_value, 1.0 - alpha)


def _decided(counts: np.ndarray, remaining: int, alpha: float) -> bool:
    """Whether no way of casting ``remaining`` more votes can change the
    abstaining decision on the tally ``counts``.

    The test's p-value falls as n_top grows and rises with n_run.  So the
    leader is certain to be named when it stays ahead and passes the test
    even if every remaining vote goes to the runner-up, and abstention is
    certain when the test fails even if every remaining vote goes to the
    leader.
    """
    c_run, c_top = (int(c) for c in np.partition(counts, -2)[-2:])
    if c_top > c_run + remaining and _p_value(c_top, c_run + remaining) <= alpha:
        return True
    return _p_value(c_top + remaining, c_run) > alpha


def smoothed_predict(params, x, spec: NoiseSpec, n: int = 10000, alpha: float = 0.05,
                     rng=None, workers: int = 1) -> SmoothedPrediction:
    """Predict with the smoothed version of the base classifier ``params``
    (a ClassifierParams), abstaining unless the top class beats the
    runner-up at significance alpha (two-sided binomial test on their
    head-to-head counts).

    ``n`` caps the draws.  The decision is always that of the test on all
    n draws, but drawing stops at the first block where no outcome of the
    draws left can change it; num_samples, top_counts and p_value then
    describe the draws actually made.  The stopping point is defined in
    draw order, so it does not depend on the worker count.  The image must
    have total mass 1; its pixels may be negative, as the attack's are.
    """
    _check_value("n", int, n, AT_LEAST_1)
    _check_value("alpha", float, alpha, OPEN_UNIT)
    _check_value("workers", int, workers, AT_LEAST_1)
    channels = as_channels(x)
    _check_unit_mass(channels[None], nonnegative=False)
    model = _fold(params, channels.shape, spec)(channels)
    counts, remaining = 0, n
    for tally in _vote_counts(model, spec, channels.shape, n, rng, workers):
        counts = counts + tally
        remaining -= int(tally.sum())
        if _decided(counts, remaining, alpha):
            break
    return prediction_from_counts(counts, alpha)


def clopper_pearson_lower(k: int, n: int, alpha: float) -> float:
    """One-sided Clopper-Pearson lower confidence bound for a binomial
    proportion at level 1 - alpha: betaincinv's root p of I_p(k, n - k + 1)
    = alpha where betainc gives back alpha within 1e-6 relative, else 0
    (always valid).  Below about alpha = 1e-120 betaincinv can give NaN
    (k = 4, n = 5, alpha = 1e-200) or a p above the bound (k = 485, n = 500,
    alpha = 1e-300), and betainc can underflow to 0."""
    _check_value("n", int, n, AT_LEAST_1)
    _check_value("k", int, k, (f"in [0, {n}]", lambda v: 0 <= v <= n))
    _check_value("alpha", float, alpha, OPEN_UNIT)
    if k == 0:
        return 0.0
    if k == n:
        return float(alpha ** (1.0 / n))
    p_lower = float(betaincinv(k, n - k + 1, alpha))
    return p_lower if abs(betainc(k, n - k + 1, p_lower) - alpha) <= 1e-6 * alpha else 0.0


def radius_from_plower(p_lower: float, sigma: float, scheme: str,
                       ground: GroundMetric = GroundMetric.L2) -> float | None:
    """Certified Wasserstein radius from a lower bound on the top-class
    probability, or None when p_lower <= 1/2 certifies nothing.

    rho = c * sigma * ln(p / (1 - p)) with c depending on the smoothing
    scheme and the ground metric; see _RADIUS_COEFF.
    """
    _check_value("scheme", str, scheme, _SCHEME)
    if not isinstance(ground, GroundMetric):
        raise ValueError(f"ground must be a GroundMetric, got {ground!r}")
    _check_value("p_lower", float, p_lower, ("in [0, 1]", lambda v: 0 <= v <= 1))
    _check_value("sigma", float, sigma, POSITIVE)
    if p_lower <= 0.5:
        return None
    coeff = _RADIUS_COEFF[(scheme, ground)]
    if p_lower == 1.0:
        return math.inf
    return coeff * sigma * math.log(p_lower / (1.0 - p_lower))


def certify(params, x, spec: NoiseSpec, n0: int = 1000, n: int = 10000,
            alpha: float = 0.05, rng=None, workers: int = 1) -> Certificate:
    """Two-stage certification of the smoothed version of the base classifier
    ``params`` (a ClassifierParams): guess the top class from n0 draws, then
    lower bound its probability with n fresh draws and convert to a
    certified radius.

    The candidate class is frozen before the bounding draws, so the
    Clopper-Pearson bound is valid even though the guess used data.  If the
    bound does not clear 1/2 the certificate abstains.  The image must be
    a distribution: nonnegative, of total mass 1.
    """
    _check_value("n0", int, n0, AT_LEAST_1)
    _check_value("n", int, n, AT_LEAST_1)
    _check_value("alpha", float, alpha, OPEN_UNIT)
    _check_value("workers", int, workers, AT_LEAST_1)
    channels = as_channels(x)
    _check_unit_mass(channels[None])
    model = _fold(params, channels.shape, spec)(channels)
    r_guess, r_bound = np.random.default_rng(rng).spawn(2)
    top = int(np.argmax(sum(_vote_counts(model, spec, channels.shape, n0, r_guess, workers))))
    counts = sum(_vote_counts(model, spec, channels.shape, n, r_bound, workers))
    p_lower = clopper_pearson_lower(int(counts[top]), n, alpha)
    if p_lower > 0.5:
        # sigma = 0 draws no noise, so unanimity is expected and certifies a
        # radius of exactly zero.
        rho2 = radius_from_plower(p_lower, spec.sigma, spec.scheme) if spec.sigma > 0 else 0.0
        return Certificate(top, p_lower, rho2, spec, n0, n, alpha)
    return Certificate(ABSTAIN, p_lower, None, spec, n0, n, alpha)


def median_certified_radius(radii) -> float | None:
    """Largest rho such that at least half of all images are correctly
    classified with certified radius >= rho, or None if no such rho exists.
    ``radii`` holds one entry per image: its certified radius when the
    certificate names the image's label, else None (NaN is refused)."""
    radii = list(radii)
    if not radii:
        raise ValueError("no images")
    for i, r in enumerate(radii):
        if r is not None and math.isnan(r):
            raise ValueError(f"radii[{i}] must be a number or None, got {r!r}")
    correct = sorted((r for r in radii if r is not None), reverse=True)
    need = (len(radii) + 1) // 2
    if len(correct) < need:
        return None
    return correct[need - 1]
