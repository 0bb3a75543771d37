"""Projected-gradient attack on the smoothed classifier in the flow domain.

The adversary perturbs the image by a local flow plan whose L1 norm (equal
to the Wasserstein-L1 cost of the perturbation) is capped by a slowly
growing radius.  Gradients of the expected cross-entropy are estimated by
Monte Carlo over the smoothing noise on the folded classifier that votes in
smoothing, whose input is the noise draw itself: under flow noise its
gradient is already in the flow coordinates, and under pixel noise it is
pulled back through the adjoint of the divergence.  D^T is folded into the
first layer once per attack for all its gradients (and once per evaluated
prediction); each iterate only sets the first bias.  After each ascent step
the plan is projected onto the current L1 ball.  The attacked prediction
is the abstaining decision of the test on predict_samples draws (drawing
stops once that decision is settled), and abstention counts as a
successful attack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .classifier import input_gradient_batch
from .flow_domain import (AT_LEAST_0, AT_LEAST_1, OPEN_UNIT, POSITIVE, _check_fields,
                          _check_unit_mass, _check_value, as_channels, divergence,
                          divergence_adjoint, edge_count)
from .smoothing import PIXEL, NoiseSpec, SmoothedPrediction, _edge_noise, _fold, smoothed_predict
from .transport_oracle import wasserstein_grid_l1


def project_l1_ball(v, radius: float) -> np.ndarray:
    """Euclidean projection of a vector onto the L1 ball of given radius.

    Sort-based soft thresholding: find the largest shrinkage that keeps the
    surviving coordinates summing to the radius, then shrink toward zero.
    """
    radius = _check_value("radius", float, radius, AT_LEAST_0)
    v = np.asarray(v, dtype=float)
    mag = np.abs(v)
    if mag.sum() <= radius:
        return v.copy()
    if radius == 0.0:
        return np.zeros_like(v)
    u = np.sort(mag)[::-1]
    cumulative = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    # k*u - cumulative + radius > 0, arranged so the k = 1 term is exact and
    # the support can never be empty for radius > 0.
    support = np.nonzero(ks * u - cumulative + radius > 0)[0]
    last = support[-1]
    theta = (cumulative[last] - radius) / (last + 1)
    return np.sign(v) * np.maximum(mag - theta, 0.0)


@dataclass(frozen=True)
class AttackConfig:
    """Attack schedule and budgets.

    The L1 radius starts at max_radius / 10 and multiplies by growth_factor
    every growth_interval iterations, capped at max_radius.  Each ascent
    step moves the first budget's L1 length along the L1-normalized
    gradient.  predict_samples caps the draws of each evaluated prediction:
    its decision is that of the test on all predict_samples draws, but
    drawing stops once no further draw can change it.
    """

    iterations: int = 200
    gradient_samples: int = 128
    max_radius: float = 1.0
    growth_factor: float = 1.5
    growth_interval: int = 10
    predict_samples: int = 10000
    predict_alpha: float = 0.05

    def __post_init__(self):
        _check_fields(self, iterations=AT_LEAST_0, gradient_samples=AT_LEAST_1,
                      max_radius=POSITIVE, growth_factor=AT_LEAST_1, growth_interval=AT_LEAST_1,
                      predict_samples=AT_LEAST_1, predict_alpha=OPEN_UNIT)

    def radius_at(self, iteration: int) -> float:
        """Allowed L1 budget at a 1-based attack iteration."""
        growth = self.growth_factor ** ((iteration - 1) // self.growth_interval)
        return min(self.max_radius / 10.0 * growth, self.max_radius)


@dataclass(frozen=True)
class AttackResult:
    """Outcome of attacking one image.

    plans holds the final flow perturbation as a (C, E_c) array: row k is
    channel k's packed edge vector, so the rows in order are the attack's
    packed delta.
    budget is its L1 norm, which upper bounds the true Wasserstein cost.
    oracle_radius is the exact Wasserstein-L1 distance between the clean
    and perturbed image when the perturbed image stayed nonnegative (None
    otherwise).  iteration is the outcome: 0 when the clean prediction was
    already wrong, t when the abstaining prediction of iteration t first
    disagreed with the label, None when the image survived; success and
    clean_correct are read from it.  prediction is the last evaluated one;
    its counts are of the draws actually made.
    """

    plans: np.ndarray
    budget: float
    iteration: int | None
    prediction: SmoothedPrediction
    oracle_radius: float | None
    success: bool = field(init=False)
    clean_correct: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "success", self.iteration is not None)
        object.__setattr__(self, "clean_correct", self.iteration != 0)


def _flow_gradient(model, cshape: tuple[int, int, int], label: int, spec: NoiseSpec,
                   samples: int, rng) -> np.ndarray:
    """Monte Carlo gradient of the expected cross-entropy with respect to the
    packed flow coordinates, through ``model``, the classifier folded at the
    perturbed image x + D delta (smoothing._fold).  delta and the flow noise
    e enter that image the same way, so under flow noise the gradient in the
    draw is already in packed edge coordinates; under pixel noise (D = I) it
    is a pixel gradient, pulled back through the adjoint of the divergence.
    """
    noise = _edge_noise(spec, cshape, samples, rng)
    grad = input_gradient_batch(model, noise, np.full(samples, label)).mean(axis=0)
    if spec.scheme == PIXEL:
        return divergence_adjoint(grad.reshape(cshape))
    return grad


def _oracle_radius(clean: np.ndarray, perturbed: np.ndarray) -> float | None:
    """Exact Wasserstein-L1 distance to the perturbed image, when defined.

    Flow perturbations conserve mass but may push pixels negative, where the
    distance no longer exists; tiny numerical undershoot is clipped away.
    """
    if perturbed.min() < -1e-9:
        return None
    clipped = np.maximum(perturbed, 0.0)
    return wasserstein_grid_l1(clean, clipped / clipped.sum())[0]


def flow_pgd_attack(classifier, x, label: int, spec: NoiseSpec,
                    config: AttackConfig, rng=None) -> AttackResult:
    """Attack one labeled image; stops at the first evaluated prediction that
    disagrees with the label (abstention included).

    Before any draw it refuses a label that is not a class index and an
    image that is not unit mass or not of the classifier's shape.  Predictions
    are only re-evaluated when the perturbation actually moved, so a
    zero-gradient plateau cannot flip an image by resampling alone.
    """
    k = classifier.num_classes
    _check_value("label", int, label, (f"in [0, {k})", lambda v: 0 <= v < k))
    channels = as_channels(x)
    _check_unit_mass(channels[None])
    cshape = channels.shape
    fold = _fold(classifier, cshape, spec)
    streams = iter(np.random.default_rng(rng).spawn(1 + 2 * config.iterations))

    clean_pred = smoothed_predict(
        classifier, x, spec, config.predict_samples, config.predict_alpha, next(streams)
    )
    delta = np.zeros(edge_count(cshape))
    if clean_pred.predicted != label:
        return AttackResult(delta.reshape(cshape[0], -1), 0.0, 0, clean_pred, 0.0)

    last_evaluated = delta
    perturbed = channels
    step = config.radius_at(1)
    pred, broken = clean_pred, None
    for it in range(1, config.iterations + 1):
        grad_rng, eval_rng = next(streams), next(streams)
        grad = _flow_gradient(fold(perturbed), cshape, label, spec, config.gradient_samples,
                              grad_rng)
        gnorm = np.abs(grad).sum()
        if gnorm > 0:
            delta = delta + step * grad / gnorm
        delta = project_l1_ball(delta, config.radius_at(it))
        if np.array_equal(delta, last_evaluated):
            continue
        perturbed = channels + divergence(delta, cshape)
        pred = smoothed_predict(classifier, perturbed, spec, config.predict_samples,
                                config.predict_alpha, eval_rng)
        last_evaluated = delta
        if pred.predicted != label:
            broken = it
            break
    return AttackResult(delta.reshape(cshape[0], -1), float(np.abs(delta).sum()), broken, pred,
                        _oracle_radius(channels, perturbed) if broken else None)


def robustness_curve(classifier, dataset, spec: NoiseSpec, radii,
                     config: AttackConfig, rng=None) -> tuple[list[tuple[float, float]], list[AttackResult]]:
    """Attacked accuracy as a function of the L1 flow budget.

    Each image is attacked once, the schedule's max_radius set to max(radii)
    (radii all 0 give the clean predictions and no attack); it counts as
    correct at budget rho unless its clean prediction was wrong or the attack
    first succeeded within budget rho.  Success at one budget therefore
    implies success at every larger budget, and the budget-0 accuracy is the
    clean smoothed accuracy of this run.  A failed attack says nothing past
    its schedule's last budget, so larger radii are refused.
    """
    radii = sorted(_check_value(f"radii[{i}]", float, r, AT_LEAST_0) for i, r in enumerate(radii))
    if not radii:
        raise ValueError("radii must be a nonempty list, got []")
    max_r = max(radii)
    config = replace(config, max_radius=max_r) if max_r > 0 else replace(config, iterations=0)
    reach = config.radius_at(config.iterations) if config.iterations else 0.0
    if max_r > reach:
        raise ValueError(f"the schedule reaches L1 budget {reach:g} after "
                         f"{config.iterations} iterations, short of the largest radius {max_r:g}")
    children = np.random.default_rng(rng).spawn(len(dataset))
    results = [flow_pgd_attack(classifier, x, int(y), spec, config, child)
               for x, y, child in zip(*dataset.as_arrays(), children)]
    breaking = np.array([res.budget if res.success else math.inf for res in results])
    rows = [(rho, float(np.mean(breaking > rho))) for rho in radii]
    return rows, results
