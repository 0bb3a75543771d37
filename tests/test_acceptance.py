"""End-to-end acceptance suite.

Each test pins one deliverable property of the package at its stated
tolerance, so a verbose run reads as one pass/fail line per property.  The
slow artifacts (trained models, certificates) are built once per module and
shared.
"""

import math
import time

import numpy as np
import pytest

from wsmooth import (
    AttackConfig,
    GroundMetric,
    NoiseSpec,
    TrainConfig,
    apply_flow,
    certify,
    clopper_pearson_lower,
    flow_pgd_attack,
    l1_norm,
    median_certified_radius,
    project_l1_ball,
    radius_from_plower,
    robustness_curve,
    synthetic_dataset,
    train,
    wasserstein_grid_l1,
    wasserstein_lp,
)
from wsmooth.classifier import loss_and_gradients, init_params
from wsmooth.smoothing import FLOW, PIXEL

from analytic import (
    RegionThresholdClassifier,
    brute_force_l1_projection,
    finite_difference_grads,
    min_flow_plan,
)

SIGMAS = (0.02, 0.05, 0.10)


def random_pair(rng, shape, sparse=False):
    """A random pair of normalized images, optionally with zeroed entries and
    near-degenerate mass ratios to stress the solvers."""
    n, m = shape
    a = rng.dirichlet(np.ones(n * m)).reshape(shape)
    b = rng.dirichlet(np.ones(n * m)).reshape(shape)
    if sparse:
        for img in (a, b):
            mask = rng.random(shape) < 0.4
            if mask.all():
                mask.flat[int(rng.integers(n * m))] = False
            img[mask] = rng.choice([0.0, 1e-10])
            img /= img.sum()
    return a, b


def pair_stream(seed, count, shapes=((3, 3), (4, 4))):
    rng = np.random.default_rng(seed)
    for shape in shapes:
        for i in range(count):
            yield random_pair(rng, shape, sparse=(i % 4 == 3))


@pytest.fixture(scope="module")
def desk_data():
    return (
        synthetic_dataset("blobs", 500, (6, 6), seed=101),
        synthetic_dataset("blobs", 100, (6, 6), seed=202),
    )


def certify_all(params, test_ds, spec):
    """Per test image, its certified radius if the certificate names its
    label, else None."""
    x_all, y_all = test_ds.as_arrays()
    streams = np.random.default_rng(77).spawn(len(test_ds))
    certs = [certify(params, x, spec, n0=1000, n=10000, alpha=0.05, rng=stream)
             for x, stream in zip(x_all, streams)]
    return [c.rho2 if c.predicted == y else None for c, y in zip(certs, y_all)]


@pytest.fixture(scope="module")
def trend_sweep(desk_data):
    """Medians for both schemes at each sigma, plus the flow model and
    certificates at flow's best sigma (reused by the attack criterion)."""
    train_ds, test_ds = desk_data
    started = time.time()
    medians = {}
    flow_runs = {}
    for sigma in SIGMAS:
        for scheme in (FLOW, PIXEL):
            tc = TrainConfig(epochs=120, batch_size=64, learning_rate=0.5,
                             weight_decay=1e-4, noise=scheme, sigma=sigma, seed=11)
            params = train(train_ds, tc).params
            radii = certify_all(params, test_ds, NoiseSpec(scheme, sigma))
            medians[(scheme, sigma)] = median_certified_radius(radii)
            if scheme == FLOW:
                flow_runs[sigma] = (params, radii)
    sigma_star = max(
        SIGMAS,
        key=lambda s: -math.inf if medians[(FLOW, s)] is None else medians[(FLOW, s)],
    )
    params_star, radii_star = flow_runs[sigma_star]
    return {
        "medians": medians,
        "sigma_star": sigma_star,
        "params_star": params_star,
        "radii_star": radii_star,
        "elapsed": time.time() - started,
    }


def test_criterion_1_grid_solver_matches_coupling_lp():
    started = time.time()
    worst_dist = worst_norm = worst_feasibility = 0.0
    for x, xp in pair_stream(seed=1, count=200):
        d_lp, _ = wasserstein_lp(x, xp, GroundMetric.L1)
        d_grid, _ = wasserstein_grid_l1(x, xp)
        worst_dist = max(worst_dist, abs(d_grid - d_lp))
        plan = min_flow_plan(x, xp)
        worst_norm = max(worst_norm, abs(l1_norm(plan) - d_grid))
        residual = np.abs(apply_flow(x, plan).values - xp).max()
        worst_feasibility = max(worst_feasibility, residual)
    elapsed = time.time() - started
    assert worst_dist <= 1e-8
    assert worst_norm <= 1e-8
    assert worst_feasibility <= 1e-9
    assert elapsed < 60.0
    print(f"criterion 1 PASS: dual-route gap {worst_dist:.2e}, plan norm gap "
          f"{worst_norm:.2e}, feasibility {worst_feasibility:.2e}, {elapsed:.1f}s")


def test_criterion_2_mass_split_instance_and_factor_two_bound():
    x = np.array([[1.0, 0.0]])
    xp = np.array([[0.5, 0.5]])
    assert np.abs(x - xp).sum() == 1.0
    w, _ = wasserstein_grid_l1(x, xp)
    assert w == pytest.approx(0.5, abs=1e-12)
    worst = -math.inf
    rng_pairs = pair_stream(seed=2, count=125)  # 125 x 2 shapes x 2 metrics = 500
    for a, b in rng_pairs:
        pixel_l1 = np.abs(a - b).sum()
        for metric in (GroundMetric.L1, GroundMetric.L2):
            dist, _ = wasserstein_lp(a, b, metric)
            worst = max(worst, pixel_l1 - 2.0 * dist)
    assert worst <= 1e-8
    print(f"criterion 2 PASS: tight instance exact, max(L1 - 2W) = {worst:.2e}")


def test_criterion_3_metric_sandwich():
    worst_lower = worst_upper = -math.inf
    for x, xp in pair_stream(seed=3, count=100):  # 100 x 2 shapes = 200 pairs
        d1, _ = wasserstein_lp(x, xp, GroundMetric.L1)
        d2, _ = wasserstein_lp(x, xp, GroundMetric.L2)
        worst_lower = max(worst_lower, d2 - d1)
        worst_upper = max(worst_upper, d1 - math.sqrt(2.0) * d2)
    assert worst_lower <= 1e-8
    assert worst_upper <= 1e-8
    print(f"criterion 3 PASS: max(W2 - W1) = {worst_lower:.2e}, "
          f"max(W1 - sqrt2 W2) = {worst_upper:.2e}")


def test_criterion_4_certified_radius_formulas():
    worst = 0.0
    for p in np.linspace(0.505, 0.999, 40):
        for sigma in (0.01, 0.05, 0.25, 1.0):
            log_odds = math.log(p / (1.0 - p))
            targets = {
                (FLOW, GroundMetric.L1): sigma * log_odds / (2.0 * math.sqrt(2.0)),
                (FLOW, GroundMetric.L2): sigma * log_odds / 4.0,
                (PIXEL, GroundMetric.L2): sigma * log_odds / (4.0 * math.sqrt(2.0)),
                (PIXEL, GroundMetric.L1): sigma * log_odds / (4.0 * math.sqrt(2.0)),
            }
            for (scheme, ground), expected in targets.items():
                got = radius_from_plower(float(p), sigma, scheme, ground)
                worst = max(worst, abs(got - expected))
            ratio = (radius_from_plower(float(p), sigma, FLOW, GroundMetric.L2)
                     / radius_from_plower(float(p), sigma, PIXEL, GroundMetric.L2))
            assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert worst <= 1e-12
    print(f"criterion 4 PASS: max formula deviation {worst:.2e}, "
          "flow/pixel ratio sqrt(2) to 1e-12")


def test_criterion_5_clopper_pearson_coverage():
    rng = np.random.default_rng(5)
    n, alpha, trials = 1000, 0.05, 1000
    rates = {}
    for p in (0.6, 0.8, 0.95):
        ks = rng.binomial(n, p, size=trials)
        covered = sum(clopper_pearson_lower(int(k), n, alpha) <= p for k in ks)
        rates[p] = covered / trials
        assert rates[p] >= 0.93
    from scipy.stats import beta

    for n_exact in (10, 100, 1000):
        ours = clopper_pearson_lower(n_exact, n_exact, alpha)
        assert abs(ours - alpha ** (1.0 / n_exact)) <= 1e-12
        assert abs(ours - float(beta.ppf(alpha, n_exact, 1))) <= 1e-12
    print("criterion 5 PASS: coverage " +
          ", ".join(f"{p}: {r:.3f}" for p, r in rates.items()) +
          ", k=n closed form to 1e-12")


def _move_across_boundary(x, orientation, boundary, amount, downward):
    """Shift mass across the classifier's region boundary, the adversarial
    direction for an aggregate-threshold classifier; cost is one grid step
    per unit under either ground metric."""
    grid = x.copy() if orientation == "rows" else x.T.copy()
    src, dst = (boundary, boundary + 1) if downward else (boundary + 1, boundary)
    available = grid[src].sum()
    moved = min(amount, available * (1.0 - 1e-12))
    if moved <= 0 or available <= 0:
        return None
    taken = grid[src] * (moved / available)
    grid[src] -= taken
    grid[dst] += taken
    return grid if orientation == "rows" else grid.T


def test_criterion_6_exact_certificates_survive_enumerated_perturbations():
    rng = np.random.default_rng(55)
    certificates = inside = violations = 0
    for _ in range(20):
        orientation = ["rows", "cols"][int(rng.integers(2))]
        boundary = int(rng.integers(0, 2))
        clf = RegionThresholdClassifier(
            (3, 3), orientation, boundary,
            threshold=float(rng.uniform(0.15, 0.85)),
            positive_index=int(rng.integers(0, 2)),
        )
        x = rng.dirichlet(np.ones(9)).reshape(3, 3)
        sigma = float(rng.uniform(0.05, 0.3))
        scores = clf.exact_smoothed_scores(x, sigma)
        top = int(np.argmax(scores))
        p_top = float(scores[top])
        if p_top <= 0.5:
            continue
        certificates += 1
        rho1 = radius_from_plower(p_top, sigma, FLOW, GroundMetric.L1)
        rho2 = radius_from_plower(p_top, sigma, FLOW, GroundMetric.L2)
        candidates = []
        for frac in (0.3, 0.7, 0.999):
            for downward in (True, False):
                cand = _move_across_boundary(x, orientation, boundary, frac * rho1, downward)
                if cand is not None:
                    candidates.append(cand)
        for _ in range(10):
            other = rng.dirichlet(np.ones(9)).reshape(3, 3)
            t = float(rng.uniform(0.0, 1.0))
            candidates.append((1.0 - t) * x + t * other)
        for cand in candidates:
            w1, _ = wasserstein_grid_l1(x, cand)
            w2, _ = wasserstein_lp(x, cand, GroundMetric.L2)
            if w1 <= rho1 - 1e-9 or w2 <= rho2 - 1e-9:
                inside += 1
                after = clf.exact_smoothed_scores(cand, sigma)
                if int(np.argmax(after)) != top or after[top] <= 0.5:
                    violations += 1
    assert certificates >= 20
    assert inside >= 50  # the enumeration really does probe inside the ball
    assert violations == 0
    print(f"criterion 6 PASS: {certificates} certificates, {inside} in-ball "
          f"perturbations, 0 violations")


def test_criterion_7_flow_certificates_beat_pixel_baseline(trend_sweep):
    medians = trend_sweep["medians"]
    sigma_star = trend_sweep["sigma_star"]
    flow_med = medians[(FLOW, sigma_star)]
    pixel_med = medians[(PIXEL, sigma_star)]
    assert flow_med is not None and pixel_med is not None
    assert flow_med > math.sqrt(2.0) * pixel_med
    assert trend_sweep["elapsed"] < 900.0
    table = ", ".join(
        f"sigma={s:g} flow={medians[(FLOW, s)]:.4f} pixel={medians[(PIXEL, s)]:.4f}"
        for s in SIGMAS
    )
    print(f"criterion 7 PASS: at sigma*={sigma_star:g} median {flow_med:.4f} vs "
          f"{pixel_med:.4f} (ratio {flow_med / pixel_med:.2f} > sqrt2); {table}; "
          f"{trend_sweep['elapsed']:.0f}s")


def test_criterion_8_attack_cannot_break_certificates(desk_data, trend_sweep):
    _, test_ds = desk_data
    params = trend_sweep["params_star"]
    sigma_star = trend_sweep["sigma_star"]
    spec = NoiseSpec(FLOW, sigma_star)
    x_all, y_all = test_ds.as_arrays()
    certified = [i for i, rho2 in enumerate(trend_sweep["radii_star"]) if rho2]
    assert len(certified) >= 50
    attack_rng = np.random.default_rng(88)
    flips = 0
    for i in certified:
        budget = math.sqrt(2.0) * trend_sweep["radii_star"][i]  # the L1-ground radius
        cfg = AttackConfig(iterations=26, gradient_samples=64, max_radius=budget,
                           growth_factor=10.0, growth_interval=1, predict_samples=4000)
        res = flow_pgd_attack(params, x_all[i], int(y_all[i]), spec, cfg,
                              attack_rng.spawn(1)[0])
        flips += int(res.success)
    assert flips <= 0.01 * len(certified)

    subset = test_ds.subset(np.arange(16))
    curve_cfg = AttackConfig(iterations=25, gradient_samples=64, max_radius=2.0,
                             growth_factor=2.0, growth_interval=5, predict_samples=2000)
    curve, results = robustness_curve(params, subset, spec,
                                      [0.0, 0.25, 0.5, 1.0, 2.0], curve_cfg, 13)
    accs = [acc for _, acc in curve]
    assert all(a >= b for a, b in zip(accs, accs[1:]))
    assert accs[-1] < accs[0]  # the largest budget really does break images
    clean_acc = float(np.mean([r.clean_correct for r in results]))
    assert accs[0] == clean_acc
    print(f"criterion 8 PASS: {flips}/{len(certified)} certified images flipped "
          f"within budget, curve {accs} nonincreasing from clean accuracy {clean_acc:.3f}")


def test_criterion_9_determinism_gradients_projection(desk_data):
    train_ds, test_ds = desk_data
    tc = TrainConfig(epochs=15, batch_size=64, learning_rate=0.5,
                     noise=FLOW, sigma=0.05, seed=21)
    params_a = train(train_ds, tc).params
    params_b = train(train_ds, tc).params
    assert all(np.array_equal(a, b) for a, b in zip(params_a.arrays(), params_b.arrays()))
    x0 = test_ds.as_arrays()[0][0]
    spec = NoiseSpec(FLOW, 0.05)
    cert_a = certify(params_a, x0, spec, n0=500, n=2000, rng=np.random.default_rng(1))
    cert_b = certify(params_b, x0, spec, n0=500, n=2000, rng=np.random.default_rng(1))
    assert cert_a == cert_b

    rng = np.random.default_rng(9)
    worst_rel = 0.0
    for _ in range(20):
        hidden = int(rng.integers(2, 6)) if rng.random() < 0.5 else None
        params = init_params((2, 3), 3, hidden=hidden, rng=rng)
        X = rng.normal(size=(3, 2, 3))
        labels = rng.integers(0, 3, size=3)
        _, grads = loss_and_gradients(params, X, labels)
        analytic = np.concatenate([g.ravel() for g in grads])
        fd = finite_difference_grads(params, X, labels)
        worst_rel = max(worst_rel, np.abs(analytic - fd).max() / (np.abs(fd).max() + 1e-12))
    assert worst_rel < 1e-4

    worst_proj = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 6))
        v = rng.normal(scale=2.0, size=dim)
        radius = float(rng.uniform(0.0, 3.0))
        gap = np.abs(project_l1_ball(v, radius)
                     - brute_force_l1_projection(v, radius)).max()
        worst_proj = max(worst_proj, gap)
    assert worst_proj < 1e-6
    print(f"criterion 9 PASS: retrain and certify bit-identical, gradient rel err "
          f"{worst_rel:.2e}, projection vs oracle {worst_proj:.2e}")
