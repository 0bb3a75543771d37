import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wsmooth import (
    AttackConfig,
    ClassifierParams,
    NoiseSpec,
    flow_pgd_attack,
    init_params,
    input_gradient_batch,
    l1_norm,
    make_dataset,
    project_l1_ball,
    prediction_from_counts,
    robustness_curve,
    smoothed_predict,
    wasserstein_grid_l1,
)
from wsmooth import attack, smoothing
from wsmooth.attack import _flow_gradient
from wsmooth.flow_domain import divergence, divergence_adjoint, edge_count
from wsmooth.smoothing import FLOW, PIXEL, _fold, _sample_increments

from analytic import brute_force_l1_projection, image_vote_counts


def halves_classifier(n=4, m=4, scale=50.0):
    """Linear softmax net voting top-half mass vs bottom-half mass."""
    w = np.zeros((n * m, 2))
    top = (np.arange(n * m) // m) < n // 2
    w[top, 0] = scale
    w[~top, 1] = scale
    return ClassifierParams((n, m), [w], [np.zeros(2)])


def split_image(top_mass, n=4, m=4):
    x = np.zeros((n, m))
    x[n // 2 - 1, :] = top_mass / m
    x[n // 2, :] = (1 - top_mass) / m
    return x


class TestProjection:
    def test_interior_points_pass_through(self):
        v = np.array([0.2, -0.1, 0.05])
        out = project_l1_ball(v, 1.0)
        assert np.array_equal(out, v)
        out[0] = 9.0
        assert v[0] == 0.2  # projection returned a copy

    def test_exterior_lands_on_sphere(self, rng):
        v = rng.normal(size=20) * 3
        out = project_l1_ball(v, 0.7)
        assert np.abs(out).sum() == pytest.approx(0.7, abs=1e-12)

    def test_zero_radius_zeroes(self):
        assert not project_l1_ball(np.array([1.0, -2.0]), 0.0).any()

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            project_l1_ball(np.array([1.0]), -0.1)
        with pytest.raises(ValueError):
            project_l1_ball(np.array([1.0]), float("nan"))
        for radius in (True, float("inf")):
            with pytest.raises(ValueError, match=f"^radius must be a finite number, got {radius}$"):
                project_l1_ball(np.array([1.0]), radius)

    def test_matches_brute_force_oracle(self, rng):
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(1, 6))
            v = rng.normal(scale=2.0, size=d)
            r = float(rng.uniform(0.0, 3.0))
            diff = np.abs(project_l1_ball(v, r) - brute_force_l1_projection(v, r)).max()
            worst = max(worst, diff)
        assert worst < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(
        v=hnp.arrays(np.float64, st.integers(1, 8),
                     elements=st.floats(-5, 5, allow_nan=False)),
        radius=st.floats(0.0, 4.0, allow_nan=False),
    )
    def test_idempotent_and_feasible(self, v, radius):
        once = project_l1_ball(v, radius)
        assert np.abs(once).sum() <= radius + 1e-9
        assert np.allclose(project_l1_ball(once, radius), once, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        v=hnp.arrays(np.float64, st.integers(1, 6),
                     elements=st.floats(-5, 5, allow_nan=False)),
        radius=st.floats(0.01, 4.0, allow_nan=False),
    )
    def test_never_flips_signs(self, v, radius):
        out = project_l1_ball(v, radius)
        assert np.all(out * v >= 0)


class TestAttackConfig:
    def test_defaults_valid(self):
        cfg = AttackConfig()
        assert cfg.max_radius == 1.0 and cfg.radius_at(1) == pytest.approx(0.1)

    def test_step_is_a_tenth_of_max_radius(self):
        # One step, as long as the first budget, moves L1 length exactly
        # max_radius / 10, flipped or not.
        cfg = AttackConfig(iterations=1, gradient_samples=32, max_radius=2.0,
                           predict_samples=200)
        res = flow_pgd_attack(halves_classifier(), split_image(0.7), 0, NoiseSpec(FLOW, 0.05),
                              cfg, rng=3)
        assert res.clean_correct and res.budget == pytest.approx(0.2, rel=1e-12)

    def test_radius_schedule(self):
        cfg = AttackConfig(max_radius=1.0, growth_factor=1.5, growth_interval=10)
        assert cfg.radius_at(1) == pytest.approx(0.1)
        assert cfg.radius_at(10) == pytest.approx(0.1)
        assert cfg.radius_at(11) == pytest.approx(0.15)
        assert cfg.radius_at(21) == pytest.approx(0.225)
        assert cfg.radius_at(1000) == 1.0  # capped

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": -1},
            {"gradient_samples": 0},
            {"max_radius": 0.0},
            {"growth_factor": 0.9},
            {"growth_interval": 0},
            {"max_radius": float("inf")},
            {"predict_alpha": 0.0},
            {"iterations": 2.5},
            {"predict_samples": True},
            {"growth_factor": float("nan")},
            {"growth_factor": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AttackConfig(**kwargs)


class TestFlowPgd:
    spec = NoiseSpec(FLOW, 0.05)

    def cfg(self, **kw):
        base = dict(iterations=40, gradient_samples=32, max_radius=0.5,
                    growth_interval=5, predict_samples=1000)
        base.update(kw)
        return AttackConfig(**base)

    def test_flips_borderline_image(self):
        params = halves_classifier()
        res = flow_pgd_attack(params, split_image(0.56), 0, self.spec, self.cfg(), rng=7)
        assert res.success and res.clean_correct
        assert res.prediction.predicted != 0
        assert 0 < res.budget <= 0.5 + 1e-12
        # The reported budget is exactly the L1 norm of the reported plans.
        assert sum(l1_norm(p) for p in res.plans) == pytest.approx(res.budget, abs=1e-12)

    def test_budget_upper_bounds_oracle_distance(self):
        params = halves_classifier()
        res = flow_pgd_attack(params, split_image(0.60), 0, self.spec, self.cfg(), rng=7)
        assert res.success
        assert res.oracle_radius is not None
        assert res.oracle_radius <= res.budget + 1e-9

    def test_wrong_clean_prediction_short_circuits(self):
        params = halves_classifier()
        res = flow_pgd_attack(params, split_image(0.56), 1, self.spec, self.cfg(), rng=7)
        assert res.success and not res.clean_correct
        assert res.budget == 0.0
        assert res.iteration == 0
        assert res.oracle_radius == 0.0
        assert res.plans.shape == (1, edge_count((1, 4, 4))) and not res.plans.any()

    def test_deterministic_given_seed(self):
        params = halves_classifier()
        a = flow_pgd_attack(params, split_image(0.6), 0, self.spec, self.cfg(), rng=7)
        b = flow_pgd_attack(params, split_image(0.6), 0, self.spec, self.cfg(), rng=7)
        # The same image with an explicit channel axis is the same input.
        c = flow_pgd_attack(params, split_image(0.6)[None], 0, self.spec, self.cfg(), rng=7)
        for other in (b, c):
            assert ((a.success, a.budget, a.iteration, a.prediction, a.oracle_radius)
                    == (other.success, other.budget, other.iteration, other.prediction,
                        other.oracle_radius))
            assert a.plans.shape == other.plans.shape == (1, edge_count((1, 4, 4)))
            assert np.array_equal(a.plans, other.plans)

    def test_plans_are_the_packed_delta_one_row_per_channel(self):
        # A weak random 3-channel model that flips while every pixel stays
        # nonnegative, so the exact oracle radius ties the rows to the
        # perturbation the attack evaluated.
        cshape = (3, 5, 5)
        x = 0.5 + np.random.default_rng(62).random(cshape)
        x /= x.sum()
        params = init_params(cshape, 2, rng=np.random.default_rng(72))
        spec = NoiseSpec(FLOW, 0.01)
        label = smoothed_predict(params, x, spec, 300, 0.05, np.random.default_rng(1)).predicted
        cfg = AttackConfig(iterations=15, gradient_samples=16, max_radius=0.2,
                           predict_samples=300)
        res = flow_pgd_attack(params, x, label, spec, cfg, rng=5)
        assert res.success and res.oracle_radius is not None
        assert res.plans.shape == (3, edge_count((1, 5, 5)))
        assert l1_norm(res.plans) == pytest.approx(res.budget, abs=1e-12)
        perturbed = x + divergence(res.plans.ravel(), cshape)
        for k in range(3):
            one = divergence(res.plans[k], (1, 5, 5))[0]
            assert np.array_equal(x[k] + one, perturbed[k])
        assert res.oracle_radius == pytest.approx(
            wasserstein_grid_l1(x, perturbed / perturbed.sum())[0], abs=1e-12)

    @pytest.mark.parametrize("scheme", [FLOW, PIXEL])
    def test_iterates_with_negative_pixels_are_evaluated(self, monkeypatch, scheme):
        # x + D delta keeps total 1 but not its signs; smoothed_predict takes
        # it by the unit-total rule and the attack runs its whole schedule.
        rng = np.random.default_rng(0)
        x = rng.dirichlet(np.ones(16)).reshape(4, 4)
        params = init_params((4, 4), 2, rng=rng)
        spec = NoiseSpec(scheme, 0.05)
        label = smoothed_predict(params, x, spec, 300, 0.05, np.random.default_rng(1)).predicted
        lowest = []

        def spy(params, image, *args):
            lowest.append(image.min())
            return smoothed_predict(params, image, *args)
        monkeypatch.setattr(attack, "smoothed_predict", spy)
        res = flow_pgd_attack(params, x, label, spec,
                              self.cfg(iterations=15, gradient_samples=16, predict_samples=300),
                              rng=5)
        assert res.clean_correct and not res.success
        assert len(lowest) == 16 and min(lowest) < 0

    def test_robust_image_survives_small_budget(self):
        params = halves_classifier()
        # 0.9 top mass needs ~0.2 moved; a 0.05 cap cannot reach it.
        res = flow_pgd_attack(params, split_image(0.9), 0, self.spec,
                              self.cfg(max_radius=0.05, iterations=20), rng=7)
        assert not res.success
        assert res.iteration is None
        assert res.budget <= 0.05 + 1e-12

    def test_zero_iterations_only_checks_clean(self):
        params = halves_classifier()
        res = flow_pgd_attack(params, split_image(0.75), 0, self.spec,
                              self.cfg(iterations=0), rng=7)
        assert not res.success and res.clean_correct

    @pytest.mark.parametrize("scheme", [FLOW, PIXEL])
    @pytest.mark.parametrize("shape, channels", [((1, 1), 1), ((3, 1, 1), 3)],
                             ids=["1x1", "3x1x1"])
    def test_an_image_with_no_edges_has_no_mass_to_move(self, scheme, shape, channels):
        x = np.full(shape, 1 / np.prod(shape))
        params = ClassifierParams(shape, [np.random.default_rng(0).normal(size=(x.size, 2))],
                                  [np.array([5.0, 0.0])])
        res = flow_pgd_attack(params, x, 0, NoiseSpec(scheme, 0.1),
                              self.cfg(iterations=4, predict_samples=100), rng=7)
        assert res.clean_correct and not res.success
        assert res.budget == 0.0 and res.plans.shape == (channels, 0)

    @pytest.mark.parametrize("x, label, message", [
        (split_image(0.75), 7, "label must be in [0, 2), got 7"),
        (split_image(0.75), -1, "label must be in [0, 2), got -1"),
        (split_image(0.75), True, "label must be an integer, got True"),
        (2 * split_image(0.75), 0, "image 0 has total mass 2.0, not 1 within 1e-09"),
        (split_image(1.25), 0, "image 0 has a negative pixel"),
        (np.full((2, 8), 1 / 16), 0,
         "image of shape (1, 2, 8) fed to classifier expecting (1, 4, 4)"),
    ], ids=["label_past_classes", "label_negative", "label_bool", "mass_2", "negative_pixel",
            "shape_2x8"])
    def test_refuses_a_bad_label_or_image_before_any_draw(self, monkeypatch, x, label, message):
        def no_draws(*args, **kwargs):
            raise AssertionError("the attack drew before refusing its input")
        monkeypatch.setattr(attack, "smoothed_predict", no_draws)
        monkeypatch.setattr(attack, "_edge_noise", no_draws)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            flow_pgd_attack(halves_classifier(), x, label, self.spec, self.cfg(iterations=0),
                            rng=7)


class TestFoldedGradient:
    @pytest.mark.parametrize("scheme", [FLOW, PIXEL])
    @pytest.mark.parametrize("hidden", [None, 16])
    def test_equals_pixel_backprop_pulled_back(self, scheme, hidden):
        # The gradient of the folded classifier is the pixel-space gradient
        # of the noisy images pulled back through D^T, on the same draws.
        cshape, samples, label = (2, 4, 5), 64, 1
        rng = np.random.default_rng(21 + (hidden or 0))
        params = init_params(cshape, 3, hidden=hidden, rng=rng)
        x = rng.dirichlet(np.ones(40)).reshape(cshape)
        perturbed = x + divergence(0.01 * rng.normal(size=edge_count(cshape)), cshape)
        spec = NoiseSpec(scheme, 0.2)
        inc = _sample_increments(spec, cshape, samples, np.random.default_rng(4))
        g_pix = input_gradient_batch(params, perturbed[None] + inc, np.full(samples, label))
        reference = divergence_adjoint(g_pix.mean(axis=0))
        grad = _flow_gradient(_fold(params, cshape, spec)(perturbed), cshape, label, spec,
                              samples, np.random.default_rng(4))
        assert grad.shape == reference.shape
        assert np.abs(grad - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_the_gradients_share_one_fold(self, monkeypatch):
        # Under flow noise every fold of D^T W0 is one divergence_adjoint call:
        # one for all the attack's gradients, plus one in each predict.
        folds, predicts = [], []

        def counting_adjoint(g):
            folds.append(g.shape)
            return divergence_adjoint(g)

        def counting_predict(*a, **kw):
            predicts.append(a[1])
            return smoothed_predict(*a, **kw)

        monkeypatch.setattr(smoothing, "divergence_adjoint", counting_adjoint)
        monkeypatch.setattr(attack, "smoothed_predict", counting_predict)
        cfg = AttackConfig(iterations=40, gradient_samples=32, max_radius=0.5,
                           growth_interval=5, predict_samples=1000)
        res = flow_pgd_attack(halves_classifier(), split_image(0.56), 0, NoiseSpec(FLOW, 0.01),
                              cfg, rng=7)
        assert res.success and res.iteration >= 2
        assert len(folds) == 1 + len(predicts)

    @pytest.mark.parametrize("scheme", [FLOW, PIXEL])
    def test_attack_runs_under_both_schemes(self, scheme):
        cfg = AttackConfig(iterations=40, gradient_samples=32, max_radius=0.5,
                           growth_interval=5, predict_samples=1000)
        res = flow_pgd_attack(halves_classifier(), split_image(0.56), 0, NoiseSpec(scheme, 0.01),
                              cfg, rng=7)
        assert res.clean_correct and res.success
        assert 0 < res.budget <= 0.5 + 1e-12


class TestEarlyStop:
    """Stopping the predict draws early changes no attack outcome."""

    def weak_3channel(self):
        cshape = (3, 5, 5)
        x = 0.5 + np.random.default_rng(62).random(cshape)
        x /= x.sum()
        params = init_params(cshape, 2, rng=np.random.default_rng(72))
        spec = NoiseSpec(FLOW, 0.01)
        label = smoothed_predict(params, x, spec, 300, 0.05, np.random.default_rng(1)).predicted
        cfg = AttackConfig(iterations=15, gradient_samples=16, max_radius=0.2,
                           predict_samples=300)
        return params, x, label, spec, cfg

    def halves(self, scheme):
        cfg = AttackConfig(iterations=40, gradient_samples=32, max_radius=0.5,
                           growth_interval=5, predict_samples=1000)
        return halves_classifier(), split_image(0.56), 0, NoiseSpec(scheme, 0.01), cfg

    @pytest.mark.parametrize("case", ["flow", "pixel", "3channel"])
    def test_outcome_equals_the_full_tally_run(self, monkeypatch, case):
        # Small blocks give these small images several stop checks per batch;
        # the draws do not depend on the block size.
        monkeypatch.setattr(smoothing, "DRAW_VALUES", 2000)
        args = self.weak_3channel() if case == "3channel" else self.halves(
            {"flow": FLOW, "pixel": PIXEL}[case])
        made = []

        def counting_predict(*a, **kw):
            pred = smoothed_predict(*a, **kw)
            made.append(pred.num_samples)
            return pred

        def full_predict(params, x, spec, n, alpha, rng=None, workers=1):
            return prediction_from_counts(sum(image_vote_counts(params, x, spec, n, rng, workers)),
                                          alpha)

        monkeypatch.setattr(attack, "smoothed_predict", counting_predict)
        stopped = flow_pgd_attack(*args, rng=5)
        monkeypatch.setattr(attack, "smoothed_predict", full_predict)
        full = flow_pgd_attack(*args, rng=5)
        for field in ("success", "clean_correct", "budget", "iteration", "oracle_radius"):
            assert getattr(stopped, field) == getattr(full, field), field
        assert np.array_equal(stopped.plans, full.plans)
        assert stopped.prediction.predicted == full.prediction.predicted
        assert stopped.success
        assert sum(made) < len(made) * args[-1].predict_samples


class TestRobustnessCurve:
    def build(self):
        params = halves_classifier()
        raws = [split_image(0.56), split_image(0.60), split_image(0.75), split_image(0.56)]
        labels = [0, 0, 0, 1]  # the last image is deliberately mislabeled
        ds = make_dataset(np.array(raws), np.array(labels), num_classes=2)
        cfg = AttackConfig(iterations=40, gradient_samples=32, max_radius=0.5,
                           growth_interval=5, predict_samples=1000)
        return params, ds, cfg

    def test_curve_shape_and_anchors(self):
        params, ds, cfg = self.build()
        spec = NoiseSpec(FLOW, 0.05)
        curve, results = robustness_curve(params, ds, spec, [0.0, 0.08, 0.15, 0.5], cfg, rng=7)
        radii = [rho for rho, _ in curve]
        accs = [acc for _, acc in curve]
        assert radii == sorted(radii)
        assert all(a >= b for a, b in zip(accs, accs[1:]))
        clean_acc = float(np.mean([r.clean_correct for r in results]))
        assert accs[0] == clean_acc
        # Generous budget kills every borderline image; only nothing survives.
        assert accs[-1] == 0.0

    def test_each_outcome_sets_its_breaking_budget(self):
        # A wrong clean prediction (iteration 0) breaks at budget 0, a broken
        # image at its final budget, a survivor (None) at no budget.
        ds = make_dataset(np.array([split_image(0.56), split_image(0.56), split_image(0.9)]),
                          np.array([1, 0, 0]), num_classes=2)
        cfg = AttackConfig(iterations=20, gradient_samples=32, growth_interval=1,
                           predict_samples=400)
        radii = [0.0, 0.05, 0.1]
        rows, results = robustness_curve(halves_classifier(), ds, NoiseSpec(FLOW, 0.05), radii,
                                         cfg, rng=7)
        assert [res.iteration for res in results] == [0, 6, None]
        assert results[0].budget == 0.0 and 0.05 < results[1].budget <= 0.1
        for res in results:
            assert res.success == (res.iteration is not None)
            assert res.clean_correct == (res.iteration != 0)
        breaking = []
        for res in results:
            if res.iteration == 0:
                breaking.append(0.0)
            elif res.iteration is None:
                breaking.append(np.inf)
            else:
                breaking.append(res.budget)
        assert rows == [(rho, sum(b > rho for b in breaking) / len(breaking)) for rho in radii]
        assert rows == [(0.0, 2 / 3), (0.05, 2 / 3), (0.1, 1 / 3)]

    def test_zero_radii_attack_nothing(self):
        # Radii of only 0 give the clean predictions: no image is attacked,
        # so the survivor is not reported broken past the largest radius.
        ds = make_dataset(np.array([split_image(0.56), split_image(0.56), split_image(0.9)]),
                          np.array([1, 0, 0]), num_classes=2)
        cfg = AttackConfig(iterations=20, gradient_samples=32, growth_interval=1,
                           predict_samples=400)
        rows, results = robustness_curve(halves_classifier(), ds, NoiseSpec(FLOW, 0.05), [0.0],
                                         cfg, rng=7)
        assert [res.iteration for res in results] == [0, None, None]
        assert all(res.budget == 0.0 and not res.plans.any() for res in results)
        assert rows == [(0.0, 2 / 3)]

    def test_unsorted_radii_are_sorted(self):
        params, ds, cfg = self.build()
        spec = NoiseSpec(FLOW, 0.05)
        curve, _ = robustness_curve(params, ds.subset([0]), spec, [0.1, 0.0], cfg, rng=7)
        assert [rho for rho, _ in curve] == [0.0, 0.1]

    def test_rejects_bad_inputs(self):
        params, ds, cfg = self.build()
        spec = NoiseSpec(FLOW, 0.05)
        with pytest.raises(ValueError):
            robustness_curve(params, ds, spec, [], cfg)
        with pytest.raises(ValueError):
            robustness_curve(params, ds, spec, [-0.1, 0.2], cfg)
        with pytest.raises(ValueError, match=r"radii\[0\] must be a finite number, got nan"):
            robustness_curve(params, ds, spec, [float("nan")], cfg)
        with pytest.raises(ValueError):
            robustness_curve(params, ds.subset([]), spec, [0.0], cfg)
        # A failed attack stops at the schedule's last budget, 0.05 after 5
        # iterations and nothing after none, so it says nothing about 0.5.
        for iterations, reach in ((5, "0.05"), (0, "0")):
            with pytest.raises(ValueError, match=f"reaches L1 budget {reach} after {iterations} "
                                                 "iterations, short of the largest radius 0.5$"):
                robustness_curve(params, ds, spec, [0.0, 0.5],
                                 AttackConfig(iterations=iterations, growth_interval=5))
