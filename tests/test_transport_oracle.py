import numpy as np
import pytest
from hypothesis import given, settings

from wsmooth import (
    ChannelMassError,
    GroundMetric,
    NormalizationError,
    ScaleError,
    ShapeMismatchError,
    apply_flow,
    flow_from_edge,
    l1_norm,
    run_oracle_checks,
    solve_flow_1d,
    wasserstein_grid_l1,
    wasserstein_lp,
)
from wsmooth.flow_domain import divergence, edge_count
from wsmooth.transport_oracle import MAX_LP_PIXELS

from analytic import full_coupling_lp, min_flow_plan, successive_shortest_paths_grid_l1
from conftest import image_flow_pairs, image_pairs


def corner_images():
    a = np.zeros((2, 2))
    a[0, 0] = 1.0
    b = np.zeros((2, 2))
    b[1, 1] = 1.0
    return a, b


class TestCouplingLp:
    def test_identical_images_diagonal_plan(self):
        x = np.full((2, 3), 1 / 6)
        dist, plan = wasserstein_lp(x, x)
        assert dist == 0.0
        off_diag = plan - np.diag(np.diag(plan))
        assert np.abs(off_diag).max() < 1e-9
        assert np.allclose(np.diag(plan), x.ravel(), atol=1e-9)

    def test_corner_to_corner_both_metrics(self):
        a, b = corner_images()
        d1, _ = wasserstein_lp(a, b, GroundMetric.L1)
        d2, _ = wasserstein_lp(a, b, GroundMetric.L2)
        assert d1 == pytest.approx(2.0, abs=1e-9)
        assert d2 == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_split_example(self):
        d, _ = wasserstein_lp(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_rejects_oversize(self):
        big = np.full((9, 9), 1 / 81)
        with pytest.raises(ScaleError):
            wasserstein_lp(big, big)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            wasserstein_lp(np.full((2, 2), 0.25), np.full((1, 4), 0.25))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            wasserstein_lp(np.full((2, 2), 0.3), np.full((2, 2), 0.25))

    @settings(max_examples=30, deadline=None)
    @given(image_pairs(min_side=2, max_side=3))
    def test_metric_sandwich(self, pair):
        x, xp = pair
        d1, _ = wasserstein_lp(x, xp, GroundMetric.L1)
        d2, _ = wasserstein_lp(x, xp, GroundMetric.L2)
        assert d2 <= d1 + 1e-9
        assert d1 <= np.sqrt(2.0) * d2 + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(image_pairs(min_side=2, max_side=3))
    def test_pixel_l1_within_twice_wasserstein(self, pair):
        x, xp = pair
        d2, _ = wasserstein_lp(x, xp, GroundMetric.L2)
        assert np.abs(x - xp).sum() <= 2.0 * d2 + 1e-8


def check_reduced_coupling(x, xp, metric):
    """wasserstein_lp against the full N^2 coupling LP: same distance, and a
    nonnegative coupling with the right marginals, min(a, b) on its diagonal
    and cost equal to the distance."""
    a, b = x / x.sum(), xp / xp.sum()
    cost = metric.cost_matrix(a.shape)
    dist, plan = wasserstein_lp(x, xp, metric)
    assert abs(dist - full_coupling_lp(a, b, cost)) <= 1e-9
    assert plan.shape == (a.size, a.size) and plan.min() >= 0.0
    assert np.abs(plan.sum(axis=1) - a.ravel()).max() <= 1e-9
    assert np.abs(plan.sum(axis=0) - b.ravel()).max() <= 1e-9
    assert np.array_equal(np.diag(plan), np.minimum(a, b).ravel())
    assert abs(float((cost * plan).sum()) - dist) <= 1e-9
    return dist, plan


@pytest.mark.parametrize("metric", list(GroundMetric))
class TestReducedCouplingLp:
    """The coupling LP ships only x - xp; the full LP over every pixel pair
    is the reference."""

    @settings(max_examples=30, deadline=None)
    @given(image_pairs(min_side=2, max_side=3))
    def test_small_grids_match_full_lp(self, metric, pair):
        check_reduced_coupling(*pair, metric)

    def test_largest_grids_match_full_lp(self, metric, rng):
        side = int(np.sqrt(MAX_LP_PIXELS))
        for _ in range(20):
            x, xp = rng.dirichlet(np.ones(side * side), size=2).reshape(2, side, side)
            check_reduced_coupling(x, xp, metric)

    def test_one_ulp_apart(self, metric, rng):
        x = rng.dirichlet(np.ones(9)).reshape(3, 3)
        xp = x.copy()
        xp[0, 0] = np.nextafter(xp[0, 0], 1.0)
        xp[2, 1] = np.nextafter(xp[2, 1], 0.0)
        dist, _ = check_reduced_coupling(x, xp, metric)
        assert dist <= 1e-15

    def test_disjoint_supports(self, metric, rng):
        x = np.zeros((3, 3))
        xp = np.zeros((3, 3))
        x[:, 0] = rng.dirichlet(np.ones(3))
        xp[:, 2] = rng.dirichlet(np.ones(3))
        dist, plan = check_reduced_coupling(x, xp, metric)
        assert dist >= 2.0 - 1e-9 and not np.diag(plan).any()

    def test_single_pixel(self, metric):
        dist, plan = wasserstein_lp(np.ones((1, 1)), np.ones((1, 1)), metric)
        assert dist == 0.0 and np.array_equal(plan, np.ones((1, 1)))


class TestGridSolver:
    def test_identical_images(self):
        x = np.full((3, 3), 1 / 9)
        dist, edge = wasserstein_grid_l1(x, x)
        assert dist == 0.0
        assert edge.shape == (2, 12) and not edge.any()

    def test_corner_to_corner(self):
        a, b = corner_images()
        dist, _ = wasserstein_grid_l1(a, b)
        assert dist == pytest.approx(2.0, abs=1e-12)

    def test_split_example(self):
        dist, edge = wasserstein_grid_l1(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))
        assert dist == pytest.approx(0.5, abs=1e-15)
        assert edge[0, 0] == pytest.approx(0.5) and edge[1, 0] == 0.0

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (3, 4)])
    def test_arcs_are_nonnegative_in_packed_layout(self, rng, shape):
        x = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
        xp = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
        _, arcs = wasserstein_grid_l1(x, xp)
        assert arcs.shape == (2, edge_count((1,) + shape))
        assert arcs.min(initial=0.0) >= 0.0

    def test_transpose_symmetry(self, rng):
        x = rng.dirichlet(np.ones(12)).reshape(3, 4)
        xp = rng.dirichlet(np.ones(12)).reshape(3, 4)
        d, _ = wasserstein_grid_l1(x, xp)
        d_t, _ = wasserstein_grid_l1(x.T, xp.T)
        d_rev, _ = wasserstein_grid_l1(xp, x)
        assert d == pytest.approx(d_t, abs=1e-12)
        assert d == pytest.approx(d_rev, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(image_pairs(min_side=2, max_side=3))
    def test_agrees_with_lp(self, pair):
        x, xp = pair
        d_lp, _ = wasserstein_lp(x, xp, GroundMetric.L1)
        d_grid, _ = wasserstein_grid_l1(x, xp)
        assert abs(d_lp - d_grid) < 1e-8

    @settings(max_examples=40, deadline=None)
    @given(image_flow_pairs(min_side=2, max_side=3))
    def test_distance_lower_bounds_any_feasible_plan(self, pair):
        x, plan = pair
        moved = apply_flow(x, plan)
        if moved.values.min() < 0:
            return
        d, _ = wasserstein_grid_l1(x, moved.values / moved.values.sum())
        assert d <= l1_norm(plan) + 1e-8

    def test_rejects_bad_images(self):
        x = np.full((2, 2), 0.25)
        for bad, error in ((np.full((1, 2, 2), 0.25), ShapeMismatchError),
                           (np.full(4, 0.25), ShapeMismatchError),
                           (np.full((2, 2), 0.3), NormalizationError),
                           (np.array([[0.75, 0.5], [0.0, -0.25]]), NormalizationError)):
            with pytest.raises(error):
                wasserstein_grid_l1(x, bad)
            with pytest.raises(error):
                wasserstein_grid_l1(bad, x)


class TestPaperScale:
    """28 x 28 is the MNIST size the paper certifies at, past the dense LP's
    64-pixel cap, so the checks here rest on the flow identities, the 1-D
    closed form and the successive-shortest-paths reference."""

    def test_plan_feasible_and_norm_optimal(self, rng):
        x = rng.dirichlet(np.ones(784)).reshape(28, 28)
        xp = rng.dirichlet(np.ones(784)).reshape(28, 28)
        d, _ = wasserstein_grid_l1(x, xp)
        plan = min_flow_plan(x, xp)
        assert np.abs(apply_flow(x, plan).values - xp / xp.sum()).max() < 1e-9
        assert abs(l1_norm(plan) - d) < 1e-8

    def test_swap_symmetry(self, rng):
        x = rng.dirichlet(np.ones(784)).reshape(28, 28)
        xp = rng.dirichlet(np.ones(784)).reshape(28, 28)
        d, _ = wasserstein_grid_l1(x, xp)
        d_rev, _ = wasserstein_grid_l1(xp, x)
        assert abs(d - d_rev) <= 1e-12

    def test_row_matches_1d_closed_form(self, rng):
        x = rng.dirichlet(np.ones(784))
        xp = rng.dirichlet(np.ones(784))
        d, _ = wasserstein_grid_l1(x[None, :], xp[None, :])
        closed = float(np.abs(solve_flow_1d(x / x.sum(), xp / xp.sum())).sum())
        assert abs(d - closed) <= 1e-9

    def test_three_channels_are_mass_weighted(self, rng):
        weights = np.array([0.2, 0.3, 0.5])
        a = rng.dirichlet(np.ones(784), size=3).reshape(3, 28, 28)
        b = rng.dirichlet(np.ones(784), size=3).reshape(3, 28, 28)
        x = weights[:, None, None] * a
        xp = weights[:, None, None] * b
        expected = sum(w * wasserstein_grid_l1(a[k], b[k])[0] for k, w in enumerate(weights))
        assert abs(wasserstein_grid_l1(x, xp)[0] - expected) <= 1e-10

    @pytest.mark.parametrize("shape", [(12, 12), (10, 16)])
    def test_matches_successive_shortest_paths(self, rng, shape):
        x = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
        xp = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
        d, _ = wasserstein_grid_l1(x, xp)
        assert abs(d - successive_shortest_paths_grid_l1(x, xp)) < 1e-8


class TestMinFlowPlan:
    def test_identical_images_zero_plan(self):
        x = np.full((2, 2), 0.25)
        assert l1_norm(min_flow_plan(x, x)) == 0.0

    def test_corner_norm(self):
        a, b = corner_images()
        assert l1_norm(min_flow_plan(a, b)) == pytest.approx(2.0, abs=1e-12)

    def test_matches_1d_closed_form_exactly(self, rng):
        x = rng.dirichlet(np.ones(6))
        xp = rng.dirichlet(np.ones(6))
        plan = min_flow_plan(x[None, :], xp[None, :])
        delta = solve_flow_1d(x / x.sum(), xp / xp.sum())
        # A 1 x 6 grid has only horizontal edges.
        assert plan.shape == delta.shape == (5,)
        assert np.allclose(plan, delta, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(image_pairs(min_side=2, max_side=3))
    def test_feasible_and_norm_optimal(self, pair):
        x, xp = pair
        plan = min_flow_plan(x, xp)
        d, _ = wasserstein_grid_l1(x, xp)
        target = xp / xp.sum()
        assert np.abs(apply_flow(x, plan).values - target).max() < 1e-9
        assert abs(l1_norm(plan) - d) < 1e-8


def w1(x, xp) -> float:
    return wasserstein_grid_l1(x, xp)[0]


class TestPerChannel:
    """(C, n, m) pairs: no mass crosses channels, so the distance is the
    mass-weighted sum of the per-channel distances, solved as one LP."""

    def test_identical_images(self):
        img = np.full((3, 2, 2), 1 / 12)
        assert w1(img, img) == 0.0

    def test_two_corner_channels(self):
        a, b = corner_images()
        x = np.stack([a, a]) / 2.0
        xp = np.stack([b, b]) / 2.0
        # each channel holds mass 0.5 moved across distance 2
        assert w1(x, xp) == pytest.approx(2.0, abs=1e-12)

    def test_single_channel_matches_grid_solver(self, rng):
        # One channel is the (n, m) problem itself, bit for bit.
        a = rng.dirichlet(np.ones(9)).reshape(3, 3)
        b = rng.dirichlet(np.ones(9)).reshape(3, 3)
        d_multi, arcs_multi = wasserstein_grid_l1(a[None], b[None])
        d_grid, arcs_grid = wasserstein_grid_l1(a, b)
        assert d_multi == d_grid and np.array_equal(arcs_multi, arcs_grid)

    def test_zero_mass_channel_contributes_nothing(self):
        a, b = corner_images()
        x = np.stack([a, np.zeros((2, 2))])
        xp = np.stack([b, np.zeros((2, 2))])
        assert w1(x, xp) == pytest.approx(2.0, abs=1e-12)

    def test_channel_empty_on_both_sides_carries_no_flow(self, rng):
        a = rng.dirichlet(np.ones(12)).reshape(3, 4)
        b = rng.dirichlet(np.ones(12)).reshape(3, 4)
        empty = np.zeros((3, 4))
        x, xp = np.stack([0.4 * a, empty, 0.6 * b]), np.stack([0.4 * b, empty, 0.6 * a])
        d, arcs = wasserstein_grid_l1(x, xp)
        per = edge_count((1, 3, 4))
        assert not arcs[:, per:2 * per].any()
        assert d == pytest.approx(wasserstein_grid_l1(a, b)[0], abs=1e-10)

    def test_mass_mismatch_rejected(self):
        a, b = corner_images()
        x = np.stack([0.7 * a, 0.3 * a])
        xp = np.stack([0.4 * b, 0.6 * b])
        with pytest.raises(ChannelMassError):
            w1(x, xp)

    def test_negligible_mass_on_one_side_only_still_solves(self, rng):
        # Masses (1 - eps, eps) vs (1, 0) agree within 1e-9.  xp's empty
        # channel cannot be rescaled, so x's eps stays unmatched there; it
        # is absorbed by that channel's dropped row and costs at most
        # eps * (n + m - 2).
        eps = 5e-10
        a = rng.dirichlet(np.ones(12)).reshape(3, 4)
        b = rng.dirichlet(np.ones(12)).reshape(3, 4)
        speck = np.zeros((3, 4))
        speck[0, 0] = eps
        d = w1(np.stack([(1 - eps) * a, speck]), np.stack([b, np.zeros((3, 4))]))
        assert abs(d - w1(a, b)) <= 1e-8

    @pytest.mark.parametrize("gap, fits", [(2e-9, False), (5e-10, True)])
    def test_channel_masses_must_agree_within_tolerance(self, rng, gap, fits):
        # Masses 1e-9 apart or closer are balanced by rescaling xp's
        # channels to x's, so the distance is the mass-weighted sum of the
        # per-channel distances of the normalized channels.
        a = rng.dirichlet(np.ones(36), size=2).reshape(2, 6, 6)
        b = rng.dirichlet(np.ones(36), size=2).reshape(2, 6, 6)
        x = np.stack([0.3 * a[0], 0.7 * a[1]])
        xp = np.stack([(0.3 + gap) * b[0], (0.7 - gap) * b[1]])
        if not fits:
            with pytest.raises(ChannelMassError):
                w1(x, xp)
            return
        expected = 0.3 * w1(a[0], b[0]) + 0.7 * w1(a[1], b[1])
        assert abs(w1(x, xp) - expected) <= 1e-12

    def test_arcs_move_each_channel_in_the_packed_layout(self, rng):
        cshape = (3, 4, 5)
        weights = np.array([0.5, 0.2, 0.3])[:, None, None]
        x = weights * rng.dirichlet(np.ones(20), size=3).reshape(cshape)
        xp = weights * rng.dirichlet(np.ones(20), size=3).reshape(cshape)
        d, arcs = wasserstein_grid_l1(x, xp)
        assert arcs.shape == (2, edge_count(cshape)) and arcs.min() >= 0.0
        net = flow_from_edge(arcs)
        assert np.abs(x + divergence(net, cshape) - xp).max() < 1e-9
        assert abs(l1_norm(net) - d) < 1e-9

    def test_rejects_bad_images(self):
        x = np.full((2, 2, 2), 0.125)
        for bad, error in ((np.full((2, 2), 0.25), ShapeMismatchError),
                           (np.full((2, 2, 3), 1 / 12), ShapeMismatchError),
                           (np.full((2, 2, 2), 0.25), NormalizationError),
                           (np.stack([np.full((2, 2), 0.5), np.full((2, 2), -0.25)]),
                            NormalizationError)):
            with pytest.raises(error):
                w1(x, bad)
            with pytest.raises(error):
                w1(bad, x)

    def test_mass_weighting(self, rng):
        a = rng.dirichlet(np.ones(9)).reshape(3, 3)
        b = rng.dirichlet(np.ones(9)).reshape(3, 3)
        d_unit, _ = wasserstein_grid_l1(a, b)
        x = np.stack([0.25 * a, 0.75 * a])
        xp = np.stack([0.25 * b, 0.75 * b])
        assert w1(x, xp) == pytest.approx(d_unit, abs=1e-10)


def test_oracle_check_suite_passes():
    outcomes = run_oracle_checks(num_pairs=25, seed=7)
    assert len(outcomes) == 8
    for oc in outcomes:
        assert oc.passed, f"{oc.name}: residual {oc.max_residual} over {oc.tolerance}"
