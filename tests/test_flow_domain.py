import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsmooth import (
    EdgeFlow,
    LocalFlowPlan,
    NormalizationError,
    RawGrid,
    ShapeMismatchError,
    apply_flow,
    flow_from_edge,
    l1_norm,
    solve_flow_1d,
)
from wsmooth.flow_domain import as_channels, divergence, divergence_adjoint, unit_mass
from wsmooth.transport_oracle import _grid_incidence

from analytic import edge_from_flow
from conftest import flow_plans, grid_images, image_flow_pairs


def zero_plan(shape):
    n, m = shape
    return LocalFlowPlan(np.zeros((n - 1, m)), np.zeros((n, m - 1)))


class TestTypes:
    def test_unit_mass_rejects_negative(self):
        with pytest.raises(NormalizationError):
            unit_mass(np.array([[1.5, -0.5]]))
        with pytest.raises(NormalizationError):
            unit_mass(np.array([[[1.5, -0.5]]]))

    def test_unit_mass_rejects_wrong_mass(self):
        for bad in (np.array([[0.3, 0.3]]), np.array([[np.nan, 0.5]])):
            with pytest.raises(NormalizationError):
                unit_mass(bad)

    def test_unit_mass_rejects_wrong_rank(self):
        for bad in (np.ones(4) / 4, np.ones((1, 1, 2, 2)) / 4, np.zeros((0, 3))):
            with pytest.raises(ShapeMismatchError):
                unit_mass(bad)

    def test_unit_mass_returns_the_values(self):
        x = np.array([[0.25, 0.75]])
        assert np.array_equal(unit_mass(x), x)
        assert unit_mass([[0.5, 0.5]]).dtype == np.float64

    def test_as_channels_views_both_ranks(self):
        x = np.array([[0.25, 0.75]])
        assert as_channels(x).shape == (1, 1, 2)
        assert np.shares_memory(as_channels(x), x)
        assert as_channels(x[None]).shape == (1, 1, 2)
        with pytest.raises(ShapeMismatchError):
            as_channels(np.ones(4))

    def test_raw_grid_allows_negative_but_checks_mass(self):
        RawGrid(np.array([[1.5, -0.5]]))
        for bad in (np.array([[1.5, 0.5]]), np.array([[np.nan, 1.0]])):
            with pytest.raises(NormalizationError):
                RawGrid(bad)

    def test_plan_shape_consistency(self):
        LocalFlowPlan(np.zeros((1, 2)), np.zeros((2, 1)))
        with pytest.raises(ShapeMismatchError):
            LocalFlowPlan(np.zeros((2, 2)), np.zeros((2, 1)))

    def test_edge_flow_rejects_negative(self):
        with pytest.raises(ValueError):
            EdgeFlow(np.array([[-0.1, 0.0]]), np.zeros((1, 2)), np.zeros((2, 1)), np.zeros((2, 1)))

    def test_unit_mass_is_grand_total_over_channels(self):
        img = unit_mass(np.stack([np.full((2, 2), 0.1), np.full((2, 2), 0.15)]))
        assert np.allclose(img.sum(axis=(1, 2)), [0.4, 0.6])
        with pytest.raises(NormalizationError):
            unit_mass(np.stack([np.full((2, 2), 0.3), np.full((2, 2), 0.3)]))


class TestApplyFlow:
    def test_zero_plan_is_identity(self):
        x = np.full((3, 3), 1 / 9)
        out = apply_flow(x, zero_plan((3, 3)))
        assert np.array_equal(out.values, x)

    def test_hand_example_positive_flows(self):
        # 0.3 flows down out of the corner and 0.2 flows right out of it.
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        plan = LocalFlowPlan(np.array([[0.3, 0.0]]), np.array([[0.2], [0.0]]))
        out = apply_flow(x, plan)
        assert np.allclose(out.values, [[0.5, 0.2], [0.3, 0.0]], atol=1e-12)

    def test_hand_example_negative_flow_goes_negative(self):
        # Negative vert flow pulls 0.4 upward out of a pixel holding 0.1.
        x = np.array([[0.2, 0.3], [0.1, 0.4]])
        plan = LocalFlowPlan(np.array([[-0.4, 0.0]]), np.zeros((2, 1)))
        out = apply_flow(x, plan)
        assert np.allclose(out.values, [[0.6, 0.3], [-0.3, 0.4]], atol=1e-12)
        assert out.values.min() < 0

    def test_shape_mismatch(self):
        x = np.full((2, 2), 0.25)
        with pytest.raises(ShapeMismatchError):
            apply_flow(x, zero_plan((3, 2)))

    @settings(max_examples=200)
    @given(image_flow_pairs())
    def test_mass_conservation(self, pair):
        x, plan = pair
        out = apply_flow(x, plan)
        budget = 1e-12 * max(plan.vert.size + plan.horiz.size, 1)
        assert abs(out.values.sum() - x.sum()) <= budget

    @settings(max_examples=100)
    @given(image_flow_pairs(), st.data())
    def test_additivity(self, pair, data):
        x, d1 = pair
        d2 = data.draw(flow_plans(shape=d1.image_shape))
        once = apply_flow(apply_flow(x, d1), d2).values
        combined = apply_flow(x, LocalFlowPlan(d1.vert + d2.vert, d1.horiz + d2.horiz)).values
        assert np.allclose(once, combined, atol=1e-12)

    @settings(max_examples=100)
    @given(image_flow_pairs())
    def test_inverse_plan_restores_image(self, pair):
        x, plan = pair
        back = apply_flow(apply_flow(x, plan), LocalFlowPlan(-plan.vert, -plan.horiz)).values
        assert np.allclose(back, x, atol=1e-12)


SHAPES = [(1, 1), (1, 7), (7, 1), (2, 2), (4, 5), (6, 3)]
SHAPE_IDS = [f"{n}x{m}" for n, m in SHAPES]


def _random_flows(rng, lead, shape):
    n, m = shape
    return rng.normal(size=lead + (n - 1, m)), rng.normal(size=lead + (n, m - 1))


class TestDivergence:
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_matches_sparse_incidence(self, rng, shape):
        # The oracle's node-arc incidence gives each pixel's net outflow, so
        # with only the down and right arcs carrying the signed flows its
        # negation is the net inflow D f.
        for _ in range(5):
            vert, horiz = _random_flows(rng, (), shape)
            arcs = np.concatenate([vert.ravel(), np.zeros(vert.size),
                                   horiz.ravel(), np.zeros(horiz.size)])
            reference = -(_grid_incidence(*shape) @ arcs).reshape(shape)
            assert np.abs(divergence(vert, horiz) - reference).max() <= 1e-15

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_adjoint_identity(self, rng, shape):
        for _ in range(5):
            vert, horiz = _random_flows(rng, (), shape)
            g = rng.normal(size=shape)
            gv, gh = divergence_adjoint(g)
            lhs = float(np.sum(divergence(vert, horiz) * g))
            rhs = float(np.sum(vert * gv) + np.sum(horiz * gh))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_batched_call_equals_loop_over_slices(self, rng, shape):
        vert, horiz = _random_flows(rng, (3, 2), shape)
        out = divergence(vert, horiz)
        g = rng.normal(size=(3, 2) + shape)
        gv, gh = divergence_adjoint(g)
        assert out.shape == (3, 2) + shape
        assert gv.shape == vert.shape and gh.shape == horiz.shape
        for idx in np.ndindex(3, 2):
            assert np.array_equal(out[idx], divergence(vert[idx], horiz[idx]))
            loop_v, loop_h = divergence_adjoint(g[idx])
            assert np.array_equal(gv[idx], loop_v) and np.array_equal(gh[idx], loop_h)


class TestNorm:
    def test_zero_plan(self):
        assert l1_norm(zero_plan((3, 2))) == 0.0

    def test_hand_value(self):
        plan = LocalFlowPlan(np.array([[0.3, -0.1]]), np.array([[0.25], [0.0]]))
        assert np.isclose(l1_norm(plan), 0.65)

    @settings(max_examples=100)
    @given(flow_plans(), st.floats(-3, 3, allow_nan=False))
    def test_absolute_homogeneity(self, plan, c):
        scaled = LocalFlowPlan(c * plan.vert, c * plan.horiz)
        assert np.isclose(l1_norm(scaled), abs(c) * l1_norm(plan), atol=1e-12)

    @settings(max_examples=100)
    @given(flow_plans(), st.data())
    def test_triangle_inequality(self, d1, data):
        d2 = data.draw(flow_plans(shape=d1.image_shape))
        total = LocalFlowPlan(d1.vert + d2.vert, d1.horiz + d2.horiz)
        assert l1_norm(total) <= l1_norm(d1) + l1_norm(d2) + 1e-12


class TestSolveFlow1d:
    def test_identical_inputs_zero_flow(self):
        np.testing.assert_array_equal(solve_flow_1d([0.5, 0.5], [0.5, 0.5]), [0.0])

    def test_full_shift(self):
        np.testing.assert_allclose(solve_flow_1d([1, 0, 0], [0, 0, 1]), [1.0, 1.0])

    def test_half_shift(self):
        np.testing.assert_allclose(solve_flow_1d([1, 0], [0.5, 0.5]), [0.5])

    def test_requires_matching_mass(self):
        with pytest.raises(NormalizationError):
            solve_flow_1d([0.5, 0.2], [0.5, 0.5])
        with pytest.raises(NormalizationError):
            solve_flow_1d([1.5, -0.5], [0.5, 0.5])
        with pytest.raises(NormalizationError):
            solve_flow_1d([np.nan, 0.5], [0.5, 0.5])
        with pytest.raises(NormalizationError):
            solve_flow_1d([0.5, 0.5], [0.5, np.nan])

    @settings(max_examples=150)
    @given(st.integers(2, 9), st.data())
    def test_satisfies_flow_equation(self, width, data):
        probs = data.draw(
            st.lists(st.floats(0.01, 1, allow_nan=False), min_size=width, max_size=width)
        )
        probs2 = data.draw(
            st.lists(st.floats(0.01, 1, allow_nan=False), min_size=width, max_size=width)
        )
        x = np.array(probs) / np.sum(probs)
        xp = np.array(probs2) / np.sum(probs2)
        delta = solve_flow_1d(x, xp)
        plan = LocalFlowPlan(np.zeros((0, width)), delta[None, :])
        recon = apply_flow(x[None, :], plan).values[0]
        assert np.allclose(recon, xp, atol=1e-12)


def edge_total(g):
    return float(g.down.sum() + g.up.sum() + g.right.sum() + g.left.sum())


class TestEdgeConversions:
    def test_flow_from_edge_nets_opposite_directions(self):
        g = EdgeFlow(np.array([[0.3, 0.0]]), np.array([[0.1, 0.0]]),
                     np.zeros((2, 1)), np.zeros((2, 1)))
        plan = flow_from_edge(g)
        assert np.allclose(plan.vert, [[0.2, 0.0]])
        assert l1_norm(plan) == pytest.approx(0.2)
        assert edge_total(g) == pytest.approx(0.4)

    def test_edge_from_flow_splits_by_sign(self):
        plan = LocalFlowPlan(np.array([[0.3, -0.2]]), np.array([[0.0], [-0.5]]))
        g = edge_from_flow(plan)
        assert np.allclose(g.down, [[0.3, 0.0]])
        assert np.allclose(g.up, [[0.0, 0.2]])
        assert np.allclose(g.left, [[0.0], [0.5]])
        assert edge_total(g) == pytest.approx(l1_norm(plan))

    @settings(max_examples=150)
    @given(flow_plans())
    def test_round_trip_is_exact(self, plan):
        back = flow_from_edge(edge_from_flow(plan))
        assert np.array_equal(back.vert, plan.vert)
        assert np.array_equal(back.horiz, plan.horiz)

    @settings(max_examples=150)
    @given(flow_plans(), st.data())
    def test_norm_never_exceeds_edge_total(self, plan, data):
        # Add a symmetric circulation: the netted plan must ignore it.
        extra_v = data.draw(st.floats(0, 1, allow_nan=False))
        g = edge_from_flow(plan)
        g2 = EdgeFlow(g.down + extra_v, g.up + extra_v, g.right, g.left)
        assert l1_norm(flow_from_edge(g2)) <= edge_total(g2) + 1e-12
        assert np.allclose(flow_from_edge(g2).vert, plan.vert, atol=1e-12)
