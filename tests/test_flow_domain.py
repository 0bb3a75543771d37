import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsmooth import (
    AttackConfig,
    LabeledDataset,
    NoiseSpec,
    RawGrid,
    apply_flow,
    certify,
    flow_from_edge,
    flow_pgd_attack,
    init_params,
    l1_norm,
    make_dataset,
    smoothed_predict,
    solve_flow_1d,
    wasserstein_grid_l1,
    wasserstein_lp,
)
from wsmooth.flow_domain import (MASS_TOL, as_channels, divergence, divergence_adjoint,
                                 divergence_matrix, edge_count)
from wsmooth.smoothing import FLOW, PIXEL
from wsmooth.transport_oracle import _grid_equations

from analytic import edge_from_flow
from conftest import flow_plans, grid_images, grid_shapes, image_flow_pairs


def zero_plan(shape):
    return np.zeros(edge_count((1,) + shape))


def one_image(x) -> np.ndarray:
    """``x`` through LabeledDataset's unit-mass check, as a one-image stack."""
    return LabeledDataset(np.asarray(x, dtype=float)[None], [0], 2).images[0]


class TestTypes:
    def test_unit_mass_rejects_negative(self):
        with pytest.raises(ValueError, match="^image 0 has a negative pixel$"):
            one_image(np.array([[1.5, -0.5]]))
        with pytest.raises(ValueError, match="^image 0 has a negative pixel$"):
            one_image(np.array([[[1.5, -0.5]]]))

    def test_unit_mass_rejects_wrong_mass(self):
        for bad in (np.array([[0.3, 0.3]]), np.array([[np.nan, 0.5]])):
            with pytest.raises(ValueError, match="^image 0 has total mass .*, not 1 within"):
                one_image(bad)

    def test_unit_mass_rejects_wrong_rank(self):
        for bad in (np.ones(4) / 4, np.ones((1, 1, 2, 2)) / 4, np.zeros((0, 3))):
            with pytest.raises(ValueError, match="images must stack nonempty 2-D or 3-D arrays"):
                one_image(bad)

    def test_as_channels_views_both_ranks(self):
        x = np.array([[0.25, 0.75]])
        assert as_channels(x).shape == (1, 1, 2)
        assert np.shares_memory(as_channels(x), x)
        assert as_channels(x[None]).shape == (1, 1, 2)
        with pytest.raises(ValueError, match="expected a 2-D or 3-D image, got shape"):
            as_channels(np.ones(4))

    def test_raw_grid_allows_negative_but_checks_mass(self):
        RawGrid(np.array([[1.5, -0.5]]))
        for bad in (np.array([[1.5, 0.5]]), np.array([[np.nan, 1.0]])):
            with pytest.raises(ValueError, match="^image 0 has total mass .*, not 1 within"):
                RawGrid(bad)

    def test_unit_mass_is_grand_total_over_channels(self):
        img = one_image(np.stack([np.full((2, 2), 0.1), np.full((2, 2), 0.15)]))
        assert np.allclose(img.sum(axis=(1, 2)), [0.4, 0.6])
        with pytest.raises(ValueError, match="^image 0 has total mass 2.4"):
            one_image(np.stack([np.full((2, 2), 0.3), np.full((2, 2), 0.3)]))


def _bad_unit_mass_images():
    negative = np.array([[0.75, 0.5], [0.0, -0.25]])
    off = np.full((2, 2), 0.25)
    off[0, 0] += 2 * MASS_TOL
    nan = np.full((2, 2), 0.25)
    nan[1, 1] = np.nan
    return {"negative": (negative, "has a negative pixel"),
            "off_total": (off, "has total mass 1.000000002, not 1 within 1e-09"),
            "nan": (nan, "has total mass nan, not 1 within 1e-09")}


@pytest.mark.parametrize("entry", ["LabeledDataset", "solve_flow_1d", "wasserstein_grid_l1",
                                   "wasserstein_lp"])
@pytest.mark.parametrize("fault", ["negative", "off_total", "nan"])
def test_every_entry_refuses_a_bad_image_by_the_rule_it_breaks(entry, fault):
    bad, rule = _bad_unit_mass_images()[fault]
    good = np.full((2, 2), 0.25)
    calls = {
        "LabeledDataset": lambda: LabeledDataset(np.stack([good, bad]), [0, 1], 2),
        "solve_flow_1d": lambda: solve_flow_1d(good.ravel(), bad.ravel()),
        "wasserstein_grid_l1": lambda: wasserstein_grid_l1(good, bad),
        "wasserstein_lp": lambda: wasserstein_lp(good, bad),
    }
    # Each entry checks a stack or a pair and names the bad one, image 1.
    with pytest.raises(ValueError, match=f"^image 1 {re.escape(rule)}$"):
        calls[entry]()


class TestApplyFlow:
    def test_zero_plan_is_identity(self):
        x = np.full((3, 3), 1 / 9)
        out = apply_flow(x, zero_plan((3, 3)))
        assert np.array_equal(out.values, x)

    def test_hand_example_positive_flows(self):
        # 0.3 flows down out of the corner and 0.2 flows right out of it;
        # the packed order is vert[0, :] then horiz[:, 0].
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        plan = np.array([0.3, 0.0, 0.2, 0.0])
        out = apply_flow(x, plan)
        assert np.allclose(out.values, [[0.5, 0.2], [0.3, 0.0]], atol=1e-12)

    def test_hand_example_negative_flow_goes_negative(self):
        # Negative vert flow pulls 0.4 upward out of a pixel holding 0.1.
        x = np.array([[0.2, 0.3], [0.1, 0.4]])
        plan = np.array([-0.4, 0.0, 0.0, 0.0])
        out = apply_flow(x, plan)
        assert np.allclose(out.values, [[0.6, 0.3], [-0.3, 0.4]], atol=1e-12)
        assert out.values.min() < 0

    def test_shape_mismatch(self):
        x = np.full((2, 2), 0.25)
        with pytest.raises(ValueError, match=r"flow of shape \(7,\) applied to image of shape"):
            apply_flow(x, zero_plan((3, 2)))

    def test_refuses_edges_of_wrong_length_or_rank(self):
        x = np.full((2, 2), 0.25)
        apply_flow(x, np.zeros(4))
        for bad in (np.zeros(3), np.zeros(5), np.zeros((1, 4)), np.zeros((2, 4)), np.float64(0.0)):
            with pytest.raises(ValueError, match=r"image of shape \(2, 2\): expected \(4,\)$"):
                apply_flow(x, bad)

    @pytest.mark.parametrize("cshape", [(3, 4, 5), (2, 1, 6), (3, 1, 1)])
    def test_channels_keep_their_shape(self, cshape):
        rng = np.random.default_rng(sum(cshape))
        x = rng.random(cshape)
        x /= x.sum()
        f = 0.01 * rng.normal(size=edge_count(cshape))
        out = apply_flow(x, f).values
        assert out.shape == cshape
        assert np.array_equal(out, x + divergence(f, x.shape))

    @pytest.mark.parametrize("bad, words", [
        (np.ones(4) / 4, "expected a 2-D or 3-D image, got shape (4,)"),
        (np.ones((1, 1, 2, 2)) / 4, "expected a 2-D or 3-D image, got shape (1, 1, 2, 2)"),
        (np.zeros((0, 3)), "images must stack nonempty 2-D or 3-D arrays, got (1, 1, 0, 3)"),
        (np.zeros((2, 0, 3)), "images must stack nonempty 2-D or 3-D arrays, got (1, 2, 0, 3)"),
    ])
    def test_image_shape_is_the_package_rule(self, bad, words):
        for call in (lambda: RawGrid(bad), lambda: apply_flow(bad, np.zeros(0))):
            with pytest.raises(ValueError, match=f"^{re.escape(words)}$"):
                call()

    def test_single_pixel_takes_the_empty_flow(self):
        assert np.array_equal(apply_flow(np.ones((1, 1)), np.zeros(0)).values, [[1.0]])

    @settings(max_examples=200)
    @given(image_flow_pairs())
    def test_mass_conservation(self, pair):
        x, plan = pair
        out = apply_flow(x, plan)
        budget = 1e-12 * max(plan.size, 1)
        assert abs(out.values.sum() - x.sum()) <= budget

    @settings(max_examples=100)
    @given(image_flow_pairs(), st.data())
    def test_additivity(self, pair, data):
        x, d1 = pair
        d2 = data.draw(flow_plans(shape=x.shape))
        once = apply_flow(apply_flow(x, d1).values, d2).values
        combined = apply_flow(x, d1 + d2).values
        assert np.allclose(once, combined, atol=1e-12)

    @settings(max_examples=100)
    @given(image_flow_pairs())
    def test_inverse_plan_restores_image(self, pair):
        x, plan = pair
        back = apply_flow(apply_flow(x, plan).values, -plan).values
        assert np.allclose(back, x, atol=1e-12)


SHAPES = [(1, 1), (1, 7), (7, 1), (2, 2), (4, 5), (6, 3)]
SHAPE_IDS = [f"{n}x{m}" for n, m in SHAPES]


def packed_edges(cshape):
    """(tail, head) flat pixel indices of every packed edge, in packed order:
    channel by channel, the row-major vertical edges (i, j) -> (i+1, j),
    then the row-major horizontal edges (i, j) -> (i, j+1)."""
    c, n, m = cshape
    pairs = []
    for k in range(c):
        base = k * n * m
        pairs += [(base + i * m + j, base + (i + 1) * m + j)
                  for i in range(n - 1) for j in range(m)]
        pairs += [(base + i * m + j, base + i * m + j + 1)
                  for i in range(n) for j in range(m - 1)]
    return pairs


def loop_divergence(f, cshape):
    """D f edge by edge: each edge adds its flow to its head, takes it from its tail."""
    out = np.zeros(int(np.prod(cshape)))
    for k, (tail, head) in enumerate(packed_edges(cshape)):
        out[head] += f[k]
        out[tail] -= f[k]
    return out.reshape(cshape)


class TestDivergenceMatrix:
    @pytest.mark.parametrize("cshape", [(1, 1, 1), (1, 2, 2), (1, 1, 7), (2, 4, 1), (3, 4, 5)])
    def test_columns_follow_the_packed_layout(self, cshape):
        d = divergence_matrix(cshape)
        pairs = packed_edges(cshape)
        assert d.shape == (int(np.prod(cshape)), edge_count(cshape)) == (d.shape[0], len(pairs))
        dense = d.toarray()
        for k, (tail, head) in enumerate(pairs):
            expected = np.zeros(d.shape[0])
            expected[head], expected[tail] = 1.0, -1.0
            assert np.array_equal(dense[:, k], expected)

    def test_layout_is_vert_then_horiz_per_channel(self):
        # 2 x 2: vertical edges (0,0)->(1,0), (0,1)->(1,1), then horizontal
        # (0,0)->(0,1), (1,0)->(1,1).
        delta = np.array([0.1, -0.2, 0.3, -0.4])
        out = divergence(delta, (1, 2, 2))
        assert np.allclose(out, [[[-0.4, 0.5], [0.5, -0.6]]], atol=1e-15)

    @pytest.mark.parametrize("cshape", [(1, 2, 2), (3, 4, 5), (2, 1, 6), (2, 6, 1)])
    def test_one_diagonal_block_per_channel(self, rng, cshape):
        # Each channel's block of the packed vector is that channel's own
        # packed vector, and moves only that channel's mass.
        c, n, m = cshape
        delta = rng.normal(size=edge_count(cshape))
        g = rng.normal(size=cshape)
        rows = delta.reshape(c, -1)
        out, back = divergence(delta, cshape), divergence_adjoint(g).reshape(c, -1)
        for k in range(c):
            assert np.array_equal(out[k], divergence(rows[k], (1, n, m))[0])
            assert np.array_equal(back[k], divergence_adjoint(g[k:k + 1]))

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_grid_incidence_is_minus_d_then_d(self, shape):
        # The grid LP's rows are [-D, D] without each channel's last pixel.
        for cshape in ((1,) + shape, (3,) + shape):
            d = divergence_matrix(cshape).toarray()
            a_eq, keep = _grid_equations(cshape)
            pixels = shape[0] * shape[1]
            assert np.array_equal(np.flatnonzero(~keep), np.arange(1, cshape[0] + 1) * pixels - 1)
            assert np.array_equal(a_eq.toarray(), np.hstack([-d, d])[keep])


class TestDivergence:
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_matches_sparse_incidence(self, rng, shape):
        # The oracle's equality rows give each constrained pixel's net
        # outflow, so with only the forward arcs carrying the signed flows
        # their negation is the net inflow D f there, which an explicit loop
        # over edges also gives.
        for cshape in ((1,) + shape, (3,) + shape):
            for _ in range(5):
                f = rng.normal(size=edge_count(cshape))
                assert np.abs(divergence(f, cshape) - loop_divergence(f, cshape)).max() <= 1e-15
        for _ in range(5):
            f = rng.normal(size=edge_count((1,) + shape))
            arcs = np.concatenate([f, np.zeros(f.size)])
            a_eq, keep = _grid_equations((1,) + shape)
            inflow = divergence(f, (1,) + shape).ravel()[keep]
            assert np.abs(inflow + a_eq @ arcs).max(initial=0.0) <= 1e-15

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_adjoint_identity(self, rng, shape):
        for cshape in ((1,) + shape, (3,) + shape):
            for _ in range(5):
                f = rng.normal(size=edge_count(cshape))
                g = rng.normal(size=cshape)
                back = divergence_adjoint(g)
                assert back.shape == f.shape
                lhs = float(np.sum(divergence(f, cshape) * g))
                assert lhs == pytest.approx(float(np.sum(f * back)), abs=1e-12)

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_batched_call_equals_loop_over_slices(self, rng, shape):
        for cshape in ((1,) + shape, (3,) + shape):
            f = rng.normal(size=(3, 2, edge_count(cshape)))
            out = divergence(f, cshape)
            g = rng.normal(size=(3, 2) + cshape)
            back = divergence_adjoint(g)
            assert out.shape == (3, 2) + cshape
            assert back.shape == f.shape
            for idx in np.ndindex(3, 2):
                assert np.array_equal(out[idx], divergence(f[idx], cshape))
                assert np.array_equal(back[idx], divergence_adjoint(g[idx]))

    def test_refuses_flows_or_grids_of_the_wrong_shape(self):
        cshape = (1, 3, 3)
        for edges in (np.zeros(5), np.zeros((2, 13)), np.zeros(edge_count((2, 3, 3))),
                      np.float64(0.0)):
            with pytest.raises(ValueError, match="packed edges$"):
                divergence(np.asarray(edges), cshape)
        for g in (np.zeros((3, 3)), np.zeros(9), np.float64(0.0)):
            with pytest.raises(ValueError, match="expected \\(..., C, n, m\\) pixel values"):
                divergence_adjoint(np.asarray(g))


class TestNorm:
    def test_zero_plan(self):
        assert l1_norm(zero_plan((3, 2))) == 0.0

    def test_hand_value(self):
        plan = np.array([0.3, -0.1, 0.25, 0.0])
        assert np.isclose(l1_norm(plan), 0.65)

    @settings(max_examples=100)
    @given(flow_plans(), st.floats(-3, 3, allow_nan=False))
    def test_absolute_homogeneity(self, plan, c):
        scaled = c * plan
        assert np.isclose(l1_norm(scaled), abs(c) * l1_norm(plan), atol=1e-12)

    @settings(max_examples=100)
    @given(grid_shapes(), st.data())
    def test_triangle_inequality(self, shape, data):
        d1 = data.draw(flow_plans(shape=shape))
        d2 = data.draw(flow_plans(shape=shape))
        total = d1 + d2
        assert l1_norm(total) <= l1_norm(d1) + l1_norm(d2) + 1e-12


class TestSolveFlow1d:
    def test_identical_inputs_zero_flow(self):
        np.testing.assert_array_equal(solve_flow_1d([0.5, 0.5], [0.5, 0.5]), [0.0])

    def test_full_shift(self):
        np.testing.assert_allclose(solve_flow_1d([1, 0, 0], [0, 0, 1]), [1.0, 1.0])

    def test_half_shift(self):
        np.testing.assert_allclose(solve_flow_1d([1, 0], [0.5, 0.5]), [0.5])

    def test_refuses_inputs_that_are_not_1_d_or_differ_in_length(self):
        with pytest.raises(ValueError, match="^inputs must be 1-D distributions$"):
            solve_flow_1d([[0.5, 0.5]], [0.5, 0.5])
        with pytest.raises(ValueError, match=r"^length mismatch \(2,\) vs \(3,\)$"):
            solve_flow_1d([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_requires_matching_mass(self):
        with pytest.raises(ValueError, match="^image 0 has total mass 0.7"):
            solve_flow_1d([0.5, 0.2], [0.5, 0.5])
        with pytest.raises(ValueError, match="^image 0 has a negative pixel$"):
            solve_flow_1d([1.5, -0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="^image 0 has total mass nan"):
            solve_flow_1d([np.nan, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="^image 1 has total mass nan"):
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
        # On a 1 x width grid the packed layout is the horizontal edges alone.
        recon = apply_flow(x[None, :], delta).values[0]
        assert np.allclose(recon, xp, atol=1e-12)


QUARTER = np.full((2, 2), 0.25)

# Each image entry point, and how its refusal starts: a stack or a pair names
# the bad image, which is image 1 here; a single image is image 0.
PIXEL_RULE_ENTRIES = {
    "LabeledDataset": (lambda bad: LabeledDataset(np.stack([QUARTER, bad]), [0, 1], 2),
                       "^image 1 has "),
    "make_dataset": (lambda bad: make_dataset(np.stack([QUARTER, bad]), [0, 1], 2),
                     "^image 1 has "),
    "wasserstein_grid_l1": (lambda bad: wasserstein_grid_l1(QUARTER, bad), "^image 1 has "),
    "wasserstein_lp": (lambda bad: wasserstein_lp(QUARTER, bad), "^image 1 has "),
    "solve_flow_1d": (lambda bad: solve_flow_1d(QUARTER.ravel(), bad.ravel()), "^image 1 has "),
    "apply_flow": (lambda bad: apply_flow(bad, np.zeros(4)), "^image 0 has "),
    "certify": (lambda bad: certify(init_params((2, 2), 2, rng=0), bad, NoiseSpec(PIXEL, 0.1),
                                    n0=10, n=20), "^image 0 has "),
    "smoothed_predict": (lambda bad: smoothed_predict(init_params((2, 2), 2, rng=0), bad,
                                                      NoiseSpec(PIXEL, 0.1), n=10),
                         "^image 0 has "),
    "flow_pgd_attack": (lambda bad: flow_pgd_attack(init_params((2, 2), 2, rng=0), bad, 0,
                                                    NoiseSpec(FLOW, 0.1),
                                                    AttackConfig(iterations=1)),
                        "^image 0 has "),
}


class TestOnePixelRule:
    @pytest.mark.parametrize("bad", [np.array([[1e308, 1e308], [0.0, 0.0]]),
                                     np.array([[np.inf, -np.inf], [0.5, 0.5]])],
                             ids=["overflow", "inf_pair"])
    @pytest.mark.parametrize("entry", list(PIXEL_RULE_ENTRIES))
    def test_refuses_an_image_whose_total_is_not_finite_without_a_warning(self, entry, bad):
        # Each sum used to warn "overflow (or invalid value) encountered in
        # reduce" before, or under an error filter instead of, its refusal.
        call, needle = PIXEL_RULE_ENTRIES[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=needle):
                call(bad)


class TestEdgeConversions:
    def test_flow_from_edge_nets_opposite_directions(self):
        # 2 x 2 grid: row 0 ships down / right, row 1 up / left.
        g = np.array([[0.3, 0.0, 0.0, 0.0], [0.1, 0.0, 0.0, 0.0]])
        plan = flow_from_edge(g)
        assert np.allclose(plan, [0.2, 0.0, 0.0, 0.0])
        assert l1_norm(plan) == pytest.approx(0.2)
        assert g.sum() == pytest.approx(0.4)

    def test_flow_from_edge_refuses_other_shapes(self):
        for bad in (np.zeros(4), np.zeros((3, 4)), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match=r"directed edge flow must have shape \(2, E\)"):
                flow_from_edge(bad)

    def test_edge_from_flow_splits_by_sign(self):
        plan = np.array([0.3, -0.2, 0.0, -0.5])
        g = edge_from_flow(plan)
        assert np.allclose(g, [[0.3, 0.0, 0.0, 0.0], [0.0, 0.2, 0.0, 0.5]])
        assert g.sum() == pytest.approx(l1_norm(plan))

    @settings(max_examples=150)
    @given(flow_plans())
    def test_round_trip_is_exact(self, plan):
        assert np.array_equal(flow_from_edge(edge_from_flow(plan)), plan)

    @settings(max_examples=150)
    @given(flow_plans(), st.data())
    def test_norm_never_exceeds_edge_total(self, plan, data):
        # Add a symmetric circulation: the netted plan must ignore it.
        extra = data.draw(st.floats(0, 1, allow_nan=False))
        g2 = edge_from_flow(plan) + extra
        assert l1_norm(flow_from_edge(g2)) <= g2.sum() + 1e-12
        assert np.allclose(flow_from_edge(g2), plan, atol=1e-12)
