import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wsmooth import (
    ABSTAIN,
    AttackConfig,
    GroundMetric,
    NoiseSpec,
    certify,
    clopper_pearson_lower,
    flow_pgd_attack,
    init_params,
    median_certified_radius,
    prediction_from_counts,
    radius_from_plower,
    smoothed_predict,
)
from wsmooth import smoothing
from wsmooth.classifier import _forward
from wsmooth.flow_domain import divergence, edge_count
from wsmooth.smoothing import (DRAW_VALUES, FLOW, PIXEL, VOTE_BATCH, _edge_noise,
                               _fold_first_layer, _sample_increments, _vote_counts)

from analytic import RegionThresholdClassifier, laplace_sum_sf, laplace_sum_sf_quad

# p_lower with log-odds exactly 1, so certified radii reduce to the bare
# coefficients times sigma.
P_UNIT_ODDS = math.e / (1.0 + math.e)

# TestDrawBlocks' image and the rows of one draw block at its width; the
# ragged cases need 1 < BLOCK_ROWS < VOTE_BATCH.
BLOCK_SHAPE = (8, 8)
BLOCK_ROWS = DRAW_VALUES // edge_count((1,) + BLOCK_SHAPE)


def laplace_from_words(words, b):
    """The sampler's closed form: U = 1 - (w >> 12) 2^-52 in (0, 1], value
    -b log U, negative exactly when bit 0 of the word is set; a zero value
    (U = 1) is -0.0."""
    u = 1.0 - (words >> 12).astype(np.float64) * 2.0 ** -52
    magnitude = -b * np.log(u)
    values = np.where(words & 1 == 1, -magnitude, magnitude)
    values[values == 0.0] = -0.0
    return values


def block_ends(n, rows):
    """Draw counts at which a block of ``rows`` draws ends, for n draws split
    into VOTE_BATCH-sized batches."""
    return {batch + min(end, VOTE_BATCH, n - batch) for batch in range(0, n, VOTE_BATCH)
            for end in range(rows, VOTE_BATCH + rows, rows)}


def completions(counts, r):
    """Every tally that ``r`` more votes can turn ``counts`` into."""
    for extra in itertools.product(range(r + 1), repeat=len(counts)):
        if sum(extra) == r:
            yield tuple(c + e for c, e in zip(counts, extra))


def fixed_words(words):
    """A stand-in generator whose uniform uint64 words are ``words``, in order."""
    def integers(low, high, shape, dtype):
        assert (low, high, dtype) == (0, 1 << 64, np.uint64)
        return np.array(words, dtype=np.uint64).reshape(shape)
    return SimpleNamespace(integers=integers)


class TestNoiseSpec:
    def test_scale_is_sigma_over_sqrt2(self):
        spec = NoiseSpec(FLOW, 0.1)
        assert spec.scale == pytest.approx(0.1 / math.sqrt(2.0), abs=1e-15)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", 0.1)

    def test_rejects_negative_or_nan_sigma(self):
        with pytest.raises(ValueError):
            NoiseSpec(FLOW, -0.1)
        with pytest.raises(ValueError):
            NoiseSpec(FLOW, float("nan"))


class TestSampling:
    def test_flow_noise_shapes(self, rng):
        for scheme in (FLOW, PIXEL):
            inc = _sample_increments(NoiseSpec(scheme, 0.1), (2, 4, 5), 3, rng)
            assert inc.shape == (3, 2, 4, 5)

    def test_zero_sigma_consumes_no_randomness(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for scheme in (FLOW, PIXEL):
            assert not _sample_increments(NoiseSpec(scheme, 0.0), (2, 3, 3), 4, rng).any()
        assert rng.bit_generator.state == before

    def test_multichannel_gives_plan_per_channel(self):
        # Each channel gets its own flow draw, which moves mass within that
        # channel only: every channel's increment sums to zero.
        inc = _sample_increments(NoiseSpec(FLOW, 0.3), (3, 4, 5), 200, np.random.default_rng(5))
        assert np.abs(inc.sum(axis=(2, 3))).max() <= 1e-12
        assert not np.array_equal(inc[:, 0], inc[:, 1])

    def test_empirical_standard_deviation(self):
        # On a 1x2 grid the increment is (-h, +h) for the single edge draw h,
        # which must be Laplace with standard deviation sigma.
        sigma = 0.2
        inc = _sample_increments(NoiseSpec(FLOW, sigma), (1, 1, 2), 20000,
                                 np.random.default_rng(77))
        h = inc[:, 0, 0, 1]
        assert np.array_equal(inc[:, 0, 0, 0], -h)
        assert stats.kstest(h, "laplace", args=(0.0, sigma / math.sqrt(2.0))).pvalue > 1e-3
        # 20000 samples: the sd of the sd estimate is under 1%.
        assert h.std() == pytest.approx(sigma, rel=0.05)

    @pytest.mark.parametrize("scheme", [FLOW, PIXEL])
    def test_edge_draws_are_laplace(self, scheme):
        # 4x5 grid: 31 edges (flow) or 20 pixels (pixel) per draw, so 1000
        # draws give at least 20000 values, all iid Laplace(sigma / sqrt 2).
        sigma = 0.3
        noise = _edge_noise(NoiseSpec(scheme, sigma), (1, 4, 5), 1000, np.random.default_rng(12))
        assert noise.shape == (1000, 31 if scheme == FLOW else 20)
        draws = noise.ravel()
        assert stats.kstest(draws, "laplace", args=(0.0, sigma / math.sqrt(2.0))).pvalue > 1e-3
        assert abs(draws.mean()) <= 0.05 * sigma
        assert draws.std() == pytest.approx(sigma, rel=0.05)

    @pytest.mark.parametrize("scheme, cshape, size, seed",
                             [(FLOW, (1, 28, 28), 3, 5), (PIXEL, (2, 4, 5), 7, 6)])
    def test_each_value_is_the_closed_form_of_one_raw_word(self, scheme, cshape, size, seed):
        spec = NoiseSpec(scheme, 0.3)
        rng = np.random.default_rng(seed)
        noise = _edge_noise(spec, cshape, size, rng)
        reference = np.random.default_rng(seed)
        words = reference.bit_generator.random_raw(noise.shape)
        expected = laplace_from_words(words, spec.scale)
        assert np.array_equal(noise.view(np.uint64), expected.view(np.uint64))
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_draws_do_not_depend_on_how_rows_are_split(self):
        spec, cshape = NoiseSpec(FLOW, 0.2), (1, 6, 7)
        whole = _edge_noise(spec, cshape, 10, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        parts = [_edge_noise(spec, cshape, k, rng) for k in (1, 2, 7)]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_extreme_words_give_zero_and_the_tail_cut(self):
        # Bits 12-63 all clear: U = 1 and the value is zero.  All set: U =
        # 2^-52, the largest magnitude, 52 b ln 2.  Bit 0 alone sets the sign.
        spec = NoiseSpec(PIXEL, 0.3)
        top = 52 * math.log(2.0) * spec.scale
        noise = _edge_noise(spec, (1, 1, 4), 1,
                            fixed_words([0, 1, 2 ** 64 - 2, 2 ** 64 - 1]))[0]
        assert noise[0] == 0.0 and noise[1] == 0.0
        assert np.signbit(noise[:2]).all()
        assert np.array_equal(noise.view(np.uint64), laplace_from_words(
            np.array([0, 1, 2 ** 64 - 2, 2 ** 64 - 1], dtype=np.uint64), spec.scale).view(np.uint64))
        assert noise[2] == pytest.approx(top, rel=1e-15)
        assert noise[3] == pytest.approx(-top, rel=1e-15)

    def test_a_32_bit_bit_generator_gives_laplace_draws(self):
        # MT19937 emits 32 random bits per raw output; each value still gets
        # 64 uniform bits, so the draws have the full spread.
        sigma = 0.4
        rng = np.random.Generator(np.random.MT19937(0))
        draws = _edge_noise(NoiseSpec(PIXEL, sigma), (1, 10, 10), 400, rng).ravel()
        assert draws.std() == pytest.approx(sigma, rel=0.05)
        assert stats.kstest(draws, "laplace", args=(0.0, sigma / math.sqrt(2))).pvalue > 1e-3

    def test_sign_is_independent_of_magnitude(self):
        # Fixed before running: 300000 values, sign against the quartile of
        # |e| under Exp(b) (b ln(4/3), b ln 2, b ln 4), chi-square p > 1e-3.
        # A sign taken from a bit that also sets U fails it: bit 63 is set
        # exactly when U <= 1/2, i.e. when |e| >= b ln 2.
        spec = NoiseSpec(PIXEL, 0.3)
        b = spec.scale
        draws = _edge_noise(spec, (1, 100, 100), 30, np.random.default_rng(14)).ravel()
        quartile = np.searchsorted(b * np.log([4.0 / 3.0, 2.0, 4.0]), np.abs(draws))
        table = np.zeros((2, 4))
        np.add.at(table, (np.signbit(draws).astype(int), quartile), 1)
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 1e-3
        assert np.abs(draws).max() <= 52 * math.log(2.0) * b

    def test_increments_are_divergence_of_edge_draws(self):
        spec, cshape = NoiseSpec(FLOW, 0.2), (2, 3, 4)
        noise = _edge_noise(spec, cshape, 5, np.random.default_rng(3))
        inc = _sample_increments(spec, cshape, 5, np.random.default_rng(3))
        assert np.array_equal(inc, divergence(noise, cshape))


class TestFold:
    @pytest.mark.parametrize("scheme", [FLOW, PIXEL])
    @pytest.mark.parametrize("hidden", [None, 16])
    @pytest.mark.parametrize("cshape", [(1, 1, 7), (1, 7, 1), (3, 1, 7), (3, 7, 1), (3, 4, 5)])
    def test_folded_logits_equal_noisy_forward(self, scheme, hidden, cshape):
        # (x + D e) W0 + b0 = e (D^T W0) + (x W0 + b0), through every layer.
        rng = np.random.default_rng(sum(cshape) + (hidden or 0))
        params = init_params(cshape, 3, hidden=hidden, rng=rng)
        x = rng.dirichlet(np.ones(int(np.prod(cshape)))).reshape(cshape)
        spec = NoiseSpec(scheme, 0.3)
        noise = _edge_noise(spec, cshape, 200, rng)
        if scheme == PIXEL:
            inc = noise.reshape((200,) + cshape)
        else:
            inc = divergence(noise, cshape)
        folded = _forward(_fold_first_layer(params, x, spec), noise)[0]
        assert np.abs(folded - _forward(params, x[None] + inc)[0]).max() <= 1e-12

    def test_rejects_image_of_wrong_size(self):
        params = init_params((3, 3), 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="9"):
            smoothed_predict(params, np.full((2, 2), 0.25), NoiseSpec(FLOW, 0.1), n=10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_image(self, bad):
        params = init_params((2, 2), 2, rng=np.random.default_rng(0))
        x = np.array([[0.5, 0.5], [0.0, bad]])
        spec = NoiseSpec(FLOW, 0.1)
        calls = (lambda: smoothed_predict(params, x, spec, n=10),
                 lambda: certify(params, x, spec, n0=10, n=20),
                 lambda: flow_pgd_attack(params, x, 1, spec, AttackConfig(iterations=1)))
        for call in calls:
            with pytest.raises(ValueError, match="image pixels must be finite"):
                call()


class TestDecisionRule:
    def test_clear_majority_predicts(self):
        pred = prediction_from_counts(np.array([900, 100]), alpha=0.05)
        assert pred.predicted == 1
        assert pred.top_counts == (900, 100)
        assert pred.p_value < 1e-100

    def test_weak_majority_abstains(self):
        # binomtest(520, 1000) two-sided p ~ 0.22, nowhere near 0.05.
        pred = prediction_from_counts(np.array([520, 480]), alpha=0.05)
        assert pred.predicted == ABSTAIN
        assert pred.p_value == pytest.approx(
            stats.binomtest(520, 1000, 0.5).pvalue, abs=1e-12
        )

    def test_exact_tie_abstains(self):
        assert prediction_from_counts(np.array([500, 500]), 0.05).predicted == ABSTAIN

    def test_closed_form_matches_binomtest(self):
        # The rule sees a tally only as (top, runner-up), so (k, n - k) with
        # k >= n - k covers every two-class tally up to n = 300.  Above that,
        # a seeded sample up to n = 10^4: a tie, a count near the middle and
        # a count anywhere in [0, n] for each sampled n.
        pairs = [(k, n) for n in range(1, 301) for k in range((n + 1) // 2, n + 1)]
        sample = np.random.default_rng(2019)
        for n in sample.integers(301, 10**4 + 1, size=100):
            n = int(n)
            pairs += [(n // 2, 2 * (n // 2)), (int(sample.binomial(n, sample.uniform(0.4, 0.6))), n),
                      (int(sample.integers(0, n + 1)), n)]
        for k, n in pairs:
            reference = stats.binomtest(k, n, 0.5).pvalue
            for alpha in (0.01, 0.05):
                pred = prediction_from_counts(np.array([k, n - k]), alpha)
                assert (pred.predicted != ABSTAIN) == (reference <= alpha), (k, n, alpha)
            assert abs(pred.p_value - reference) <= 1e-11 * reference, (k, n)

    def test_runner_up_is_second_best(self):
        pred = prediction_from_counts(np.array([10, 700, 290]), alpha=0.05)
        assert pred.predicted == 2
        assert pred.top_counts == (700, 290)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            prediction_from_counts(np.array([5]), 0.05)
        with pytest.raises(ValueError):
            prediction_from_counts(np.array([0, 0]), 0.05)
        with pytest.raises(ValueError):
            prediction_from_counts(np.array([5, 3]), 0.0)


class TestSmoothedPredict:
    def test_deterministic_and_worker_invariant(self, rng):
        params = init_params((3, 3), 2, rng=rng)
        x = np.full((3, 3), 1 / 9)
        spec = NoiseSpec(FLOW, 0.1)
        a = smoothed_predict(params, x, spec, n=2500, rng=np.random.default_rng(5))
        b = smoothed_predict(params, x, spec, n=2500, rng=np.random.default_rng(5))
        c = smoothed_predict(params, x, spec, n=2500, rng=np.random.default_rng(5), workers=3)
        # The same image with an explicit channel axis is the same input.
        d = smoothed_predict(params, x[None], spec, n=2500, rng=np.random.default_rng(5))
        assert a == b == c == d

    def test_obvious_classifier_never_abstains(self):
        clf = RegionThresholdClassifier((3, 3), "rows", 0, threshold=0.05).params()
        x = np.zeros((3, 3))
        x[0, 0] = 1.0
        pred = smoothed_predict(clf, x, NoiseSpec(FLOW, 0.02), n=2000,
                                rng=np.random.default_rng(1))
        assert pred.predicted == 1

    @pytest.mark.parametrize("orientation", ["rows", "cols"])
    def test_vote_fraction_matches_exact_probability(self, orientation):
        # "rows" sees only vertical flow noise, "cols" only horizontal.
        region = RegionThresholdClassifier((3, 3), orientation, 1, threshold=0.55)
        rng = np.random.default_rng(31)
        x = rng.dirichlet(np.ones(9)).reshape(3, 3)
        sigma = 0.15
        counts = sum(_vote_counts(region.params(), x, NoiseSpec(FLOW, sigma), 20000,
                                  np.random.default_rng(8), workers=1))
        p_exact = region.exact_positive_probability(x, sigma)
        votes_for_positive = counts[region.positive_index]
        se = math.sqrt(p_exact * (1 - p_exact) / 20000)
        assert votes_for_positive / 20000 == pytest.approx(p_exact, abs=5 * se)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_early_stop_is_worker_invariant(self, seed):
        # Tallies are scanned in draw order whatever the worker count, so a
        # stop inside the second or third batch lands on the same draw.
        params = init_params(BLOCK_SHAPE, 3, hidden=8, rng=np.random.default_rng(seed))
        x = np.random.default_rng(3).dirichlet(np.ones(64)).reshape(BLOCK_SHAPE)
        spec = NoiseSpec(FLOW, 0.3)
        pred = [smoothed_predict(params, x, spec, n=2500, rng=np.random.default_rng(4), workers=w)
                for w in (1, 2, 3)]
        assert pred[0] == pred[1] == pred[2]
        assert VOTE_BATCH < pred[0].num_samples < 2500


class TestStopRule:
    """smoothed_predict stops once no outcome of the draws left can change
    the decision of the test on all n draws."""

    @pytest.mark.parametrize("alpha", [0.001, 0.05, 0.5])
    @pytest.mark.parametrize("classes", [2, 3])
    def test_stops_exactly_when_the_decision_is_settled(self, classes, alpha):
        decision = {}

        def predicted(tally):
            if tally not in decision:
                decision[tally] = prediction_from_counts(np.array(tally), alpha).predicted
            return decision[tally]

        stops = 0
        for n in range(1, 17):
            for drawn in range(1, n + 1):
                for tally in completions((0,) * classes, drawn):
                    outcomes = {predicted(final) for final in completions(tally, n - drawn)}
                    stop = smoothing._decided(np.array(tally), n - drawn, alpha)
                    # Sound: a stop never changes the decision.  Tight: the
                    # rule waits only while some outcome still could.
                    assert stop == (outcomes == {predicted(tally)}), (tally, n, alpha)
                    stops += stop and drawn < n
        assert stops > 0


class TestDrawBlocks:
    @pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 1001, 2125])
    def test_ragged_blocks_count_every_draw(self, n):
        assert 1 < BLOCK_ROWS < VOTE_BATCH
        params = init_params(BLOCK_SHAPE, 3, hidden=8, rng=np.random.default_rng(n))
        x = np.full(BLOCK_SHAPE, 1 / 64)
        spec = NoiseSpec(FLOW, 0.3)
        counts = sum(_vote_counts(params, x, spec, n, np.random.default_rng(9), workers=1))
        assert counts.sum() == n
        assert np.array_equal(counts, sum(_vote_counts(params, x, spec, n,
                                                       np.random.default_rng(9), workers=3)))
        pred = [smoothed_predict(params, x, spec, n=n, rng=np.random.default_rng(10), workers=w)
                for w in (1, 3)]
        assert pred[0] == pred[1] and pred[0].num_samples in block_ends(n, BLOCK_ROWS)
        full = sum(_vote_counts(params, x, spec, n, np.random.default_rng(10), workers=1))
        assert pred[0].predicted == prediction_from_counts(full, 0.05).predicted
        cert = [certify(params, x, spec, n0=n, n=n, rng=np.random.default_rng(11), workers=w)
                for w in (1, 3)]
        assert cert[0] == cert[1]

    @pytest.mark.parametrize("rows", [1, 7])
    def test_counts_do_not_depend_on_the_block_size(self, monkeypatch, rows):
        params = init_params(BLOCK_SHAPE, 3, hidden=8, rng=np.random.default_rng(2))
        x = np.random.default_rng(3).dirichlet(np.ones(64)).reshape(BLOCK_SHAPE)
        spec = NoiseSpec(FLOW, 0.3)
        default = sum(_vote_counts(params, x, spec, 2125, np.random.default_rng(9), workers=1))
        monkeypatch.setattr(smoothing, "DRAW_VALUES", rows * edge_count((1,) + BLOCK_SHAPE))
        counts = sum(_vote_counts(params, x, spec, 2125, np.random.default_rng(9), workers=1))
        assert np.array_equal(counts, default)
        assert np.count_nonzero(default) > 1


class TestSharpInstance:
    """Soundness on an instance where the certificate can be checked exactly.

    RegionThresholdClassifier((1, m), "cols", j, t) sees flow noise through
    one coordinate, edge j, so its smoothed score at margin = aggregate - t
    is exactly p = 1 - exp(-margin / b) / 2.  Moving margin of mass across
    edge j puts the score at 1/2, so no sound flow-L1 radius exceeds the
    margin.
    """

    x = np.array([[0.3, 0.3, 0.2, 0.2]])

    def region(self, margin):
        return RegionThresholdClassifier((1, 4), "cols", 1, threshold=0.6 - margin)

    @pytest.mark.parametrize("sigma", [0.05, 0.2])
    @pytest.mark.parametrize("ratio", [0.05, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    def test_exact_radius_within_margin(self, sigma, ratio):
        b = sigma / math.sqrt(2.0)
        margin = ratio * b
        p = 1.0 - 0.5 * math.exp(-margin / b)
        assert self.region(margin).exact_positive_probability(self.x, sigma) == pytest.approx(
            p, rel=1e-12)
        radius = radius_from_plower(p, sigma, FLOW, GroundMetric.L1)
        assert radius <= margin * (1.0 + 1e-9)

    def test_monte_carlo_radius_within_margin(self):
        # Fixed before measuring: 40 seeds, n0 = 100, n = 1000, alpha = 0.05
        # and margin = 1.5 b.  The Clopper-Pearson bound exceeds p in at most
        # an alpha share of runs, so more than binom.ppf(1 - 1e-3, 40, alpha)
        # = 7 over-claims fails a sound pipeline with probability < 1e-3.
        sigma, alpha, seeds = 0.1, 0.05, 40
        margin = 1.5 * sigma / math.sqrt(2.0)
        params = self.region(margin).params()
        over = 0
        for seed in range(seeds):
            cert = certify(params, self.x, NoiseSpec(FLOW, sigma), n0=100, n=1000, alpha=alpha,
                           rng=np.random.default_rng(seed))
            assert cert.predicted == 1
            over += radius_from_plower(cert.p_lower, sigma, FLOW, GroundMetric.L1) > margin
        assert over <= stats.binom.ppf(1.0 - 1e-3, seeds, alpha)


class TestLaplaceSumClosedForm:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("u", [-3.0, -0.5, 0.0, 0.7, 2.5])
    def test_matches_quadrature(self, k, u):
        assert laplace_sum_sf(u, k) == pytest.approx(laplace_sum_sf_quad(u, k), abs=1e-10)

    def test_k1_is_plain_laplace(self):
        for u in (-1.0, 0.0, 0.3, 4.0):
            assert laplace_sum_sf(u, 1) == pytest.approx(stats.laplace.sf(u), abs=1e-14)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(99)
        draws = rng.laplace(size=(400000, 3)).sum(axis=1)
        for u in (0.5, 1.5):
            p = laplace_sum_sf(u, 3)
            se = math.sqrt(p * (1 - p) / len(draws))
            assert (draws > u).mean() == pytest.approx(p, abs=5 * se)


class TestClopperPearson:
    def test_boundary_cases(self):
        assert clopper_pearson_lower(0, 50, 0.05) == 0.0
        assert clopper_pearson_lower(50, 50, 0.05) == pytest.approx(0.05 ** (1 / 50), abs=1e-12)

    def test_is_exact_binomial_inversion(self):
        # The bound p solves P(X >= k | p) = alpha.
        for k, n, alpha in [(800, 1000, 0.05), (37, 60, 0.01), (5, 10, 0.2)]:
            p = clopper_pearson_lower(k, n, alpha)
            assert stats.binom.sf(k - 1, n, p) == pytest.approx(alpha, abs=1e-9)

    def test_monotone_in_k(self):
        bounds = [clopper_pearson_lower(k, 100, 0.05) for k in range(0, 101, 5)]
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            clopper_pearson_lower(-1, 10, 0.05)
        with pytest.raises(ValueError):
            clopper_pearson_lower(11, 10, 0.05)
        with pytest.raises(ValueError):
            clopper_pearson_lower(5, 10, 1.5)
        with pytest.raises(ValueError):
            clopper_pearson_lower(0.5, 10, 0.05)


class TestRadiusFormulas:
    def test_frozen_coefficients_at_unit_log_odds(self):
        sigma = 0.01
        assert radius_from_plower(P_UNIT_ODDS, sigma, FLOW, GroundMetric.L2) == pytest.approx(
            0.0025, abs=1e-12
        )
        assert radius_from_plower(P_UNIT_ODDS, sigma, FLOW, GroundMetric.L1) == pytest.approx(
            0.0035355339059327377, abs=1e-12
        )
        assert radius_from_plower(P_UNIT_ODDS, sigma, PIXEL, GroundMetric.L2) == pytest.approx(
            0.0017677669529663687, abs=1e-12
        )

    def test_pixel_radius_same_under_both_grounds(self):
        r1 = radius_from_plower(0.9, 0.05, PIXEL, GroundMetric.L1)
        r2 = radius_from_plower(0.9, 0.05, PIXEL, GroundMetric.L2)
        assert r1 == r2

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(0.5001, 0.9999),
        sigma=st.floats(1e-3, 1.0),
    )
    def test_flow_beats_pixel_by_sqrt2_exactly(self, p, sigma):
        flow = radius_from_plower(p, sigma, FLOW, GroundMetric.L2)
        pixel = radius_from_plower(p, sigma, PIXEL, GroundMetric.L2)
        assert flow == pytest.approx(math.sqrt(2.0) * pixel, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(0.5001, 0.999999),
        sigma=st.floats(1e-3, 1.0),
        scheme=st.sampled_from([FLOW, PIXEL]),
    )
    def test_formula_reproduced(self, p, sigma, scheme):
        coeff = 1.0 / (2 * math.sqrt(2.0)) if scheme == FLOW else 0.25 / math.sqrt(2.0)
        ground = GroundMetric.L1
        expected = coeff * sigma * math.log(p / (1 - p))
        assert radius_from_plower(p, sigma, scheme, ground) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_p(self):
        radii = [radius_from_plower(p, 0.1, FLOW) for p in np.linspace(0.51, 0.99, 30)]
        assert all(a < b for a, b in zip(radii, radii[1:]))

    def test_no_certificate_at_or_below_half(self):
        assert radius_from_plower(0.5, 0.1, FLOW) is None
        assert radius_from_plower(0.3, 0.1, FLOW) is None

    def test_unanimous_is_unbounded(self):
        assert radius_from_plower(1.0, 0.1, FLOW) == math.inf

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            radius_from_plower(0.9, 0.0, FLOW)
        with pytest.raises(ValueError):
            radius_from_plower(1.1, 0.1, FLOW)
        with pytest.raises(ValueError):
            radius_from_plower(0.9, 0.1, FLOW, ground="l2")
        with pytest.raises(ValueError):
            radius_from_plower(0.9, 0.1, "ball")

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            radius_from_plower(0.9, sigma, FLOW)


class TestCertify:
    def test_confident_classifier_gets_certificate(self):
        clf = RegionThresholdClassifier((3, 3), "rows", 0, threshold=0.2).params()
        x = np.zeros((3, 3))
        x[0, :] = 1 / 3
        spec = NoiseSpec(FLOW, 0.05)
        cert = certify(clf, x, spec, n0=200, n=2000, rng=np.random.default_rng(4))
        assert cert.predicted == 1
        assert cert.p_lower > 0.5
        expected = radius_from_plower(cert.p_lower, 0.05, FLOW)
        assert cert.rho2 == pytest.approx(expected, abs=1e-15)

    def test_coin_flip_classifier_abstains(self):
        # Aggregate sits exactly at the threshold, so votes split evenly.
        clf = RegionThresholdClassifier((2, 2), "rows", 0, threshold=0.5).params()
        x = np.full((2, 2), 0.25)
        cert = certify(clf, x, NoiseSpec(FLOW, 0.1), n0=100, n=1000,
                       rng=np.random.default_rng(6))
        assert cert.predicted == ABSTAIN
        assert cert.rho2 is None

    def test_deterministic_and_worker_invariant(self):
        clf = RegionThresholdClassifier((3, 3), "cols", 1, threshold=0.6).params()
        x = np.full((3, 3), 1 / 9)
        spec = NoiseSpec(PIXEL, 0.1)
        a = certify(clf, x, spec, n0=500, n=2500, rng=np.random.default_rng(7))
        b = certify(clf, x, spec, n0=500, n=2500, rng=np.random.default_rng(7), workers=3)
        # The same image with an explicit channel axis is the same input.
        c = certify(clf, x[None], spec, n0=500, n=2500, rng=np.random.default_rng(7))
        assert a == b == c

    def test_zero_sigma_certifies_zero_radius(self):
        clf = RegionThresholdClassifier((2, 2), "rows", 0, threshold=0.3).params()
        x = np.array([[0.5, 0.5], [0.0, 0.0]])
        cert = certify(clf, x, NoiseSpec(FLOW, 0.0), n0=50, n=500,
                       rng=np.random.default_rng(8))
        assert cert.predicted == 1
        assert cert.rho2 == 0.0

    def test_rejects_bad_budgets(self):
        clf = RegionThresholdClassifier((2, 2), "rows", 0, threshold=0.3).params()
        x = np.full((2, 2), 0.25)
        with pytest.raises(ValueError):
            certify(clf, x, NoiseSpec(FLOW, 0.1), n0=0)
        with pytest.raises(ValueError):
            certify(clf, x, NoiseSpec(FLOW, 0.1), alpha=1.0)


class TestMedianRadius:
    # One entry per image: its radius when certified and correct, else None
    # (an abstention, or a certificate naming the wrong class).
    def test_half_of_records_sets_the_bar(self):
        # Need 2 of 4 correct at radius >= rho; second-largest correct radius.
        assert median_certified_radius([0.3, 0.2, None, None]) == 0.2

    def test_too_few_correct_is_none(self):
        assert median_certified_radius([0.3, None, None, None]) is None

    def test_odd_count_rounds_up(self):
        assert median_certified_radius([0.4, 0.1, None]) == 0.1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_certified_radius([])
