"""Unit tests for the distance and seminorm machinery."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cltlab import metrics
from cltlab.metrics import (
    DistanceEstimate,
    EmpiricalDistribution,
    GaussianLaw,
    GridFunction,
    MetricsError,
    PanelGrid,
    envelope_norm_discrete,
    gaussian_gaussian_distance,
    gaussian_panel_integrals,
    gaussian_smooth,
    kolmogorov,
    lambda_seminorm,
    smoothing_lemma_check,
    uniform_panel_grid,
    wasserstein,
    wasserstein_samples,
    wasserstein_vs_gaussian,
    wasserstein_vs_gaussian_counts,
    zolotarev,
)
from cltlab.metrics import U_WEIGHT_KINK
from cltlab.normal import abs_moment, norm_cdf, norm_pdf, norm_quantile


def permutation_oracle(xs, ys, r):
    """Exhaustive minimum of the mean transport cost over permutations."""
    best = np.inf
    for perm in itertools.permutations(range(len(ys))):
        c = np.mean([abs(xs[i] - ys[perm[i]]) ** r for i in range(len(xs))])
        best = min(best, c)
    return best ** (1.0 / r) if r >= 1.0 else best


class TestEmpiricalDistribution:
    def test_sorted_and_uniform(self):
        d = EmpiricalDistribution([3.0, 1.0, 2.0])
        assert np.allclose(d.points, [1.0, 2.0, 3.0])
        assert d.is_uniform()

    def test_bad_weights(self):
        with pytest.raises(MetricsError):
            EmpiricalDistribution([0.0, 1.0], [0.5, 0.6])
        with pytest.raises(MetricsError):
            EmpiricalDistribution([0.0, 1.0], [1.1, -0.1])

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 2.5])
    def test_signed_zero_order_changes_no_value(self, r):
        # sorting by value alone may put -0.0 and +0.0 in any order among
        # ties; no distance, Kolmogorov value or floor distance (one with a
        # PanelGrid) depends on that order
        x = np.random.default_rng(3).standard_normal(997)
        x[[10, 200, 500, 900]] = [0.0, -0.0, 0.0, -0.0]
        stable = x[np.argsort(x, kind="stable")]
        zeros = np.flatnonzero(stable == 0.0)

        def values(signs):
            d = EmpiricalDistribution(x)
            pts = stable.copy()
            pts[zeros] = signs
            object.__setattr__(d, "points", pts)
            out = [kolmogorov(d, GaussianLaw(sigma)) for sigma in (0.0, 1.0, 1.3)]
            out += [wasserstein_vs_gaussian(d, GaussianLaw(sigma), r).value for sigma in (0.0, 1.0, 1.3)]
            out += [wasserstein_vs_gaussian(d, GaussianLaw(sigma), r, PanelGrid()).value for sigma in (1.0, 1.3)]
            return np.array(out).view(np.int64)

        expect = values([-0.0, 0.0, -0.0, 0.0])
        for signs in ([0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, 0.0, 0.0], [0.0, 0.0, -0.0, -0.0]):
            assert np.array_equal(values(signs), expect), signs
        # the sorted points are the stable order's, up to the signs of the
        # zeros (adding +0.0 turns -0.0 into +0.0 and changes nothing else)
        got = EmpiricalDistribution(x).points
        assert np.array_equal((got + 0.0).view(np.int64), (stable + 0.0).view(np.int64))

    def test_cdf(self):
        d = EmpiricalDistribution([0.0, 1.0])
        assert d.cdf(-0.5) == 0.0
        assert d.cdf(0.0) == 0.5
        assert d.cdf(2.0) == 1.0


class TestWassersteinSamples:
    def test_point_masses(self):
        # [TRIVIAL] two deltas at distance 1
        x = EmpiricalDistribution([0.0])
        y = EmpiricalDistribution([1.0])
        for r in (0.5, 1.0, 2.0):
            assert wasserstein_samples(x, y, r).value == pytest.approx(1.0)

    def test_two_point_oracle(self):
        # [DERIVED] W_2({0,1}, {1/2,1/2}) = 1/2 by the sorted coupling
        x = EmpiricalDistribution([0.0, 1.0])
        y = EmpiricalDistribution([0.5, 0.5])
        assert wasserstein_samples(x, y, 2.0).value == pytest.approx(0.5)

    def test_matches_permutation_oracle(self):
        # small-instance version of the exhaustive assignment oracle
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.integers(2, 6)
            xs = rng.standard_normal(m)
            ys = rng.standard_normal(m)
            for r in (0.5, 1.0, 1.5, 2.0):
                got = wasserstein_samples(
                    EmpiricalDistribution(xs), EmpiricalDistribution(ys), r
                ).value
                assert got == pytest.approx(permutation_oracle(xs, ys, r), abs=1e-10)

    def test_weighted_vs_replicated(self):
        # [DERIVED] rational weights equal replicated uniform atoms
        x = EmpiricalDistribution([0.0, 2.0], [0.25, 0.75])
        xr = EmpiricalDistribution([0.0, 2.0, 2.0, 2.0])
        y = EmpiricalDistribution([1.0])
        for r in (1.0, 2.0):
            a = wasserstein_samples(x, y, r).value
            b = wasserstein_samples(xr, y, r).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_subadditive_root_regime(self):
        # 0 < r < 1: no root, value is the raw coupling cost
        x = EmpiricalDistribution([0.0])
        y = EmpiricalDistribution([4.0])
        assert wasserstein_samples(x, y, 0.5).value == pytest.approx(2.0)

    def test_interval_validity_large_concave(self):
        rng = np.random.default_rng(3)
        x = EmpiricalDistribution(rng.standard_normal(700))
        y = EmpiricalDistribution(rng.standard_normal(700))
        d = wasserstein_samples(x, y, 0.5)
        assert d.lower <= d.value <= d.upper
        assert d.method == "quadrature"

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=30),
        st.floats(1.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_identity_and_symmetry(self, pts, r):
        x = EmpiricalDistribution(pts)
        assert wasserstein_samples(x, x, r).value == pytest.approx(0.0, abs=1e-12)
        y = EmpiricalDistribution([p + 1.0 for p in pts])
        a = wasserstein_samples(x, y, r).value
        b = wasserstein_samples(y, x, r).value
        assert a == pytest.approx(b, abs=1e-12)

    @given(st.floats(0.1, 3.0), st.floats(-20, 20), st.floats(-20, 20))
    @settings(max_examples=60, deadline=None)
    def test_translation_of_deltas(self, r, a, b):
        x = EmpiricalDistribution([a])
        y = EmpiricalDistribution([b])
        d = abs(a - b)
        expect = d if r >= 1.0 else d**r
        assert wasserstein_samples(x, y, r).value == pytest.approx(expect, abs=1e-9)


class TestWassersteinVsGaussian:
    def test_delta_against_standard_normal(self):
        # [DERIVED] W_1(delta_0, N(0,1)) = E|Y| = sqrt(2/pi)
        x = EmpiricalDistribution([0.0])
        d = wasserstein_vs_gaussian(x, GaussianLaw(1.0), 1.0)
        assert d.value == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-9)

    def test_delta_w2(self):
        # [DERIVED] W_2(delta_0, N(0,1)) = (E Y^2)^{1/2} = 1
        x = EmpiricalDistribution([0.0])
        d = wasserstein_vs_gaussian(x, GaussianLaw(1.0), 2.0)
        assert d.value == pytest.approx(1.0, abs=1e-9)

    def test_quantile_discretization_converges(self):
        # 1e4-point quantile grid of N(0,4) vs N(0,1)
        m = 10**4
        u = (np.arange(m) + 0.5) / m
        x = EmpiricalDistribution(2.0 * norm_quantile(u))
        for r in (1.0, 2.0):
            d = wasserstein_vs_gaussian(x, GaussianLaw(1.0), r)
            assert d.value == pytest.approx(abs_moment(r) ** (1.0 / r), abs=2e-3)

    def test_point_mass_limit(self):
        x = EmpiricalDistribution([1.0, -1.0])
        d = wasserstein_vs_gaussian(x, GaussianLaw(0.0), 2.0)
        assert d.value == pytest.approx(1.0)

    def test_agrees_with_sample_version(self):
        # fine quantile grid of the Gaussian behaves like the Gaussian itself
        rng = np.random.default_rng(11)
        x = EmpiricalDistribution(rng.standard_normal(300))
        m = 2 * 10**5
        u = (np.arange(m) + 0.5) / m
        g_grid = EmpiricalDistribution(norm_quantile(u))
        a = wasserstein_vs_gaussian(x, GaussianLaw(1.0), 1.0).value
        b = wasserstein_samples(x, g_grid, 1.0).value
        assert a == pytest.approx(b, abs=1e-4)


    def test_method_names_the_quadrature(self):
        # the r >= 1 value is the adaptive quadrature, which is low by about
        # 7e-9 relative, not an exact coupling; a point mass is exact
        x = EmpiricalDistribution(np.random.default_rng(4).standard_normal(200))
        for r in (0.5, 1.0, 2.0, 3.0):
            assert wasserstein_vs_gaussian(x, GaussianLaw(1.0), r).method == "quadrature"
        assert wasserstein_vs_gaussian(x, GaussianLaw(0.0), 2.0).method == "exact-monotone"

    def test_panel_cap_exit_is_tagged(self, monkeypatch):
        # the unrefined sum at the panel cap is reported, not hidden
        x = EmpiricalDistribution(np.random.default_rng(4).standard_normal(200))
        full = wasserstein_vs_gaussian(x, GaussianLaw(1.0), 1.0)
        monkeypatch.setattr(metrics, "PANEL_CAP", 1)
        capped = wasserstein_vs_gaussian(x, GaussianLaw(1.0), 1.0)
        assert capped.method == "quadrature-capped"
        assert capped.value == pytest.approx(full.value, rel=1e-3)  # one round, unrefined

    @pytest.mark.parametrize("sigma, r", [(1.0, 1.0), (0.7, 0.5), (1.3, 1.5), (2.0, 3.0)])
    def test_panel_grid_changes_no_bit(self, sigma, r):
        # one grid serves samples of the same weights; the value is bit for
        # bit the one computed without it
        rng = np.random.default_rng(8)
        w = rng.uniform(0.1, 1.0, 300)
        w /= w.sum()
        xs = [EmpiricalDistribution(np.sort(rng.standard_normal(300) * 1.2), w) for _ in range(3)]
        grid = PanelGrid()
        for x in xs:
            got = wasserstein_vs_gaussian(x, GaussianLaw(sigma), r, grid).value
            assert got == wasserstein_vs_gaussian(x, GaussianLaw(sigma), r).value

    def test_panel_grid_of_other_weights_rejected(self):
        # a grid is fixed by the first sample's weights and never aliases others
        rng = np.random.default_rng(4)
        grid = PanelGrid()
        wasserstein_vs_gaussian(EmpiricalDistribution(rng.standard_normal(300)), GaussianLaw(1.0), 1.0, grid)
        with pytest.raises(MetricsError, match="other cumulative weights"):
            wasserstein_vs_gaussian(EmpiricalDistribution(rng.standard_normal(200)), GaussianLaw(1.0), 1.0, grid)

    @pytest.mark.parametrize("sigma", [1.0, 1.3])
    @pytest.mark.parametrize("r", [1.0, 2.0, 2.5])
    def test_round_sums_skip_only_identity_passes(self, sigma, r):
        # the scale pass at sigma = 1 and the power pass at r = 1 are skipped;
        # both are exact, so the sums keep every bit of the full arithmetic
        rng = np.random.default_rng(5)
        cw = np.cumsum(rng.uniform(0.1, 1.0, 400))
        cw /= cw[-1]
        lo, hi = np.concatenate([[0.0], cw[:-1]]), cw
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        xval = np.sort(rng.standard_normal(400) * 1.2)
        q = metrics._node_quantiles(half, mid, np.empty((half.size, metrics._NODES.size)))
        q *= sigma
        q = np.abs(xval[:, None] - q) ** r
        k = metrics._COARSE
        want = (half * (q[:, :k] @ metrics._GL[0][1]), half * (q[:, k:] @ metrics._GL[1][1]))
        got = metrics._round_sums(half, mid, xval, sigma, r)
        for g, w in zip(got, want):
            assert [float(v).hex() for v in g] == [float(v).hex() for v in w]


class TestPanelBlocks:
    """A quadrature round runs in blocks of PANEL_BLOCK panels, rounded down
    to whole 16-row groups (blocks of 1 and 7 become one group); no panel's
    sums, and so no distance, depend on the block size."""

    # 4,999 weighted panels: no block size here divides the first round
    SAMPLE = np.random.default_rng(12).standard_normal(4999) * 1.1
    WEIGHTS = np.random.default_rng(13).uniform(0.1, 1.0, 4999)

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
    def test_value_independent_of_block(self, monkeypatch, r, weighted):
        w = self.WEIGHTS / self.WEIGHTS.sum() if weighted else None
        x = EmpiricalDistribution(self.SAMPLE, w)
        grid = PanelGrid()

        def values():
            return [wasserstein_vs_gaussian(x, GaussianLaw(sigma), r, g).value.hex()
                    for sigma in (1.0, 0.9) for g in (None, grid)]

        want = values()
        for block in (1, 7, 2**11, 2**20):
            monkeypatch.setattr(metrics, "PANEL_BLOCK", block)
            assert values() == want, block


class TestQuadratureMemory:
    """A quadrature round's work array holds at most PANEL_BLOCK panels. The
    ceiling is fixed, not derived from PANEL_BLOCK, so it guards the block
    size too."""

    CEILING = 16 * 2**20  # traced peak of one 10^5-point distance
    SAMPLE = np.random.default_rng(14).standard_normal(10**5)

    @staticmethod
    def traced_peak(f):
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_with_grid(self):
        x = EmpiricalDistribution(self.SAMPLE)
        grid = uniform_panel_grid(x.size)  # the shared table is built outside the trace
        assert self.traced_peak(lambda: wasserstein_vs_gaussian(x, GaussianLaw(1.0), 1.0, grid)) < self.CEILING

    def test_without_grid(self):
        x = EmpiricalDistribution(self.SAMPLE)
        assert self.traced_peak(lambda: wasserstein_vs_gaussian(x, GaussianLaw(1.0), 1.5)) < self.CEILING


class TestGaussianPanels:
    # (lo, hi, x): interior panels with and without the sign change inside,
    # both infinite end panels, and panels far from the crossing
    PANELS = [
        (0.1, 0.3, -0.7),
        (0.35, 0.65, 0.2),
        (0.45, 0.55, 1.3),
        (0.6, 0.95, -0.4),
        (0.0, 0.02, -2.5),
        (0.0, 0.1, 0.3),
        (0.8, 1.0, 1.2),
        (0.9, 1.0, -0.5),
    ]

    @staticmethod
    def z_space_quad(lo, hi, x, sigma, r):
        """int_a^b |x - sigma z|^r phi(z) dz by quad, split at z* = x / sigma."""
        a, b = norm_quantile(lo), norm_quantile(hi)
        cuts = [a] + ([x / sigma] if a < x / sigma < b else []) + [b]
        f = lambda z: abs(x - sigma * z) ** r * float(norm_pdf(z))
        return sum(quad(f, c0, c1, epsabs=0.0, epsrel=2e-14, limit=200)[0] for c0, c1 in zip(cuts[:-1], cuts[1:]))

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [1.0, 0.7])
    def test_matches_z_space_quadrature(self, r, sigma):
        lo, hi, x = (np.array(col) for col in zip(*self.PANELS))
        got = gaussian_panel_integrals(lo, hi, x, sigma, r)
        for i, panel in enumerate(self.PANELS):
            want = self.z_space_quad(*panel, sigma, r)
            assert abs(got[i] - want) <= 1e-13 * want, panel

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_panels_whose_terms_cancel(self, r):
        # panels of width 1e-4 around x = sigma z, as in a 10^4-point sample,
        # and two wide panels where |x - sigma z| is small against |x|: the
        # u-width and density terms cancel to a much smaller value, so the
        # error is bounded in absolute terms, by the rounding of those terms
        rng = np.random.default_rng(1)
        lo = np.append(rng.uniform(0.001, 0.99, size=30), [0.45, 0.97])
        hi = np.append(lo[:30] + 1e-4, [0.55, 1.0])
        x = norm_quantile(lo[:30] + rng.uniform(0.0, 1e-4, size=30)) + rng.normal(0.0, 0.01, size=30)
        x = np.append(x, [0.05, 2.2])
        got = gaussian_panel_integrals(lo, hi, x, 1.0, r)
        want = np.array([self.z_space_quad(*panel, 1.0, r) for panel in zip(lo, hi, x)])
        assert np.max(np.abs(got - want)) < 2e-15

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_zero_width_panels_are_zero(self, r):
        u = np.array([0.0, 0.3, 0.5, 1.0])
        got = gaussian_panel_integrals(u, u, np.array([-1.0, 0.2, 4.0, 1.5]), 1.0, r)
        assert np.array_equal(got, np.zeros(4))

    def test_rejects_non_integer_order_and_point_mass(self):
        for r, sigma in ((2.5, 1.0), (0, 1.0), (1, 0.0)):
            with pytest.raises(MetricsError):
                gaussian_panel_integrals(0.2, 0.4, 0.1, sigma, r)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_full_line_is_shifted_moment(self, r):
        # one panel over (0, 1): E|x - Y|^r; at x = 0 that is sigma^r E|Y|^r
        got = gaussian_panel_integrals(0.0, 1.0, 0.0, 1.5, r)
        assert got == pytest.approx(1.5**r * abs_moment(r), rel=1e-14)

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0, 2.5])
    def test_counts_rows_match_weighted_distance(self, r):
        rng = np.random.default_rng(4)
        points = np.sort(rng.standard_normal(400))
        counts = rng.multinomial(400, np.full(400, 1 / 400), size=3)
        got = wasserstein_vs_gaussian_counts(points, [counts], GaussianLaw(1.1), r) ** r
        for row, value in zip(counts, got):
            keep = row > 0
            want = wasserstein_vs_gaussian(EmpiricalDistribution(points[keep], row[keep] / 400), GaussianLaw(1.1), r)
            if r == int(r):
                # the quadrature stops refining the two end panels early and
                # under-integrates them by a few 1e-11; the exact panels do not
                assert 0.0 < value - want.value**r < 1e-10
            else:
                assert value == want.value**r

    def test_counts_rows_point_mass(self):
        points = np.array([-2.0, 0.5, 1.0])
        got = wasserstein_vs_gaussian_counts(points, [np.array([[1, 0, 1], [0, 2, 0]])], GaussianLaw(0.0), 2.0)
        assert np.allclose(got, [np.sqrt(2.5), 0.5], rtol=1e-15)

    def test_rows_evaluate_independently(self):
        rng = np.random.default_rng(9)
        points = np.sort(rng.standard_normal(1000))
        counts = rng.multinomial(1000, np.full(1000, 1e-3), size=25)
        for r in (1.0, 2.0, 3.0):
            together = wasserstein_vs_gaussian_counts(points, [counts], GaussianLaw(0.9), r)
            chunked = wasserstein_vs_gaussian_counts(points, [counts[:3], counts[3:10], counts[10:]], GaussianLaw(0.9), r)
            assert np.array_equal(chunked, together)
            for i in (0, 7, 24):
                alone = wasserstein_vs_gaussian_counts(points, [counts[i : i + 1]], GaussianLaw(0.9), r)
                assert alone[0] == together[i]

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_point_terms_computed_once(self, monkeypatch, r):
        # Phi(-|x| / sigma) depends on the points alone: one evaluation of the
        # m points for all chunks, not one per chunk
        rng = np.random.default_rng(10)
        points = np.sort(rng.standard_normal(300))
        chunks = [rng.multinomial(300, np.full(300, 1 / 300), size=3) for _ in range(4)]
        calls = []
        monkeypatch.setattr(metrics, "norm_cdf", lambda z: calls.append(np.size(z)) or norm_cdf(z))
        wasserstein_vs_gaussian_counts(points, chunks, GaussianLaw(1.2), r)
        assert calls == [300]


class TestGaussianGaussian:
    def test_r1_closed_form(self):
        # [DERIVED] |2-1| * E|Y| = sqrt(2/pi)
        got = gaussian_gaussian_distance(GaussianLaw(2.0), GaussianLaw(1.0), 1.0)
        assert got == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-12)

    def test_r2_closed_form(self):
        got = gaussian_gaussian_distance(GaussianLaw(3.0), GaussianLaw(1.0), 2.0)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_concave_regime(self):
        # r < 1: |sigma_a - sigma_b|^r * E|Y|^r
        got = gaussian_gaussian_distance(GaussianLaw(2.0), GaussianLaw(1.0), 0.5)
        assert got == pytest.approx(abs_moment(0.5), abs=1e-12)

    @given(st.floats(0, 5), st.floats(0, 5), st.floats(0.2, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_metric_axioms(self, sa, sb, r):
        a, b = GaussianLaw(sa), GaussianLaw(sb)
        d = gaussian_gaussian_distance(a, b, r)
        assert d >= 0
        assert d == pytest.approx(gaussian_gaussian_distance(b, a, r))
        if sa == sb:
            assert d == 0


class TestZolotarev:
    def test_equals_wasserstein_below_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = EmpiricalDistribution(rng.standard_normal(8))
            y = EmpiricalDistribution(rng.standard_normal(8))
            for r in (0.3, 0.7, 1.0):
                assert zolotarev(x, y, r).value == wasserstein_samples(x, y, r).value

    def test_mean_mismatch_is_infinite(self):
        x = EmpiricalDistribution([1.0])
        y = EmpiricalDistribution([0.0])
        d = zolotarev(x, y, 1.5)
        assert d.value == np.inf

    def test_second_moment_mismatch_infinite_above_two(self):
        x = EmpiricalDistribution([-1.0, 1.0])
        y = EmpiricalDistribution([-2.0, 2.0])
        assert zolotarev(x, y, 2.5).value == np.inf
        # same second moment: finite lower bound
        d = zolotarev(x, y, 1.5)
        assert np.isfinite(d.value)
        assert d.upper == np.inf
        assert d.method == "dictionary-lower"

    def test_lower_bound_below_known_value(self):
        # dictionary lower bound can never exceed the true sup; compare with
        # a case where zeta_2 is computable: zeta_2(X, Y) >= |EX^2 - EY^2|/2
        x = EmpiricalDistribution([-1.0, 1.0])
        g = GaussianLaw(1.0)
        d = zolotarev(x, g, 2.0)
        assert 0.0 <= d.value < 10.0

    def test_zero_for_identical(self):
        x = EmpiricalDistribution([-1.0, 0.5, 2.0])
        assert zolotarev(x, x, 1.5).value == pytest.approx(0.0, abs=1e-12)


class TestKolmogorovProkhorov:
    def test_two_point_vs_gaussian(self):
        # [DERIVED] sup gap attained just below x = -1: Phi(-1) - 0
        x = EmpiricalDistribution([-1.0, 1.0])
        got = kolmogorov(x, GaussianLaw(1.0))
        assert got == pytest.approx(norm_cdf(1.0) - 0.5, abs=1e-12)

    def test_delta_vs_gaussian(self):
        got = kolmogorov(EmpiricalDistribution([0.0]), GaussianLaw(1.0))
        assert got == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("s1, s2", [(1.0, 1.02), (1.0, 1.5), (0.5, 2.0), (1.0, 10.0), (1.5, 1.5)])
    def test_gaussian_pair_is_exact(self, s1, s2):
        # [DERIVED] the densities of N(0, a^2) and N(0, b^2) cross at
        # x* = ab sqrt(2 log(b/a) / (b^2 - a^2)), where |F - G| peaks
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        a, b = sorted((mpmath.mpf(s1), mpmath.mpf(s2)))
        if a == b:
            want = 0.0
        else:
            x = a * b * mpmath.sqrt(2 * mpmath.log(b / a) / (b**2 - a**2))
            want = float(mpmath.ncdf(x / a) - mpmath.ncdf(x / b))
        got = kolmogorov(GaussianLaw(s1), GaussianLaw(s2))
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)
        assert kolmogorov(GaussianLaw(s2), GaussianLaw(s1)) == got

    def test_empirical_pair(self):
        x = EmpiricalDistribution([0.0, 1.0, 2.0])
        y = EmpiricalDistribution([0.5, 1.5, 2.5])
        assert kolmogorov(x, y) == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, 0.8])
    def test_gaussian_cdf_evaluated_once(self, monkeypatch, sigma):
        # a diffuse Gaussian's left limits are its d.f. values: one pass;
        # the value is the sup over both gaps, bit for bit
        x = EmpiricalDistribution(np.random.default_rng(6).standard_normal(500).round(1))
        g = GaussianLaw(sigma)
        pts = np.unique(np.append(x.points, 0.0) if sigma == 0.0 else x.points)
        cw = np.concatenate(([0.0], x.cumweights))
        right, left = cw[np.searchsorted(x.points, pts, "right")], cw[np.searchsorted(x.points, pts, "left")]
        g_right = g.cdf(pts)
        g_left = g_right if sigma else (pts > 0).astype(float)
        want = max(np.max(np.abs(right - g_right)), np.max(np.abs(left - g_left)))
        calls = []
        monkeypatch.setattr(metrics, "norm_cdf", lambda z: calls.append(z) or norm_cdf(z))
        assert kolmogorov(x, g) == want
        assert len(calls) == (1 if sigma else 0)


class TestEnvelopeNorm:
    def test_bounded_variable_p2_is_l1(self):
        # p = 2: weight power is 0, norm is E|X|
        got = envelope_norm_discrete(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 2.0)
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_p3(self):
        # [DERIVED] for X ~ N(0,1): int_0^1 (1 v Phi^{-1}(1-u/2)) Q(u) du
        # where Q(u) = Phi^{-1}(1-u/2); computed by independent quadrature and
        # matched by the exact norm of Q sampled at the midpoints of 40000
        # geometric pieces, whose discretization error is about 1.2e-8
        q = lambda u: norm_quantile(1.0 - np.asarray(u) / 2.0)
        oracle, _ = quad(lambda u: max(1.0, q(u)) * q(u), 0, 1, limit=300)
        cuts = np.concatenate(([0.0], np.geomspace(1e-12, 1.0, 40000)))
        got = envelope_norm_discrete(q(0.5 * (cuts[1:] + cuts[:-1])), np.diff(cuts), 3.0)
        assert got == pytest.approx(oracle, abs=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.floats(2.0, 4.0))
    def test_stacked_laws_equal_their_rows(self, seed, p):
        # one norm per row, bit for bit the norm of that row alone; one row
        # has tied |x|
        rng = np.random.default_rng(seed)
        rows, size = int(rng.integers(1, 12)), int(rng.integers(1, 300))
        values = rng.normal(size=(rows, size)) * rng.exponential(size=(rows, 1))
        values[rows // 2] = np.round(values[rows // 2])
        probs = rng.random(size)
        probs /= probs.sum()
        got = envelope_norm_discrete(values, probs, p)
        assert got.shape == (rows,)
        for row, norm in zip(values, got):
            assert float(norm).hex() == envelope_norm_discrete(row, probs, p).hex()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([1.0, 2.0, 2.5, 3.0]))
    def test_weight_skipped_at_zero_steps_bit_for_bit(self, seed, p):
        # W is evaluated only where a sorted step is nonzero; the norms are
        # those of evaluating it at every position. Values drawn from few
        # levels give many ties, hence zero steps, also a zero-valued atom
        rng = np.random.default_rng(seed)
        rows, size = int(rng.integers(1, 6)), int(rng.integers(1, 200))
        levels = np.append(rng.normal(size=int(rng.integers(1, 6))), 0.0)
        values = rng.choice(levels, size=(rows, size)) * rng.choice([-1.0, 1.0], size=(rows, size))
        probs = rng.random(size)
        probs /= probs.sum()
        a = np.abs(values)
        order = np.argsort(-a, axis=-1)
        a = np.take_along_axis(a, order, axis=-1)
        c = np.minimum(np.cumsum(probs[order], axis=-1), 1.0)
        steps = a - np.append(a[:, 1:], np.zeros((rows, 1)), axis=-1)
        want = np.sum(steps * metrics._weight_antiderivative(c, p), axis=-1)
        got = envelope_norm_discrete(values, probs, p)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]

    def test_discrete_matches_functional(self):
        vals = np.array([-2.0, 0.5, 3.0])
        probs = np.array([0.2, 0.5, 0.3])
        a = np.abs(vals)
        order = np.argsort(-a)
        aa, pp = a[order], probs[order]
        cw = np.concatenate(([0.0], np.cumsum(pp)))

        def q(u):
            return float(aa[min(np.searchsorted(cw[1:], u, side="left"), 2)])

        for p in (2.0, 2.5, 3.0):
            got = envelope_norm_discrete(vals, probs, p)
            weighted = lambda u: max(1.0, norm_quantile(1.0 - u / 2.0)) ** (p - 2.0) * q(u)
            cuts = np.sort(np.append(cw, U_WEIGHT_KINK))
            ref = sum(quad(weighted, lo, hi, epsabs=1e-12, limit=500)[0] for lo, hi in zip(cuts, cuts[1:]))
            assert got == pytest.approx(ref, abs=1e-7)


def _envelope_norm_mpmath(values, probs, p):
    """sum_j a_j int_{c_j}^{c_{j+1}} (1 v Phi^{-1}(1 - u/2))^{p-2} du at 30
    digits over the sorted |values| a_j and the float cumulative weights c_j;
    below the kink u* = 2 Phi(-1) the piece integrals are taken in z-space,
    u = 2 Phi(-z), as int z^{p-2} 2 phi(z) dz."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        p = mp.mpf(p)
        kink = mp.erfc(1 / mp.sqrt(2))

        def tail(z):  # int_z^inf s^{p-2} 2 phi(s) ds
            return mp.quad(lambda s: s ** (p - 2) * 2 * mp.npdf(s), [z, z + 1, z + 4, mp.inf])

        def big_w(u):
            if u == 0:
                return mp.mpf(0)
            if u >= kink:
                return tail(mp.mpf(1)) + (u - kink)
            z = mp.findroot(lambda t: mp.erfc(t / mp.sqrt(2)) - u, -norm_quantile(float(u) / 2.0))
            return tail(z)

        a = np.abs(values)
        order = np.argsort(-a)
        cw = np.concatenate(([0.0], np.minimum(np.cumsum(probs[order]), 1.0)))
        ws = [big_w(mp.mpf(float(c))) for c in cw]
        return sum(mp.mpf(float(x)) * (ws[j + 1] - ws[j]) for j, x in enumerate(a[order]))


class TestEnvelopeNormClosedForm:
    # cumulative weights with pieces narrower than 1e-12, one piece across
    # the kink and one narrow piece across it
    KINK = 2.0 * norm_cdf(-1.0)
    CUTS = np.array([0.0, 0.05, 0.05 + 3e-13, 0.25, KINK - 4e-13, KINK + 4e-13,
                     0.35, 0.35 + 5e-13, 0.65, 1.0])
    MAGNITUDES = np.array([5.0, 4.0, 3.5, 3.0, 2.5, 2.0, 1.5, 1.0, 0.25])

    # p = 0.5 takes the incomplete-gamma recurrence below a = 0
    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_matches_mpmath(self, p):
        probs = np.diff(self.CUTS)
        # signs and order do not matter: the norm sorts |x|
        perm = np.random.default_rng(3).permutation(probs.size)
        signs = np.where(np.arange(probs.size) % 2 == 0, 1.0, -1.0)
        values, probs = (signs * self.MAGNITUDES)[perm], probs[perm]
        got = envelope_norm_discrete(values, probs, p)
        want = float(_envelope_norm_mpmath(values, probs, p))
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    def test_kink_constant_is_the_formula_bit_for_bit(self):
        # the literal keeps scipy.special out of the import of cltlab.metrics
        assert np.float64(U_WEIGHT_KINK).tobytes() == np.float64(2.0 * (1.0 - norm_cdf(1.0))).tobytes()

    @pytest.mark.parametrize("p", [1.0, 2.5])
    def test_narrow_pieces_against_mpmath(self, p):
        # a law whose only mass off zero sits in pieces 1e-13 wide
        probs = np.array([1e-13, 2e-13, 1.0 - 3e-13])
        values = np.array([3.0, -1.0, 0.0])
        got = envelope_norm_discrete(values, probs, p)
        want = float(_envelope_norm_mpmath(values, probs, p))
        assert got == pytest.approx(want, rel=1e-12, abs=0)


class TestSeminormAndSmoothing:
    def test_affine_has_zero_seminorm_above_one(self):
        f = GridFunction.from_callable(lambda x: 2.0 * x + 1.0, n=1025)
        assert lambda_seminorm(f, 2.0) == pytest.approx(0.0, abs=1e-8)

    def test_abs_function_lipschitz(self):
        f = GridFunction.from_callable(np.abs, n=1025)
        assert lambda_seminorm(f, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_quadratic_second_derivative(self):
        # |x^2|_{Lambda_2} = Lip(2x) = 2
        f = GridFunction.from_callable(lambda x: x**2, n=1025)
        assert lambda_seminorm(f, 2.0) == pytest.approx(2.0, rel=1e-3)

    def test_holder_half_of_sqrt_abs(self):
        # |sqrt|x||_{Lambda_{1/2}} = 1 on the half line; grid value close
        f = GridFunction.from_callable(lambda x: np.sqrt(np.abs(x)), lo=0.0, hi=8.0, n=2049)
        got = lambda_seminorm(f, 0.5)
        assert 0.9 <= got <= 1.5

    @settings(max_examples=80, deadline=None)
    @given(shape=st.sampled_from(["constant", "monotone", "kinked"]),
           n=st.integers(5, 300),
           r=st.floats(0.05, 2.95).filter(lambda r: abs(r - round(r)) > 1e-3),
           lo=st.floats(-20.0, 5.0), width=st.floats(0.01, 40.0),
           descending=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_pruned_lag_scan_equals_all_pairs_scan(self, shape, n, r, lo, width, descending, seed):
        rng = np.random.default_rng(seed)
        grid = np.linspace(lo, lo + width, n)[:: -1 if descending else 1]
        if shape == "constant":
            values = np.full(n, rng.normal())
        elif shape == "monotone":
            values = np.cumsum(rng.exponential(size=n) * rng.uniform(0.01, 10.0))
        else:
            kink = rng.uniform(lo, lo + width)
            values = rng.uniform(0.1, 5.0) * np.abs(grid - kink) ** rng.uniform(0.2, 3.0) + rng.normal(scale=1e-3, size=n)
        f = GridFunction(grid, values)
        l = int(np.ceil(r)) - 1
        g, d = metrics._grid_derivative(f, l)
        # every ordered pair, as the scan was before it was pruned
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(d[:, None] - d[None, :]) / np.abs(g[:, None] - g[None, :]) ** (r - l)
        ratio[~np.isfinite(ratio)] = 0.0
        assert float(lambda_seminorm(f, r)).hex() == float(ratio.max()).hex()

    def test_smooth_fixes_affine(self):
        f = GridFunction.from_callable(lambda x: 3.0 * x - 2.0, n=2049)
        g = gaussian_smooth(f, 0.25)
        assert np.allclose(g.values, 3.0 * g.grid - 2.0, atol=1e-10)

    def test_smoothing_identity_case(self):
        # c_{r,r} = 1: smoothing cannot increase the seminorm of order r
        f = GridFunction.from_callable(np.abs, n=2049)
        res = smoothing_lemma_check(f, [(1.0, 1.0, 0.3)])[0]
        assert res["constant"] == 1.0
        assert res["ok"]

    def test_smoothing_gains_derivatives(self):
        f = GridFunction.from_callable(np.abs, n=4097)
        res = smoothing_lemma_check(f, [(1.0, 2.0, 0.2)])[0]
        assert res["ok"]
        assert np.isfinite(res["lhs"])

    def test_smoothing_noninteger_orders(self):
        f = GridFunction.from_callable(lambda x: np.sqrt(np.abs(x)), n=4097)
        res = smoothing_lemma_check(f, [(0.5, 1.5, 0.3)])[0]
        assert res["ok"]

    def test_case_grid_computes_each_seminorm_once(self, monkeypatch):
        # the verify grid on a short grid: 6 (t, p) left sides and 4 right
        # sides, each bitwise the value a one-case call computes
        cases = [(r, p, t) for r in (0.5, 1.0, 1.5, 2.0) for p in (2.0, 2.5, 3.0) for t in (0.25, 1.0)]
        f = GridFunction.from_callable(np.abs, lo=-12.0, hi=12.0, n=2**9 + 1)
        single = [smoothing_lemma_check(f, [case])[0] for case in cases]
        calls = []
        seminorm = metrics.lambda_seminorm
        monkeypatch.setattr(metrics, "lambda_seminorm", lambda g, r: calls.append(r) or seminorm(g, r))
        assert smoothing_lemma_check(f, cases) == single
        assert len(calls) == 10
        with pytest.raises(MetricsError, match="p >= r"):
            smoothing_lemma_check(f, [(1.0, 2.0, 0.5), (2.0, 1.0, 0.5)])


class TestDistanceEstimate:
    def test_interval_invariant(self):
        with pytest.raises(MetricsError):
            DistanceEstimate(1.0, 2.0, 3.0, "quadrature")

    def test_dispatch(self):
        d = wasserstein(GaussianLaw(1.0), GaussianLaw(2.0), 1.0)
        assert d.value == pytest.approx(np.sqrt(2.0 / np.pi))
        d = wasserstein(GaussianLaw(1.0), EmpiricalDistribution([0.0]), 2.0)
        assert d.value == pytest.approx(1.0, abs=1e-9)
