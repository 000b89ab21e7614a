"""Accuracy of the numpy special functions: the normal d.f. and quantile
against scipy.special (whose Cephes code they port), and the envelope
weight's functions against mpmath at 30 digits, on grids fixed before the
code was written."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from cltlab.metrics import U_WEIGHT_KINK, _weight_antiderivative
from cltlab.normal import norm_cdf, norm_quantile, upper_gamma

mp = pytest.importorskip("mpmath")

# log-spaced over the whole range, plus both tail branch points of Phi^{-1}:
# u = exp(-2) (the central branch ends) and u = exp(-32) (sqrt(-2 log u) = 8)
QUANTILE_GRID = np.concatenate((np.geomspace(1e-300, U_WEIGHT_KINK / 2.0, 121), [np.exp(-2.0), np.exp(-32.0)]))
GAMMA_ORDERS = [-0.25, 0.0, 0.5, 0.75, 1.0, 1.25, 1.5]
# log-spaced, plus the switch points x = 1 and x = a + 1 of every order
GAMMA_GRID = np.unique(np.concatenate((np.geomspace(0.5, 700.0, 81), [1.0, 1.5, 1.75, 2.0, 2.25, 2.5])))

# numpy's log and exp differ from the C library's by an ulp or two, which
# the tail formulas carry into the result: over 3e7 quantiles and 2e7 d.f.
# values the largest difference from scipy.special was 5 and 4 ulp
ULPS = 8
EXP_M2 = 0.13533528323661269189  # Cephes' exp(-2)


def ulps(got, want):
    """|got - want| in units of the last place of want; 0 where both are the
    same infinity or both NaN."""
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):
        return np.where(same, 0.0, np.abs(got - want) / np.spacing(np.abs(want)))


def identical(got, want) -> bool:
    return np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def test_quantile_lower_matches_mpmath():
    with mp.workdps(30):
        for v, got in zip(QUANTILE_GRID, norm_quantile(QUANTILE_GRID)):
            # in log space: findroot's absolute tolerance would accept any t at v = 1e-300
            want = mp.findroot(lambda t: mp.log(mp.ncdf(t) / mp.mpf(float(v))), float(got))
            assert abs(got - want) <= 4e-15 * abs(want), v


@pytest.mark.parametrize("a", GAMMA_ORDERS)
def test_upper_gamma_matches_mpmath(a):
    got = upper_gamma(a, GAMMA_GRID)
    with mp.workdps(30):
        for x, value in zip(GAMMA_GRID, got):
            want = mp.gammainc(a, mp.mpf(float(x)))
            assert abs(value - want) <= 1e-13 * want, x


@settings(max_examples=60, deadline=None)
@given(a=st.sampled_from(GAMMA_ORDERS), seed=st.integers(0, 2**32 - 1))
def test_upper_gamma_value_depends_on_its_own_x_alone(a, seed):
    # batches that straddle the switch x = max(a + 1, 1), values far above it
    rng = np.random.default_rng(seed)
    x = rng.exponential(size=int(rng.integers(1, 200))) * rng.uniform(0.2, 30.0)
    got = upper_gamma(a, x)
    for i in range(x.size):
        assert float(got[i]).hex() == float(upper_gamma(a, x[i : i + 1])[0]).hex(), x[i]


def test_edge_values_are_exact_and_quiet():
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        # u = 0 is z = inf: W(0) = 0, not a NaN
        assert norm_quantile(0.0) == -np.inf
        assert _weight_antiderivative(np.array([0.0]), 2.5)[0] == 0.0
        assert np.all(upper_gamma(0.75, np.array([np.inf, np.inf])) == 0.0)
        assert upper_gamma(-0.25, np.inf) == 0.0
        kink = _weight_antiderivative(np.array([U_WEIGHT_KINK]), 2.5)[0]
    # at the kink z = 1: W = int_1^inf s^{1/2} 2 phi(s) ds
    with mp.workdps(30):
        want = mp.quad(lambda s: mp.sqrt(s) * 2 * mp.npdf(s), [1, 2, 5, mp.inf])
    assert abs(kink - want) <= 1e-14 * want


class TestQuantile:
    def test_central_branch_equals_ndtri(self):
        # u in (exp(-2), 1 - exp(-2)] is a rational function of u - 1/2: no
        # log, so the port is Cephes' arithmetic exactly
        u = np.random.default_rng(1).uniform(EXP_M2, 1.0 - EXP_M2, 10**5)
        u = np.concatenate((u, [0.5, np.nextafter(EXP_M2, 1.0), 1.0 - EXP_M2, np.nextafter(1.0 - EXP_M2, 0.0)]))
        assert identical(norm_quantile(u), ndtri(u))

    def test_special_values_equal_ndtri(self):
        u = np.array([0.0, -0.0, 1.0, np.nan, -0.1, 1.1, -np.inf, np.inf, -5e-324])
        got = norm_quantile(u)
        assert np.array_equal(got, ndtri(u), equal_nan=True)
        assert got[0] == -np.inf and got[2] == np.inf

    def test_tail_within_ulps_of_ndtri(self):
        rng = np.random.default_rng(2)
        u = np.concatenate((
            np.exp(-rng.uniform(2.0, 744.0, 10**5)),  # lower tail, to the subnormals
            1.0 - np.exp(-rng.uniform(2.0, 36.0, 10**5)),  # upper tail, to 1 - 2^-53
            [1.0 - 2.0**-53, 5e-324, 2.0**-1022, EXP_M2, np.nextafter(EXP_M2, 0.0), np.nextafter(1.0 - EXP_M2, 1.0),
             np.exp(-32.0), np.nextafter(np.exp(-32.0), 0.0), np.nextafter(np.exp(-32.0), 1.0), 1.0 - np.exp(-32.0)],
        ))
        assert np.max(ulps(norm_quantile(u), ndtri(u))) <= ULPS

    def test_in_place_equals_out_of_place(self):
        # _node_quantiles computes the quantiles in the buffer of their inputs
        rng = np.random.default_rng(3)
        u = np.concatenate((rng.random(400), np.exp(-rng.uniform(2.0, 700.0, 78)), [0.0, 1.0]))
        rng.shuffle(u)
        u = u.reshape(-1, 6)
        want = norm_quantile(u.copy())
        got = norm_quantile(u, out=u)
        assert got is u
        assert identical(u, want)

    def test_in_place_holds_no_full_size_copy(self):
        # 10^6 quantiles (8 MB, 62 blocks) in place: only one block's
        # temporaries at a time, and the values computed out of place
        u = np.random.default_rng(4).random(10**6)
        u[::1000] = np.exp(-np.linspace(2.0, 700.0, 1000))
        want = norm_quantile(u)
        tracemalloc.start()
        try:
            norm_quantile(u, out=u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert identical(u, want)
        with pytest.raises(ValueError, match="C-contiguous"):
            norm_quantile(u[:600].reshape(6, 100).T, out=np.empty((6, 100)).T)

    def test_shape_and_scalar(self):
        assert norm_quantile(np.full((2, 3), 0.25)).shape == (2, 3)
        assert np.ndim(norm_quantile(0.975)) == 0
        assert identical(norm_quantile(0.975), ndtri(0.975))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_property_matches_ndtri(self, u):
        got, want = norm_quantile(np.array([u])), ndtri(np.array([u]))
        if EXP_M2 < u <= 1.0 - EXP_M2:
            assert identical(got, want)
        else:
            assert ulps(got, want)[0] <= ULPS


class TestCdf:
    def test_inner_branches_equal_ndtr(self):
        # |x| < sqrt 2 is erf's rational function of x^2: no exp
        x = np.random.default_rng(4).uniform(-np.sqrt(2.0), np.sqrt(2.0), 10**5)
        x = np.concatenate((x, [0.0, -0.0, 1.0, -1.0, 1e-300, -5e-324, np.nextafter(np.sqrt(2.0), 0.0)]))
        assert identical(norm_cdf(x), ndtr(x))

    def test_outer_branch_within_ulps_of_ndtr(self):
        rng = np.random.default_rng(5)
        x = np.concatenate((rng.uniform(-40.0, 40.0, 10**5), rng.normal(0.0, 4.0, 10**5),
                            [np.sqrt(2.0), -np.sqrt(2.0), 8.0 * np.sqrt(2.0), -8.0 * np.sqrt(2.0), 37.5, -37.5]))
        assert np.max(ulps(norm_cdf(x), ndtr(x))) <= ULPS

    def test_limits_are_exact(self):
        x = np.array([38.5, -38.5, np.inf, -np.inf, np.nan, 1e300, -1e300])
        got = norm_cdf(x)
        assert np.array_equal(got, ndtr(x), equal_nan=True)
        assert list(got[:4]) == [1.0, 0.0, 1.0, 0.0] and np.isnan(got[4])

    def test_shape_and_scalar(self):
        assert norm_cdf(np.zeros((3, 2))).shape == (3, 2)
        assert norm_cdf(0.0) == 0.5 and np.ndim(norm_cdf(0.3)) == 0
