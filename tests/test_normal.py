"""Accuracy of the numpy special functions behind the envelope weight,
against mpmath at 30 digits on grids fixed before the code was written."""

import warnings

import numpy as np
import pytest

from cltlab.metrics import U_WEIGHT_KINK, _weight_antiderivative
from cltlab.normal import norm_quantile, norm_quantile_lower, upper_gamma

mp = pytest.importorskip("mpmath")

# log-spaced over the whole range, plus both AS 241 branch points:
# |v - 1/2| = 0.425 and sqrt(-log v) = 5
QUANTILE_GRID = np.concatenate((np.geomspace(1e-300, U_WEIGHT_KINK / 2.0, 121), [0.075, np.exp(-25.0)]))
GAMMA_ORDERS = [-0.25, 0.0, 0.5, 0.75, 1.0, 1.25, 1.5]
# log-spaced, plus the switch points x = 1 and x = a + 1 of every order
GAMMA_GRID = np.unique(np.concatenate((np.geomspace(0.5, 700.0, 81), [1.0, 1.5, 1.75, 2.0, 2.25, 2.5])))


def test_quantile_lower_matches_mpmath():
    with mp.workdps(30):
        for v, got in zip(QUANTILE_GRID, norm_quantile_lower(QUANTILE_GRID)):
            # in log space: findroot's absolute tolerance would accept any t at v = 1e-300
            want = mp.findroot(lambda t: mp.log(mp.ncdf(t) / mp.mpf(float(v))), float(norm_quantile(v)))
            assert abs(got - want) <= 4e-15 * abs(want), v


@pytest.mark.parametrize("a", GAMMA_ORDERS)
def test_upper_gamma_matches_mpmath(a):
    got = upper_gamma(a, GAMMA_GRID)
    with mp.workdps(30):
        for x, value in zip(GAMMA_GRID, got):
            want = mp.gammainc(a, mp.mpf(float(x)))
            assert abs(value - want) <= 1e-13 * want, x


def test_edge_values_are_exact_and_quiet():
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        # u = 0 is z = inf: W(0) = 0, not a NaN
        assert norm_quantile_lower(0.0) == -np.inf
        assert _weight_antiderivative(np.array([0.0]), 2.5)[0] == 0.0
        assert np.all(upper_gamma(0.75, np.array([np.inf, np.inf])) == 0.0)
        assert upper_gamma(-0.25, np.inf) == 0.0
        kink = _weight_antiderivative(np.array([U_WEIGHT_KINK]), 2.5)[0]
    # at the kink z = 1: W = int_1^inf s^{1/2} 2 phi(s) ds
    with mp.workdps(30):
        want = mp.quad(lambda s: mp.sqrt(s) * 2 * mp.npdf(s), [1, 2, 5, mp.inf])
    assert abs(kink - want) <= 1e-14 * want
