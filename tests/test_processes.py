"""Unit tests for the process generators and their exact structure."""

import contextlib
import json
import math
import os
import signal
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cltlab import processes
from cltlab import rng as rngmod
from cltlab.cli import main
from cltlab.processes import (
    DavydovChain,
    DensityGrid,
    ExpandingMap,
    FiniteKernel,
    FunctionOfLinear,
    IIDBaseline,
    InnovationLaw,
    LinearProcess,
    ProcessError,
    ProcessSpec,
    davydov_schedule,
    invariant_density,
    long_run_variance,
    partial_sums_batch,
    renewal_kernel,
    sample_linear_process,
)
from cltlab.processes import _centering_constant, _map_branches, _strongly_connected
from oracles import _solve_stationary, assert_no_child, dense_kernel, dense_rows, index_of, sample_chain


class TestInnovationLaw:
    def test_variances(self):
        assert InnovationLaw("gaussian").variance == 1.0
        assert InnovationLaw("rademacher").variance == 1.0
        assert InnovationLaw("uniform").variance == 1.0
        # [DERIVED] |eps| = U^{-1/q} has E eps^2 = q/(q-2)
        assert InnovationLaw("symmetric_pareto", q=3.0).variance == pytest.approx(3.0)

    def test_empirical_moments(self):
        rng = np.random.default_rng(0)
        for law in (
            InnovationLaw("gaussian"),
            InnovationLaw("rademacher"),
            InnovationLaw("uniform"),
            InnovationLaw("symmetric_pareto", q=6.0),
        ):
            x = law.sample(rng, 200000)
            assert abs(x.mean()) < 4 * x.std() / np.sqrt(x.size)
            assert x.var() == pytest.approx(law.variance, rel=0.15)

    def test_rejects_bad(self):
        with pytest.raises(ProcessError):
            InnovationLaw("cauchy")
        with pytest.raises(ProcessError):
            InnovationLaw("symmetric_pareto", q=1.5)


def _scalar_schedule(p: float, eps: float, i: int) -> float:
    """a_i by the scalar formula, with the crossover scanned from i = 2."""
    formula = lambda j: 1.0 - (p / (2.0 * j)) * (1.0 + (1.0 + eps) / np.log(j))
    i0 = next(j for j in range(2, 10**6) if formula(j) >= 0.5)
    return 0.5 if i < i0 else formula(i)


class TestDavydovSchedule:
    def test_small_i_is_half(self):
        assert davydov_schedule(2.5, 0.1, 2).tolist() == [0.5, 0.5]

    def test_formula_value(self):
        # [DERIVED] direct formula evaluation at i = 100
        expect = 1.0 - (1.25 / 100.0) * (1.0 + 1.1 / np.log(100.0))
        assert davydov_schedule(2.5, 0.1, 101)[100] == pytest.approx(expect, abs=1e-15)

    def test_limit_one(self):
        assert davydov_schedule(2.5, 0.1, 10**6 + 1)[-1] > 0.999

    def test_always_valid_probability(self):
        a = davydov_schedule(2.5, 0.1, 2000)
        assert a.shape == (2000,) and np.all((0.5 <= a) & (a < 1.0))

    @given(st.floats(2.0, 3.0, exclude_min=True), st.floats(1e-3, 10.0), st.integers(0, 3000))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_the_scalar_formula(self, p, eps, n):
        a = davydov_schedule(p, eps, n)
        want = np.array([_scalar_schedule(p, eps, i) for i in range(n)], dtype=float)
        assert a.dtype == want.dtype and np.array_equal(a.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("p, eps", [(2.5, 0.1), (2.01, 0.01), (3.0, 1.0), (2.7, 0.3)])
    def test_bitwise_equal_at_the_crossover(self, p, eps):
        i0 = processes._schedule_crossover(p, eps)
        for n in (i0 - 1, i0, i0 + 1, i0 + 2):
            a = davydov_schedule(p, eps, n)
            want = np.array([_scalar_schedule(p, eps, i) for i in range(n)])
            assert np.array_equal(a.view(np.int64), want.view(np.int64))
        assert a[i0 - 1] == 0.5 and a[i0] > 0.5

    def test_rejects_bad_parameters(self):
        with pytest.raises(ProcessError, match=r"p must lie in \(2, 3\]"):
            davydov_schedule(2.0, 0.1, 10)
        with pytest.raises(ProcessError, match="eps must be positive"):
            davydov_schedule(2.5, 0.0, 10)


class TestDavydovKernel:
    def test_rows_and_center(self):
        k, _ = renewal_kernel(np.full(10, 0.5), "f1")
        assert np.allclose(k.matrix.sum(axis=1), 1.0)
        zero = index_of(k, 0)
        assert k.matrix[zero, zero] == 0.0  # no holding at 0
        assert k.matrix[zero, zero + 1] == 0.5

    def test_stationary_matches_power_iteration(self):
        # [DERIVED] power-iteration oracle
        k, _ = renewal_kernel(np.full(12, 0.5), "f1")
        v = np.full(k.size, 1.0 / k.size)
        for _ in range(10**4):
            v = v @ k.matrix
        assert np.max(np.abs(v - k.stationary)) < 1e-10

    def test_boundary_redirected(self):
        k, _ = renewal_kernel(np.full(8, 0.5), "f1")
        top = index_of(k, 8)
        assert k.matrix[top, index_of(k, 0)] == 1.0

    def test_symmetry(self):
        k, _ = renewal_kernel(davydov_schedule(2.5, 0.1, 50), "f1")
        pi = k.stationary
        flipped = pi[::-1]
        assert np.allclose(pi, flipped, atol=1e-14)

    def test_rejects_bad_rule(self):
        with pytest.raises(ProcessError, match="a_0 must equal 1/2"):
            renewal_kernel(np.full(10, 0.6), "f1")
        with pytest.raises(ProcessError, match="need 1/2 <= a_n < 1 for n >= 1"):
            renewal_kernel(np.r_[0.5, np.full(9, 0.4)], "f1")
        with pytest.raises(ProcessError, match="need 1/2 <= a_n < 1 for n >= 1"):
            renewal_kernel(np.r_[0.5, np.full(9, 1.0)], "f1")
        with pytest.raises(ProcessError, match="n_max must be >= 4"):
            renewal_kernel(np.full(3, 0.5), "f1")
        with pytest.raises(ProcessError, match="unknown functional kind: f3"):
            renewal_kernel(np.full(10, 0.5), "f3")

    @pytest.mark.parametrize("p, eps, n_max", [(2.5, 0.1, 400), (3.0, 0.5, 120), (2.1, 1.0, 40)])
    def test_renewal_stationary_law(self, p, eps, n_max):
        # [DERIVED] the product-formula law solves pi K = pi to rounding and
        # agrees with the LU solve of the same kernel
        k, _ = renewal_kernel(davydov_schedule(p, eps, n_max), "f1")
        pi = k.stationary
        assert np.max(np.abs(pi @ k.matrix - pi)) <= 1e-15
        lu = _solve_stationary(k.matrix)
        assert np.max(np.abs(pi - lu) / lu) <= 1e-9


class TestMdsFunctional:
    def test_f1_values(self):
        k, f = renewal_kernel(np.full(10, 0.5), "f1")
        z = index_of(k, 0)
        assert f[z] == 0.0
        assert f[z + 1] == 1.0 and f[z - 1] == -1.0
        assert np.all(f[z + 2 :] == 0.0)

    def test_f2_values(self):
        k, f = renewal_kernel(np.full(10, 0.5), "f2")
        z = index_of(k, 0)
        assert f[z] == 1.0
        assert f[z + 1] == 0.0
        assert f[z + 2] == pytest.approx(1.0 - 1.0 / 0.5)

    def test_zero_conditional_mean_interior(self):
        a = davydov_schedule(2.7, 0.3, 30)
        for kind in ("f1", "f2"):
            k, f = renewal_kernel(a, kind)
            interior = np.abs(k.states) < 30
            assert np.max(np.abs(k.apply(f)[interior])) <= 1e-12


class TestSampleChain:
    def test_path_in_state_set(self):
        k, _ = renewal_kernel(np.full(6, 0.5), "f1")
        path = sample_chain(k, 500, seed=9)
        assert np.all(np.isin(path, k.states))

    def test_replay(self):
        k, _ = renewal_kernel(np.full(6, 0.5), "f1")
        a = sample_chain(k, 200, seed=3)
        b = sample_chain(k, 200, seed=3)
        assert np.array_equal(a, b)

    def test_frequencies_match_stationary(self):
        k, _ = renewal_kernel(np.full(6, 0.5), "f1")
        path = sample_chain(k, 200000, seed=1)
        for s in (-1, 0, 1):
            freq = np.mean(path == s)
            p = k.stationary[index_of(k, s)]
            assert abs(freq - p) < 4 * np.sqrt(p * (1 - p) / path.size) + 2e-3


class TestLinearProcess:
    def test_identity_coefficients(self):
        lp = LinearProcess(lambda j: 1.0 if j == 0 else 0.0, truncation=3)
        x = sample_linear_process(lp, 50, seed=0)
        # a = delta_0 means X_k = eps_k: variance ~ 1
        assert x.var() < 3.0

    def test_geometric_autocovariance(self):
        # [DERIVED] a_j = rho^j (j >= 0): Cov(X_0, X_1) = rho/(1-rho^2)
        rho = 0.5
        lp = LinearProcess(lambda j: rho**j if j >= 0 else 0.0, truncation=60)
        x = sample_linear_process(lp, 200000, seed=4)
        c1 = np.mean(x[:-1] * x[1:])
        assert c1 == pytest.approx(rho / (1 - rho**2), abs=0.03)

    def test_seeds_differ(self):
        lp = LinearProcess(lambda j: 1.0 if j == 0 else 0.0, truncation=2)
        assert not np.array_equal(
            sample_linear_process(lp, 20, seed=0), sample_linear_process(lp, 20, seed=1)
        )

    def test_tail_tolerance_enforced(self):
        with pytest.raises(ProcessError):
            LinearProcess(lambda j: 1.0 / (1 + abs(j)), truncation=8).coefficients()

    def test_coefficients_evaluated_once_and_read_only(self):
        calls = []
        lp = LinearProcess(lambda j: calls.append(j) or (0.5**j if j >= 0 else 0.0), truncation=30)
        first = len(calls)
        assert first == 61 + 512  # a_{-t..t} and the 512-lag tail probe
        a = lp.coefficients()
        assert lp.coefficients() is a and len(calls) == first
        with pytest.raises(ValueError):
            a[0] = 1.0


class TestApplyH:
    """The centered observables h(X_k) - E h(V) of a function of a linear
    process, and the modulus check of h."""

    def test_identity_recentres(self):
        lp = LinearProcess(lambda j: 1.0 if j == 0 else 0.0, truncation=2)
        fol = FunctionOfLinear(lp, "identity", 1.0, 0.0, centering_draws=10**5)
        center, stderr = _centering_constant(lp, fol.h(), 7, 10**5)
        assert abs(center) < 5 * stderr + 1e-2
        got = partial_sums_batch(ProcessSpec(fol, seed=7), [1], 100).values(1)
        want = [sample_linear_process(lp, 1, seed=7, replicate=rep)[0] - center for rep in range(100)]
        assert np.array_equal(got, want)

    def test_constant_h_gives_zeros(self):
        lp = LinearProcess(lambda j: 1.0 if j == 0 else 0.0, truncation=2)
        fol = FunctionOfLinear(lp, lambda x: np.zeros_like(x) + 2.0, 1.0, 0.0, centering_draws=1000)
        assert np.all(partial_sums_batch(ProcessSpec(fol), [1, 8], 100).values(8) == 0.0)

    def test_abs_power_centering_reproducible(self):
        # [DERIVED] independent MC run agrees within 4 joint stderr
        lp = LinearProcess(lambda j: 1.0 if j == 0 else 0.0, truncation=2)
        h = FunctionOfLinear(lp, "abs_power", 0.8, 0.0).h()
        (c1, s1), (c2, s2) = (_centering_constant(lp, h, seed, 2 * 10**5) for seed in (1, 2))
        assert abs(c1 - c2) < 4 * np.hypot(s1, s2)

    def test_modulus_violation_rejected(self):
        lp = LinearProcess(lambda j: 1.0 if j == 0 else 0.0, truncation=2)
        with pytest.raises(ProcessError, match="modulus"):
            # |x|^(1/4) declared Lipschitz: the modulus ratio grows as t -> 0
            FunctionOfLinear(lp, lambda x: np.abs(x) ** 0.25, 1.0, 0.0)

    def test_modulus_checked_at_construction(self):
        lp = LinearProcess(lambda j: 1.0 if j == 0 else 0.0, truncation=2)
        with pytest.raises(ProcessError, match="modulus"):
            FunctionOfLinear(lp, lambda x: (x > 0).astype(float), 1.0, 0.0)


class TestExpandingMaps:
    def test_doubling_density_is_lebesgue(self):
        d = invariant_density(ExpandingMap("beta", beta=2.0))
        assert np.allclose(d.values, 1.0)

    def test_gauss_density_invariant(self):
        # [DERIVED] transfer-operator quadrature residual
        em = ExpandingMap("gauss")
        d = invariant_density(em)
        x = d.x[1:-1]
        lf = np.zeros_like(x)
        for m in range(1, 2000):
            y = 1.0 / (x + m)
            lf += y**2 / ((1.0 + y) * np.log(2.0))
        # y^2 f(y) telescopes, so the branch tail sums exactly
        lf += 1.0 / ((x + 2000.0) * np.log(2.0))
        resid = np.trapezoid(np.abs(lf - d.values[1:-1]), x)
        assert resid < 1e-6

    def test_density_normalized(self):
        for em in (
            ExpandingMap("beta", beta=1.8),
            ExpandingMap("piecewise_affine", breakpoints=(0.0, 0.4, 1.0), slopes=(2.5, 5.0 / 3.0), offsets=(0.0, -2.0 / 3.0)),
        ):
            d = invariant_density(em)
            assert np.all(d.values >= -1e-12)
            assert np.trapezoid(d.values, d.x) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_contracting_slopes(self):
        with pytest.raises(ProcessError):
            ExpandingMap("piecewise_affine", breakpoints=(0.0, 0.5, 1.0), slopes=(0.5, 2.0), offsets=(0.0, -1.0))


class TestPartialSumsBatch:
    def test_iid_unit_normal(self):
        spec = ProcessSpec(IIDBaseline(), seed=5)
        tb = partial_sums_batch(spec, [1, 64], 2000)
        v = tb.values(64)
        assert abs(v.mean()) < 4 / np.sqrt(v.size)
        assert v.var() == pytest.approx(1.0, rel=0.15)

    def test_n_equals_one_is_marginal(self):
        spec = ProcessSpec(IIDBaseline(InnovationLaw("rademacher")), seed=5)
        tb = partial_sums_batch(spec, [1], 200)
        assert set(np.unique(tb.values(1))) == {-1.0, 1.0}

    def test_replay_determinism(self):
        spec = ProcessSpec(DavydovChain(2.5, 0.1, "f1", n_max=60), seed=11)
        a = partial_sums_batch(spec, [32, 64], 300)
        b = partial_sums_batch(spec, [32, 64], 300)
        for n in (32, 64):
            assert np.array_equal(a.values(n), b.values(n))

    def test_replicates_independent_of_batch_size(self):
        # first replicates coincide when M grows: per-replicate streams
        spec = ProcessSpec(IIDBaseline(), seed=2)
        small = partial_sums_batch(spec, [16], 100)
        large = partial_sums_batch(spec, [16], 300)
        assert np.array_equal(small.values(16), large.values(16)[:100])

    def test_memory_guard(self):
        spec = ProcessSpec(IIDBaseline(), seed=0)
        with pytest.raises(ProcessError):
            partial_sums_batch(spec, [2**20], 10**4, budget=10**6)

    def test_budget_error_names_the_budget(self):
        spec = ProcessSpec(IIDBaseline(), seed=0)
        with pytest.raises(processes.BudgetError, match="exceeds the budget of 1000000 replicate-steps"):
            partial_sums_batch(spec, [2**20], 10**4, budget=10**6)

    def test_grid_must_increase(self):
        spec = ProcessSpec(IIDBaseline(), seed=0)
        with pytest.raises(ProcessError):
            partial_sums_batch(spec, [64, 64], 100)

    def test_doubling_map_variance(self):
        # [DERIVED] f(x) = x on the doubling map: Cov_k = 2^{-k}/12, so
        # sigma^2 = 1/12 + 2 * (1/12) = 1/4
        spec = ProcessSpec(ExpandingMap("beta", beta=2.0), seed=8)
        tb = partial_sums_batch(spec, [256], 4000)
        assert tb.values(256).var() == pytest.approx(0.25, rel=0.15)

    def test_stationarity_across_lags(self):
        # marginal of X_1 vs X_50: two-sample Kolmogorov gap small
        spec = ProcessSpec(DavydovChain(2.5, 0.1, "f1", n_max=60), seed=3)
        kernel, f = spec.family.kernel
        path = sample_chain(kernel, 5000, seed=3)
        idx = np.searchsorted(kernel.states, path)
        x1 = f[idx][1:1000]
        x50 = f[idx][50:1049]
        from cltlab.metrics import EmpiricalDistribution, kolmogorov

        gap = kolmogorov(EmpiricalDistribution(x1), EmpiricalDistribution(x50))
        assert gap < 4.0 / np.sqrt(1000) + 0.05


class TestLongRunVariance:
    def test_iid(self):
        assert long_run_variance(ProcessSpec(IIDBaseline()))["sigma2"] == 1.0

    def test_davydov_f1_is_marginal_variance(self):
        # [DERIVED] cross covariances vanish by the zero-conditional-mean
        # property, so sigma^2 = sum_s pi(s) f1(s)^2
        spec = ProcessSpec(DavydovChain(2.5, 0.1, "f1", n_max=80), seed=0)
        kernel, f = spec.family.kernel
        lv = long_run_variance(spec)
        assert lv["sigma2"] == pytest.approx(float(kernel.stationary @ (f * f)), abs=1e-10)

    def test_linear_two_coefficients(self):
        # [DERIVED] a = (1, 1): A = 2, Var eps = 1 -> sigma^2 = 4, and
        # Var(S_n)/n = 4 - 2/n exactly
        lp = LinearProcess(lambda j: 1.0 if j in (0, 1) else 0.0, truncation=4)
        lv = long_run_variance(ProcessSpec(lp))
        assert lv["sigma2"] == pytest.approx(4.0)
        assert lv["sigma_n2"](64) == pytest.approx(4.0 - 2.0 / 64.0, abs=1e-12)

    def test_sigma_n2_converges_to_sigma2(self):
        lp = LinearProcess(lambda j: 0.5**j if 0 <= j <= 40 else 0.0, truncation=45)
        lv = long_run_variance(ProcessSpec(lp))
        assert lv["sigma_n2"](2**14) == pytest.approx(lv["sigma2"], rel=1e-2)

    @pytest.mark.parametrize("n", [4096, 16384, 65536])
    def test_linear_sigma_n2_is_the_exact_sum(self, n):
        # Var(S_n)/n = (1/n) sum_j c_j(n)^2 over the window sums c_j(n) of
        # a_{-t..t}; a running float sum of the squares drifts with n
        t = 512
        lp = LinearProcess(lambda j: (-0.9) ** j if j >= 0 else 0.0, truncation=t)
        cs = np.concatenate(([0.0], np.cumsum(lp.coefficients())))
        j = np.arange(1 - t, n + t + 1)
        lo, hi = np.maximum(1 - j, -t), np.minimum(n - j, t)
        want = math.fsum(((cs[hi + t + 1] - cs[lo + t]) ** 2).tolist()) / n
        got = long_run_variance(ProcessSpec(lp))["sigma_n2"](n)
        assert abs(got - want) <= 1e-15 * want

    def test_doubling_map_quarter(self):
        lv = long_run_variance(ProcessSpec(ExpandingMap("beta", beta=2.0)))
        assert lv["sigma2"] == pytest.approx(0.25, abs=2e-3)

    def test_function_of_linear_batch_means(self):
        lp = LinearProcess(lambda j: 1.0 if j == 0 else 0.0, truncation=2)
        fol = FunctionOfLinear(lp, "identity", 1.0, 0.0, centering_draws=10**5)
        lv = long_run_variance(ProcessSpec(fol))
        assert lv["method"] == "batch-means"
        assert lv["sigma2"] == pytest.approx(1.0, rel=0.3)

    def test_function_of_linear_variance_needs_no_centering(self, monkeypatch):
        # the variance of the batch means does not move with a shift of h
        def boom(*args, **kwargs):
            raise AssertionError("centering constant estimated")

        monkeypatch.setattr(processes, "_centering_constant", boom)
        lp = LinearProcess(lambda j: 0.5**j if j >= 0 else 0.0, truncation=64)
        lv = long_run_variance(ProcessSpec(FunctionOfLinear(lp, "abs_power", 1.0, 0.0), seed=0))
        assert lv["method"] == "batch-means" and lv["sigma2"] > 0.0


class TestFiniteKernelValidation:
    def test_rejects_bad_rows(self):
        with pytest.raises(ProcessError):
            dense_kernel(np.array([0, 1]), np.array([[0.5, 0.4], [0.5, 0.5]]), np.array([0.5, 0.5]))

    def test_rejects_wrong_stationary(self):
        k = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ProcessError):
            dense_kernel(np.array([0, 1]), k, np.array([0.9, 0.1]))

    def test_rejects_reducible(self):
        k = np.eye(2)
        with pytest.raises(ProcessError):
            dense_kernel(np.array([0, 1]), k, np.array([0.5, 0.5]))

    def test_rejects_empty(self):
        with pytest.raises(ProcessError, match="at least one state"):
            dense_kernel(np.array([], dtype=int), np.zeros((0, 0)), np.array([]))


def _random_kernel_with_apply_input(size: int, dense: bool, seed: int):
    """An irreducible kernel (a cycle plus random edges) with at most four
    nonzeros per row, and a vector spanning six decades."""
    gen = np.random.default_rng(seed)
    k = np.zeros((size, size))
    k[np.arange(size), (np.arange(size) + 1) % size] = 1.0
    if dense:
        k += gen.random((size, size))
    else:
        for row in range(size):
            k[row, gen.choice(size, size=min(size, 3), replace=False)] += gen.random(min(size, 3))
    k += 0.05 * (k > 0)  # no transition weight below about 0.05 / 5
    k /= k.sum(axis=1, keepdims=True)
    f = gen.normal(size=size) * 10.0 ** gen.uniform(-3.0, 3.0, size)
    return dense_kernel(np.arange(size), k, _solve_stationary(k)), f


class TestFiniteKernelApply:
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_dense_matches_matvec(self, size, seed):
        # [DERIVED] with m <= 4 terms per row, both sums lie within m u of the
        # exact one relative to |K| |f| (u = 2^-53), so within 1e-15 of each other
        k, f = _random_kernel_with_apply_input(size, True, seed)
        assert np.all(np.abs(k.apply(f) - k.matrix @ f) <= 1e-15 * (np.abs(k.matrix) @ np.abs(f)))

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_sparse_matches_matvec(self, size, seed):
        k, f = _random_kernel_with_apply_input(size, False, seed)
        assert np.all(np.abs(k.apply(f) - k.matrix @ f) <= 1e-15 * (np.abs(k.matrix) @ np.abs(f)))

    def test_davydov_rows_have_two_entries(self):
        k, _ = renewal_kernel(davydov_schedule(2.5, 0.1, 400), "f1")
        assert k.cols.shape == (2, k.size)
        f = np.random.default_rng(4).normal(size=k.size)
        assert np.max(np.abs(k.apply(f) - k.matrix @ f)) <= 1e-15 * np.max(np.abs(f))


def _scipy_strongly_connected(adj):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    return connected_components(csr_matrix(adj), connection="strong")[0] == 1


def _strongly_connected_adj(adj):
    """_strongly_connected on the slot-major rows of a boolean adjacency
    matrix, padded with dead slots to the widest row."""
    return _strongly_connected(*dense_rows(adj))


class TestStronglyConnected:
    """The numpy reachability check against scipy's strong components."""

    @given(st.integers(1, 9).flatmap(lambda n: hnp.arrays(bool, (n, n))))
    @settings(max_examples=300, deadline=None)
    def test_random_digraphs(self, adj):
        assert _strongly_connected_adj(adj) == _scipy_strongly_connected(adj)

    @pytest.mark.parametrize("adj", [
        np.zeros((1, 1), dtype=bool),  # n = 1 without a self-loop
        np.ones((1, 1), dtype=bool),
        np.eye(4, dtype=bool),  # self-loops only
        np.eye(5, k=1, dtype=bool),  # one-way chain 0 -> 1 -> ... -> 4
        np.eye(5, k=-1, dtype=bool),  # one-way chain 4 -> ... -> 0
        np.eye(5, k=1, dtype=bool) | np.eye(5, k=-4, dtype=bool),  # the chain closed into a cycle
        np.eye(5, k=1, dtype=bool) | np.eye(5, k=-1, dtype=bool),  # two-way chain
    ], ids=["n1", "n1-loop", "self-loops", "chain-up", "chain-down", "cycle", "two-way"])
    def test_edge_cases(self, adj):
        assert _strongly_connected_adj(adj) == _scipy_strongly_connected(adj)

    def test_empty_graph(self):
        assert not _strongly_connected_adj(np.zeros((0, 0), dtype=bool))

    def test_davydov_kernel(self):
        kernel, _ = DavydovChain(2.5, 0.1, n_max=60).kernel
        live = kernel.weights > 0
        adj = kernel.matrix > 0
        assert _strongly_connected(kernel.cols, live) and _scipy_strongly_connected(adj)
        live &= kernel.cols != index_of(kernel, 0)  # nothing returns to 0
        adj[:, index_of(kernel, 0)] = False
        assert not _strongly_connected(kernel.cols, live) and not _scipy_strongly_connected(adj)


def _random_rows(size: int, seed: int):
    """Slot-major rows of an irreducible kernel (a cycle plus random edges):
    each row's positive weights in increasing column order, then zero-weight
    slots pointing at random states, as a dense matrix's rows are laid out
    up to where the padding points."""
    gen = np.random.default_rng(seed)
    width = min(size, 4)
    cols = np.empty((width, size), dtype=np.intp)
    weights = np.zeros((width, size))
    for row in range(size):
        others = gen.choice(size, size=gen.integers(0, width), replace=False)
        nz = np.unique(np.append(others, (row + 1) % size))
        w = gen.random(nz.size) + 0.05
        cols[:, row] = np.append(nz, gen.integers(0, size, width - nz.size))
        weights[:nz.size, row] = w / w.sum()
    dense = np.zeros((size, size))
    for slot in range(width):
        dense[np.arange(size), cols[slot]] += weights[slot]
    return cols, weights, dense


class TestKernelFromRows:
    """FiniteKernel(states, cols, weights, stationary) against the kernel the
    dense reference oracles.dense_kernel builds from the same matrix."""

    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_dense_kernel(self, size, seed):
        cols, weights, dense = _random_rows(size, seed)
        pi = _solve_stationary(dense)
        rows = FiniteKernel(np.arange(size), cols, weights, pi)
        full = dense_kernel(np.arange(size), dense, pi)
        assert "matrix" not in vars(rows)
        f = np.random.default_rng(seed).normal(size=size) * 10.0 ** np.linspace(-3.0, 3.0, size)
        for got, want in ((rows.apply(f), full.apply(f)), (rows.matrix, dense),
                          (rows.stationary, full.stationary)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @staticmethod
    def _both_raise(cols, weights, pi):
        """The message the rows and the dense reference raise on the same kernel."""
        dense = np.zeros((pi.size, pi.size))
        for slot in range(cols.shape[0]):
            dense[np.arange(pi.size), cols[slot]] += weights[slot]
        messages = []
        for build in (lambda: FiniteKernel(np.arange(pi.size), cols, weights, pi),
                      lambda: dense_kernel(np.arange(pi.size), dense, pi)):
            with pytest.raises(ProcessError) as err:
                build()
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        return messages[0]

    CYCLE3 = np.array([[1, 2, 0], [2, 0, 1]])  # i -> i + 1 and i -> i + 2 (mod 3)

    def test_rejects_a_negative_weight(self):
        weights = np.array([[1.1, 0.5, 0.5], [-0.1, 0.5, 0.5]])
        assert self._both_raise(self.CYCLE3, weights, np.full(3, 1 / 3)) == "negative transition probability"

    def test_rejects_rows_off_one(self):
        weights = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.4]])
        assert self._both_raise(self.CYCLE3, weights, np.full(3, 1 / 3)) == "rows must sum to 1 within 1e-12"

    def test_rejects_a_non_stationary_law(self):
        weights = np.full((2, 3), 0.5)
        pi = np.array([0.5, 0.3, 0.2])
        assert self._both_raise(self.CYCLE3, weights, pi) == "stationary vector residual exceeds 1e-12"

    def test_rejects_two_closed_classes(self):
        cols = np.array([[1, 0, 3, 2]])  # {0, 1} and {2, 3}
        assert self._both_raise(cols, np.ones((1, 4)), np.full(4, 0.25)) == "kernel is not irreducible"

    def test_rejects_an_unreachable_state(self):
        cols = np.array([[1, 0, 0]])  # 0 <-> 1, and 2 -> 0 with nothing into 2
        pi = np.array([0.5, 0.5, 0.0])
        assert self._both_raise(cols, np.ones((1, 3)), pi) == "kernel is not irreducible"

    def test_davydov_kernel_makes_no_dense_matrix(self, monkeypatch):
        reads = []
        monkeypatch.setattr(FiniteKernel, "matrix", property(lambda self: reads.append(self)))
        chain = DavydovChain(2.5, 0.1, "f1", 4000)
        start = time.perf_counter()
        kernel, f = chain.kernel
        lrv = chain.long_run_variance(0)
        elapsed = time.perf_counter() - start
        assert reads == [] and kernel.size == 8001
        # f1 is a martingale difference: sigma^2 = c_0 = pi(1) + pi(-1)
        assert lrv["sigma2"] == pytest.approx(kernel.stationary @ f**2, rel=1e-14)
        assert elapsed < 1.0


class TestCenteringCache:
    """Each batch computes the function-of-linear centering constant from its
    own spec: specs that differ only in the innovation law or in
    centering_draws get their own constant, the same in any order."""

    RULE = staticmethod(lambda j: 0.5**j if j >= 0 else 0.0)

    def _spec(self, innovation="gaussian", draws=20_000):
        base = LinearProcess(self.RULE, InnovationLaw(innovation), truncation=24)
        return ProcessSpec(FunctionOfLinear(base, "abs_power", 1.0, 0.0, centering_draws=draws), seed=3)

    def test_specs_do_not_share_a_constant(self):
        specs = [self._spec(), self._spec("uniform"), self._spec(draws=30_000)]
        in_one_process = [partial_sums_batch(spec, (4, 16), 100).values(16) for spec in specs]
        for spec, got in zip(specs[::-1], in_one_process[::-1]):
            np.testing.assert_array_equal(got, partial_sums_batch(spec, (4, 16), 100).values(16))
        assert len({v.tobytes() for v in in_one_process}) == 3


# ---------------------------------------------------------------------------
# Per-step loops as they stood before the step tables were hoisted out of
# them, kept as references: the batch kernels must reproduce them bit for bit.


def _reference_density_draw(density, gen):
    x, v = density.x, density.values
    cdf = np.concatenate(([0.0], np.cumsum((v[1:] + v[:-1]) / 2.0 * np.diff(x))))
    cdf /= cdf[-1]
    return np.interp(gen.random(1), cdf, x)[0]


def _reference_dual_step(spec, x, u, density):
    if spec.kind == "gauss":
        m = np.ceil((1.0 + x) / (1.0 - u) - x - 1.0)
        m = np.maximum(m, 1.0)
        return 1.0 / (x + m)
    branches = _map_branches(spec)
    ys = np.empty((len(branches), x.size))
    ws = np.empty((len(branches), x.size))
    for i, (slope, off, lo, hi) in enumerate(branches):
        y = (x - off) / slope
        y = y - np.floor(y)
        valid = (y >= lo - 1e-12) & (y <= hi + 1e-12)
        y = np.clip(y, lo, hi)
        ys[i] = y
        ws[i] = np.where(valid, np.interp(y, density.x, density.values) / abs(slope), 0.0)
    cum = np.cumsum(ws, axis=0)
    cum /= cum[-1]
    pick = (u[None, :] > cum).sum(axis=0)
    return ys[pick, np.arange(x.size)]


def _reference_expanding_sums(spec, n_grid, seed, replicates, step_block=4096):
    density = invariant_density(spec)
    f = spec.f()
    mu_f = density.mean_of(f)
    m = len(replicates)
    n_top = n_grid[-1]
    marks = {n: col for col, n in enumerate(n_grid)}
    x = np.empty(m)
    gens = []
    for row, rep in enumerate(replicates):
        x[row] = _reference_density_draw(density, rngmod.stream(seed, rngmod.ROLE_INIT, rep, 0))
        gens.append(rngmod.stream(seed, rngmod.ROLE_STEP, rep, 0))
    out = np.empty((m, len(n_grid)))
    total = f(x) - mu_f
    if 1 in marks:
        out[:, marks[1]] = total
    is_dyadic = spec.kind == "beta" and abs(spec.beta - 2.0) < 1e-15
    for start in range(0, n_top - 1, step_block):
        block = min(step_block, n_top - 1 - start)
        u_steps = np.stack([g.random(block) for g in gens])
        for t in range(block):
            if is_dyadic:
                x = 0.5 * (x + (u_steps[:, t] < 0.5))
            else:
                x = _reference_dual_step(spec, x, u_steps[:, t], density)
            total += f(x) - mu_f
            n_done = start + t + 2
            if n_done in marks:
                out[:, marks[n_done]] = total / np.sqrt(n_done)
    return out


def _reference_davydov_sums(chain, n_grid, seed, replicates, step_block=4096):
    kernel, f = chain.kernel
    zero = index_of(kernel, 0)
    size = kernel.size
    up_prob = np.zeros(size)
    up_target = np.full(size, zero, dtype=int)
    for i, s in enumerate(kernel.states):
        if s == 0:
            continue
        nxt = s + 1 if s > 0 else s - 1
        if abs(nxt) <= kernel.states.max():
            j = index_of(kernel, nxt)
            up_prob[i] = kernel.matrix[i, j]
            up_target[i] = j
    cum_pi = np.cumsum(kernel.stationary)
    m = len(replicates)
    n_top = n_grid[-1]
    marks = {n: col for col, n in enumerate(n_grid)}
    idx = np.empty(m, dtype=int)
    gens = []
    for row, rep in enumerate(replicates):
        idx[row] = np.searchsorted(cum_pi, rngmod.stream(seed, rngmod.ROLE_INIT, rep, 0).random())
        gens.append(rngmod.stream(seed, rngmod.ROLE_STEP, rep, 0))
    out = np.empty((m, len(n_grid)))
    total = np.zeros(m)
    for start in range(0, n_top, step_block):
        block = min(step_block, n_top - start)
        u_steps = np.stack([g.random(block) for g in gens])
        for t in range(block):
            u = u_steps[:, t]
            at_zero = idx == zero
            nxt = np.where(u < up_prob[idx], up_target[idx], zero)
            nxt = np.where(at_zero, np.where(u < 0.5, zero + 1, zero - 1), nxt)
            idx = nxt
            total += f[idx]
            n_done = start + t + 1
            if n_done in marks:
                out[:, marks[n_done]] = total / np.sqrt(n_done)
    return out


def _reference_linear_path(fam, n_top, seed, rep):
    a = fam.coefficients()
    gen = rngmod.stream(seed, rngmod.ROLE_INNOVATION, rep, 0)
    eps = fam.innovation.sample(gen, n_top + 2 * fam.truncation)
    return np.convolve(eps, a[::-1], mode="valid")


def _reference_linear_sums(fam, n_grid, seed, replicates):
    # S_n = sum_m w_n[m] eps[m] with w_n the reversed window, zero-padded to
    # the longest draw, one replicate and one n at a time
    spill = 2 * fam.truncation
    out = np.empty((len(replicates), len(n_grid)))
    for row, rep in enumerate(replicates):
        eps = fam.innovation.sample(rngmod.stream(seed, rngmod.ROLE_INNOVATION, rep, 0), n_grid[-1] + spill)
        for col, n in enumerate(n_grid):
            w = np.zeros(eps.size)
            w[: n + spill] = fam.window(n)[::-1]
            out[row, col] = np.sum(w * eps) / np.sqrt(n)
    return out


def _reference_linear_path_sums(fam, n_grid, seed, replicates):
    # the cumulative sum of the convolved path
    marks = np.asarray(n_grid)
    out = np.empty((len(replicates), marks.size))
    for row, rep in enumerate(replicates):
        cs = np.cumsum(_reference_linear_path(fam, int(marks[-1]), seed, rep))
        out[row] = cs[marks - 1] / np.sqrt(marks)
    return out


def _reference_function_of_linear_sums(fam, n_grid, seed, replicates):
    center = _centering_constant(fam.base, fam.h(), seed, fam.centering_draws)[0]
    marks = np.asarray(n_grid)
    out = np.empty((len(replicates), marks.size))
    h = fam.h()
    for row, rep in enumerate(replicates):
        cs = np.cumsum(h(_reference_linear_path(fam.base, int(marks[-1]), seed, rep)) - center)
        out[row] = cs[marks - 1] / np.sqrt(marks)
    return out


def _reference_iid_sums(fam, n_grid, seed, replicates):
    marks = np.asarray(n_grid)
    out = np.empty((len(replicates), marks.size))
    for row, rep in enumerate(replicates):
        cs = np.cumsum(fam.law.sample(rngmod.stream(seed, rngmod.ROLE_INNOVATION, rep, 0), marks[-1]))
        out[row] = cs[marks - 1] / np.sqrt(marks)
    return out


_GEOMETRIC = LinearProcess(lambda j: 0.5**j if j >= 0 else 0.0, truncation=24)
_MAP_GRID = (1, 5, 16, 41)
_CHAIN_GRID = (8, 33, 41)
_REFERENCE_CASES = {
    "davydov-f1": (DavydovChain(2.5, 0.1, "f1", n_max=60), _CHAIN_GRID, _reference_davydov_sums),
    "davydov-f2": (DavydovChain(2.7, 0.3, "f2", n_max=60), _CHAIN_GRID, _reference_davydov_sums),
    "beta-2.5": (ExpandingMap("beta", beta=2.5), _MAP_GRID, _reference_expanding_sums),
    "gauss": (ExpandingMap("gauss"), _MAP_GRID, _reference_expanding_sums),
    "piecewise-affine": (
        ExpandingMap("piecewise_affine", breakpoints=(0.0, 0.4, 1.0), slopes=(2.5, 5.0 / 3.0), offsets=(0.0, -2.0 / 3.0)),
        _MAP_GRID,
        _reference_expanding_sums,
    ),
    "doubling": (ExpandingMap("beta", beta=2.0), _MAP_GRID, _reference_expanding_sums),
    "linear": (_GEOMETRIC, _CHAIN_GRID, _reference_linear_sums),
    "function-of-linear": (
        FunctionOfLinear(_GEOMETRIC, "abs_power", 1.0, 0.0, centering_draws=10**5),
        _CHAIN_GRID,
        _reference_function_of_linear_sums,
    ),
    "iid": (IIDBaseline(InnovationLaw("symmetric_pareto", q=3.0)), _CHAIN_GRID, _reference_iid_sums),
}


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestBatchKernelsMatchReference:
    """partial_sums_batch against the reference loops, bit for bit, under any
    replicate chunking and any step blocking."""

    M = 400
    SEED = 13

    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_bit_identical_under_chunking_and_blocking(self, case, monkeypatch):
        fam, n_grid, reference = _REFERENCE_CASES[case]
        expect = reference(fam, n_grid, self.SEED, range(self.M))
        settings = [(processes.REPLICATE_CHUNK, processes.STEP_BLOCK)]
        settings += [(chunk, processes.STEP_BLOCK) for chunk in (100, 333)]
        settings += [(processes.REPLICATE_CHUNK, block) for block in (1, 7, 4096)]
        for chunk, block in settings:
            monkeypatch.setattr(processes, "REPLICATE_CHUNK", chunk)
            monkeypatch.setattr(processes, "STEP_BLOCK", block)
            batch = partial_sums_batch(ProcessSpec(fam, seed=self.SEED), n_grid, self.M)
            for col, n in enumerate(n_grid):
                assert np.array_equal(_bits(batch.values(n)), _bits(expect[:, col])), (case, chunk, block, n)

    def test_reference_blocking_is_itself_invariant(self):
        # the old column-major loop read each stream in blocks too: a short
        # block gives the same doubles as one long draw
        chain = _REFERENCE_CASES["davydov-f1"][0]
        a = _reference_davydov_sums(chain, _CHAIN_GRID, 3, range(120))
        b = _reference_davydov_sums(chain, _CHAIN_GRID, 3, range(120), step_block=5)
        assert np.array_equal(a, b)


_DUAL_STEP_MAPS = {
    "beta-2.5": ExpandingMap("beta", beta=2.5),
    "beta-3.7": ExpandingMap("beta", beta=3.7),
    "beta-pi": ExpandingMap("beta", beta=math.pi),
    "piecewise-affine": _REFERENCE_CASES["piecewise-affine"][0],
    # the first branch's preimage of x = 1 is -0.0, which the fold turns into +0.0
    "signed-zero": ExpandingMap("piecewise_affine", breakpoints=(0.0, 0.5, 1.0), slopes=(-2.0, 2.0), offsets=(1.0, -1.0)),
}


@pytest.mark.parametrize("case", sorted(_DUAL_STEP_MAPS))
def test_dual_step_equals_reference_bitwise(case):
    """_dual_step with its cached branch table, whole branches and grid
    lookup against the per-step reference, over 1,023 steps of 300 states,
    each step also taking x = 0 and x = 1 with u = 0."""
    spec = _DUAL_STEP_MAPS[case]
    density = spec.density
    gen = np.random.default_rng(23)
    x = density.quantile(gen.random(300))
    edges = np.array([0.0, 1.0])
    for u in gen.random((1023, x.size)):
        xs, us = np.concatenate((x, edges)), np.concatenate((u, np.zeros(2)))
        got = processes._dual_step(spec, xs, us, density)
        assert np.array_equal(_bits(got), _bits(_reference_dual_step(spec, xs, us, density))), case
        x = got[:-2]


def test_whole_branches():
    """A branch is whole when the fold and the clip leave all its preimages
    as they are: not the partial last branch of a beta map, not a last
    branch whose preimage of x = 1 is 1.0 (the fold takes it to 0), and not
    a branch with a -0.0 end."""
    assert [b[-1] for b in ExpandingMap("beta", beta=2.5).branches] == [True, True, False]
    assert [b[-1] for b in ExpandingMap("beta", beta=3.0).branches] == [True, True, False]
    assert [b[-1] for b in _DUAL_STEP_MAPS["signed-zero"].branches] == [False, False]
    assert [b[:4] for b in _DUAL_STEP_MAPS["beta-pi"].branches] == _map_branches(_DUAL_STEP_MAPS["beta-pi"])


def _use_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


class _FailingFamily:
    """Zero sums, except that parts starting at or past `bad` raise."""

    def __init__(self, bad: int):
        self.bad = bad

    def batch_sums(self, seed: int):
        def chunk_sums(n_grid, seed, replicates):
            if replicates.start >= self.bad:
                raise ProcessError(f"part from replicate {replicates.start} failed")
            return np.zeros((len(replicates), len(n_grid)))

        return chunk_sums


class TestParallelParts:
    """partial_sums_batch splits the replicates over the CPUs it may run on:
    its own share in this process, the rest in forked workers."""

    M = 401  # prime: no part count divides it
    SEED = 13

    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_bit_identical_on_any_cpu_count(self, case, monkeypatch):
        fam, n_grid, reference = _REFERENCE_CASES[case]
        expect = reference(fam, n_grid, self.SEED, range(self.M))
        for chunk in (100, 333):
            monkeypatch.setattr(processes, "REPLICATE_CHUNK", chunk)
            for cpus in (1, 2, 3):
                _use_cpus(monkeypatch, cpus)
                batch = partial_sums_batch(ProcessSpec(fam, seed=self.SEED), n_grid, self.M)
                for col, n in enumerate(n_grid):
                    assert np.array_equal(_bits(batch.values(n)), _bits(expect[:, col])), (case, chunk, cpus, n)
        assert_no_child()

    @pytest.mark.parametrize("cpus, m", [(1, 5000), (2, 2048), (3, 100)])
    def test_one_worker_forks_nothing(self, cpus, m, monkeypatch):
        def no_fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        _use_cpus(monkeypatch, cpus)
        batch = partial_sums_batch(ProcessSpec(IIDBaseline(), seed=2), (4, 8), m)
        assert batch.values(8).shape == (m,)

    def test_worker_error_reraised_in_the_parent(self, monkeypatch):
        # 4 parts of 100 on 2 CPUs: this process runs replicates 0..199, the
        # worker the parts from 200 and 300, and the first to fail is 200
        monkeypatch.setattr(processes, "REPLICATE_CHUNK", 100)
        _use_cpus(monkeypatch, 2)
        with pytest.raises(ProcessError) as info:
            partial_sums_batch(ProcessSpec(_FailingFamily(bad=200), seed=1), (4, 8), 400)
        assert type(info.value) is ProcessError
        assert str(info.value) == "part from replicate 200 failed"
        assert_no_child()
        batch = partial_sums_batch(ProcessSpec(_FailingFamily(bad=400), seed=1), (4, 8), 400)
        assert not batch.values(8).any()
        assert_no_child()

    def test_cli_exit_code_same_on_any_cpu_count(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 3,
            "process": {"family": "davydov", "p": 2.5, "eps": 0.1, "n_max": 24},
            "simulate": {"n_grid": [8, 16], "replicates": 400},
        }))
        davydov_sums = processes._davydov_sums

        def failing(kernel, f, n_grid, seed, replicates):
            if replicates.start >= 200:
                raise ProcessError(f"part from replicate {replicates.start} failed")
            return davydov_sums(kernel, f, n_grid, seed, replicates)

        monkeypatch.setattr(processes, "_davydov_sums", failing)
        monkeypatch.setattr(processes, "REPLICATE_CHUNK", 100)
        outcomes = []
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / f"out{cpus}")])
            outcomes.append((code, capsys.readouterr().err))
            assert_no_child()
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 1 and "part from replicate 200 failed" in outcomes[0][1]


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail with TimeoutError, rather than hang, if the block outlasts seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestPartPipes:
    """run_parts' failure paths on 2 CPUs: this process computes parts 0..1,
    one forked worker parts 2..3 and sends them down its pipe."""

    PARTS = [(i,) for i in range(4)]

    def test_killed_worker_raises_process_error(self, monkeypatch):
        def part(i):
            if i == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        _use_cpus(monkeypatch, 2)
        with _deadline(30), pytest.raises(ProcessError) as info:
            processes.run_parts(part, self.PARTS)
        assert type(info.value) is ProcessError
        assert str(info.value) == "parts 2..3: no result, ended by signal 9"
        assert_no_child()

    def test_unpicklable_exception_arrives_as_its_repr(self, monkeypatch):
        def part(i):
            if i == 2:
                raise ValueError("part 2 failed", lambda: None)
            return i

        _use_cpus(monkeypatch, 2)
        with _deadline(30), pytest.raises(ProcessError) as info:
            processes.run_parts(part, self.PARTS)
        assert str(info.value).startswith("parts 2..3: cannot pickle ValueError('part 2 failed', <function ")
        assert_no_child()

    @pytest.mark.parametrize("busy", [False, True], ids=["blocked-in-its-write", "still-computing"])
    def test_own_share_error_ends_a_worker_holding_a_large_result(self, busy, monkeypatch):
        # each of the worker's 2 MB results outgrows the pipe's buffer: with
        # busy it holds part 2's while part 3 runs for a minute, otherwise
        # it blocks in its write until it is read or killed
        def part(i):
            if i == 0:
                raise ValueError("own share failed")
            if busy and i == 3:
                time.sleep(60)
            return np.zeros(2**18)

        _use_cpus(monkeypatch, 2)
        with _deadline(30):
            with pytest.raises(ValueError, match="own share failed"):
                processes.run_parts(part, self.PARTS)
            assert_no_child()
            # with no error, the 2 MB results come back whole
            results = processes.run_parts(lambda i: np.full(2**18, float(i)), self.PARTS)
        assert [r.shape + (r[0], r[-1]) for r in results] == [(2**18, float(i), float(i)) for i in range(4)]
        assert_no_child()


class TestLinearWindowSums:
    """Linear partial sums come from the window weights, not the path."""

    TWO_SIDED = LinearProcess(lambda j: 0.6**j if j >= 0 else 0.3 * 0.5 ** (-j), truncation=40)

    def test_matches_path_cumsum(self):
        grid = (8, 100, 1000, 4096)
        batch = partial_sums_batch(ProcessSpec(self.TWO_SIDED, seed=4), grid, 200)
        expect = _reference_linear_path_sums(self.TWO_SIDED, grid, 4, range(200))
        for col, n in enumerate(grid):
            assert np.max(np.abs(batch.values(n) - expect[:, col])) <= 1e-13

    def test_within_rounding_of_the_exact_sum(self):
        # err_n = |computed S_n - exact S_n| / sum_m |w_n[m] eps[m]| with
        # exact rational arithmetic. Each replicate is within 4 units of
        # rounding; from n = 256 the RMS over replicates is below 2e-17,
        # where the cumulative sum of the path is at 4e-17 to 6e-17. The grid
        # points are powers of 4, so sqrt(n) is a power of two and
        # value * sqrt(n) is the computed S_n exactly.
        grid, reps = (16, 64, 256, 1024, 4096), 16
        fam = self.TWO_SIDED
        batch = partial_sums_batch(ProcessSpec(fam, seed=9), grid, 100)
        draws = [fam.innovation.sample(rngmod.stream(9, rngmod.ROLE_INNOVATION, rep, 0), grid[-1] + 80)
                 for rep in range(reps)]
        for n in grid:
            w = fam.window(n)[::-1].tolist()
            err = []
            for rep, eps in enumerate(draws):
                terms = [Fraction(x) * Fraction(e) for x, e in zip(w, eps.tolist())]
                got = Fraction(float(batch.values(n)[rep] * np.sqrt(n)))
                err.append(float(abs(got - sum(terms)) / sum(abs(t) for t in terms)))
            assert max(err) <= 4 * 2.0**-53, n
            if n >= 256:
                assert math.sqrt(np.mean(np.square(err))) <= 2e-17, n

    def test_orientation_of_the_sampler(self):
        # causal a = (1, 1/2, 1/4, 1/8) on eps = 1, 2, ...: the sampler reads
        # X_k = sum_j a_j eps_{k+j} (8.875 at k = 1), not eps_{k-j} (6.125),
        # which is why the window weights are reversed
        class Counting:
            def standard_normal(self, size):
                return np.arange(1.0, size + 1.0)

        lp = LinearProcess(lambda j: 0.5**j if 0 <= j <= 3 else 0.0, truncation=3)
        x = processes._linear_path_values(lp.coefficients(), lp.innovation, 10, Counting())
        eps = np.arange(1.0, 17.0)  # eps_m sits at index m + 2
        assert x[0] == 8.875
        assert np.array_equal(x, [sum(0.5**j * eps[k + 2 + j] for j in range(4)) for k in range(1, 11)])
        for n in (1, 4, 10):
            assert np.sum(lp.window(n)[::-1] * eps[: n + 6]) == x[:n].sum()
            assert np.sum(lp.window(n) * eps[: n + 6]) != x[:n].sum()


class TestDavydovStepTables:
    """The sampler steps along the kernel's own rows, built once per chain."""

    @staticmethod
    def _from_dense_kernel(chain):
        kernel, _ = chain.kernel
        zero = index_of(kernel, 0)
        n_max = int(kernel.states.max())
        threshold = np.zeros(kernel.size)
        up = np.full(kernel.size, zero)
        down = np.full(kernel.size, zero)
        for i, s in enumerate(kernel.states):
            if 0 < abs(s) < n_max:
                j = i + 1 if s > 0 else i - 1
                threshold[i], up[i] = kernel.matrix[i, j], j
        threshold[zero], up[zero], down[zero] = 0.5, zero + 1, zero - 1
        return np.cumsum(kernel.stationary), threshold, np.column_stack((up, down)).ravel()

    @pytest.mark.parametrize("functional", ["f1", "f2"])
    @pytest.mark.parametrize("p, eps, n_max", [(2.5, 0.1, 60), (2.7, 0.3, 400), (3.0, 0.5, 4)])
    def test_equal_to_dense_kernel_tables(self, p, eps, n_max, functional):
        # _davydov_sums reads its tables from the rows: below slot 0's weight
        # it steps to slot 0's target, else to slot 1's
        chain = DavydovChain(p, eps, functional, n_max)
        kernel, _ = chain.kernel
        got = np.cumsum(kernel.stationary), kernel.weights[0], kernel.cols.T.ravel()
        want = self._from_dense_kernel(chain)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g.view(np.int64), w.view(np.int64))

    def test_schedule_errors_and_warning_from_the_shared_helper(self):
        with pytest.raises(ProcessError, match="a_0 must equal 1/2"):
            renewal_kernel(np.full(40, 0.6), "f2")
        with pytest.raises(ProcessError, match="1/2 <= a_n < 1"):
            renewal_kernel(np.r_[0.5, np.full(39, 0.4)], "f2")
        with pytest.warns(RuntimeWarning, match="not visibly summable"):
            renewal_kernel(np.r_[0.5, np.full(39, 0.99)], "f2")

    def test_crossover_scanned_once_per_schedule(self, monkeypatch):
        calls = []
        scan = processes._schedule_crossover
        monkeypatch.setattr(processes, "_schedule_crossover", lambda p, eps: calls.append(p) or scan(p, eps))
        chain = DavydovChain(2.5, 0.1, "f1", 10**5)
        start = time.perf_counter()
        chain.batch_sums(0)
        elapsed = time.perf_counter() - start
        assert calls == [2.5]
        assert elapsed < 1.0

    def test_one_build_per_chain_object(self, monkeypatch):
        calls = []
        build = processes.renewal_kernel
        monkeypatch.setattr(processes, "renewal_kernel", lambda a, kind: calls.append(kind) or build(a, kind))
        chain = DavydovChain(2.6, 0.2, "f2", 90)
        partial_sums_batch(ProcessSpec(chain, seed=1), (8, 64), 100)
        chain.long_run_variance(0)
        assert chain.kernel is chain.kernel and calls == ["f2"]
        # an equal chain is another object, with a kernel of its own
        assert DavydovChain(2.6, 0.2, "f2", 90).kernel[0] is not chain.kernel[0] and calls == ["f2", "f2"]

    def test_batch_builds_no_dense_kernel(self, monkeypatch):
        reads = []
        monkeypatch.setattr(FiniteKernel, "matrix", property(lambda self: reads.append(self)))
        partial_sums_batch(ProcessSpec(DavydovChain(2.6, 0.2, "f2", 90), seed=1), (8, 64), 100)
        assert reads == []


class TestStepBufferMemory:
    """A batch holds one reused block of step-major uniforms. The ceiling is
    fixed, not derived from STEP_BLOCK, so it guards the block size too."""

    CEILING = 7 * 2**20  # traced peak of one 2,048-replicate batch

    @pytest.mark.parametrize(
        "fam",
        [DavydovChain(2.5, 0.1, "f1", 400), ExpandingMap("beta", beta=2.5), ExpandingMap("beta", beta=2.0)],
        ids=["davydov", "beta-2.5", "doubling"],
    )
    def test_traced_peak(self, fam):
        spec = ProcessSpec(fam)
        partial_sums_batch(spec, (4, 8), 100)  # build the cached tables outside the trace
        tracemalloc.start()
        try:
            partial_sums_batch(spec, (512, 2048), 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.CEILING


class TestDensityGridInterpolation:
    """DensityGrid.at indexes the uniform grid directly; it must equal
    np.interp bit for bit on [0, 1]."""

    @pytest.mark.parametrize("grid_size", [4096, 1024, 8, 1])
    def test_equals_np_interp(self, grid_size):
        gen = np.random.default_rng(grid_size)
        x = np.linspace(0.0, 1.0, grid_size + 1)
        values = gen.random(x.size) * 3.0
        values[gen.integers(0, x.size)] = 0.0
        grid = DensityGrid(x, values)
        pts = np.concatenate(
            (
                gen.random(20000),
                x,
                np.nextafter(x, -np.inf)[1:],
                np.nextafter(x, np.inf)[:-1],
                [0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0)],
            )
        )
        assert np.array_equal(_bits(grid.at(pts)), _bits(np.interp(pts, x, values)))

    def test_invariant_density_of_beta_map(self):
        d = invariant_density(ExpandingMap("beta", beta=2.5))
        pts = np.concatenate((np.random.default_rng(1).random(50000), d.x, [0.0, 1.0]))
        assert np.array_equal(_bits(d.at(pts)), _bits(np.interp(pts, d.x, d.values)))

    def test_quantile_matches_trapezoid_cdf(self):
        d = invariant_density(ExpandingMap("beta", beta=2.5))
        gen_a, gen_b = np.random.default_rng(4), np.random.default_rng(4)
        draws = list(d.quantile(gen_a.random(50)))
        assert draws == [_reference_density_draw(d, gen_b) for _ in range(50)]

    def test_rejects_non_uniform_grid(self):
        with pytest.raises(ProcessError):
            DensityGrid(np.array([0.0, 0.3, 1.0]), np.ones(3))
        # a uniform grid whose cell count is not a power of two
        with pytest.raises(ProcessError):
            DensityGrid(np.linspace(0.0, 1.0, 1001), np.ones(1001))
