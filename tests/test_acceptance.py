"""Acceptance gate: exact-oracle equivalence for the distance estimators and
upper-bound-consistency of the measured decay curves, with runtime budgets.

The asymptotic statements being checked are O(.) upper bounds, so the curve
criteria assert consistency (bounded, trend-free ratios against the predicted
guide) rather than exact exponent recovery.  Monte Carlo criteria pin their
seeds: at M = 10^4 the replicate noise of a fitted slope is of the same order
as the tolerances below, so the assertions are exact reproductions of audited
runs rather than statements that hold for every seed.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.stats import norm

from cltlab.dependence import (
    DependenceError,
    PowerQuantile,
    alpha1_exact,
    an_bn,
    check_covariance_inequality,
    coboundary,
    envelope_contraction_check,
    phi_coeff,
    series_condalpha1,
)
from cltlab.experiments import ExperimentPlan, calibration_floor, run_experiment
from cltlab.metrics import (
    EmpiricalDistribution,
    GaussianLaw,
    GridFunction,
    smoothing_lemma_check,
    wasserstein_samples,
    wasserstein_vs_gaussian,
    zolotarev,
)
from cltlab.processes import (
    DavydovChain,
    ExpandingMap,
    IIDBaseline,
    InnovationLaw,
    LinearProcess,
    ProcessSpec,
    transfer_duality_residual,
)
from oracles import _solve_stationary, alpha1_bruteforce, dense_kernel, index_of, phi1_bruteforce

GEOM_HALF = lambda j: 0.5**j if j >= 0 else 0.0


def random_kernel(rng, size):
    k = rng.random((size, size)) ** 2 + 0.02
    k /= k.sum(axis=1, keepdims=True)
    pi = _solve_stationary(k)
    return dense_kernel(np.arange(size), k, pi)


# ---------------------------------------------------------------------------
# 1. assignment-oracle equivalence


def test_01_assignment_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    r_values = (0.5, 1.0, 1.5, 2.0, 2.5)
    for case in range(200):
        r = r_values[case % len(r_values)]
        m = int(rng.integers(2, 8))
        xs = np.sort(rng.uniform(-3, 3, size=m))
        ys = np.sort(rng.uniform(-3, 3, size=m))
        est = wasserstein_samples(EmpiricalDistribution(xs), EmpiricalDistribution(ys), r)
        best = min(
            float(np.mean(np.abs(xs - ys[list(perm)]) ** r))
            for perm in itertools.permutations(range(m))
        )
        oracle = best ** (1.0 / r) if r >= 1.0 else best
        assert abs(est.value - oracle) <= 1e-10
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 2. Gaussian closed form


def test_02_gaussian_closed_form():
    start = time.monotonic()
    m = 10**6
    u = (np.arange(m) + 0.5) / m
    emp = EmpiricalDistribution(2.0 * norm.ppf(u))  # quantile grid of N(0, 4)
    g = GaussianLaw(1.0)
    # W_r(N(0, 4), N(0, 1)) = |2 - 1| (E|Y|^r)^{1/r} by quantile scaling
    expected = {1.0: float(np.sqrt(2.0 / np.pi)), 2.0: 1.0}
    for r, want in expected.items():
        got = wasserstein_vs_gaussian(emp, g, r).value
        assert abs(got - want) <= 1e-4
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 3. identity of the smooth-class and coupling distances at low order


def test_03_low_order_identity():
    rng = np.random.default_rng(103)
    r_values = (0.25, 0.5, 0.75, 1.0)
    for case in range(100):
        r = r_values[case % len(r_values)]
        x = EmpiricalDistribution(rng.normal(size=int(rng.integers(3, 30))))
        y = EmpiricalDistribution(rng.normal(size=int(rng.integers(3, 30))))
        z = zolotarev(x, y, r)
        w = wasserstein_samples(x, y, r)
        assert z.value == w.value  # exact equality by construction


# ---------------------------------------------------------------------------
# 4. null-model floor


def test_04_null_model_floor():
    start = time.monotonic()
    plan = ExperimentPlan(
        ProcessSpec(IIDBaseline(InnovationLaw("gaussian")), seed=2), p=3.0, r_list=(1.0,),
        n_grid=tuple(2**k for k in range(6, 13)), m=10**4,
    )
    res = run_experiment(plan)
    floor = calibration_floor(10**4, 1.0)["mean"]
    for pt in res.points:
        assert pt["value"] <= 2.0 * floor
        assert pt["value"] >= floor / 2.0
    # every point sits at the floor, so the informational unfiltered fit is
    # the fitted slope of the curve
    assert abs(res.fits[1.0]["slope_unfiltered"]) < 0.05
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# 5. heavy-tailed independent baseline rate


def test_05_heavy_tail_rate():
    start = time.monotonic()
    plan = ExperimentPlan(
        ProcessSpec(IIDBaseline(InnovationLaw("symmetric_pareto", q=2.5)), seed=7), p=2.5,
        r_list=(0.5, 1.0), n_grid=tuple(2**k for k in range(6, 15)), m=10**4,
    )
    res = run_experiment(plan)
    fit = res.fits[1.0]
    assert fit["theoretical_w_exp"] == -0.25
    assert fit["verdict"] == "upper-bound-consistent"
    assert fit["consistency_basis"] == "measured"
    assert fit["stable"] is True  # Spearman(ratio, n) < 0.5
    assert np.isfinite(fit["C_star"])
    assert time.monotonic() - start < 600.0


# ---------------------------------------------------------------------------
# 6. drift-to-zero chain with a martingale-difference observable


def test_06_drift_chain_rates_and_condition():
    start = time.monotonic()
    chain = DavydovChain(2.5, 0.1, "f1", n_max=400)
    plan = ExperimentPlan(
        ProcessSpec(chain, seed=3), p=2.5, r_list=(1.0, 2.5),
        n_grid=tuple(2**k for k in range(6, 15)), m=10**4, target="sigma_n2",
    )
    res = run_experiment(plan)
    assert res.fits[1.0]["theoretical_w_exp"] == -0.25
    assert res.fits[1.0]["verdict"] == "upper-bound-consistent"
    assert res.fits[2.5]["theoretical_w_exp"] == pytest.approx(-0.1)
    assert res.fits[2.5]["verdict"] == "upper-bound-consistent"
    # the mixing-rate series for this schedule converges: alpha_1(k) decays
    # like k^{1 - p/2} (log k)^{-p/2 - eps} and the observable is bounded
    kernel, _ = chain.kernel
    q1 = float(kernel.stationary[index_of(kernel, 1)] + kernel.stationary[index_of(kernel, -1)])
    q_func = PowerQuantile(0.0, support=q1)  # Q(u) = 1 for u < q1, else 0
    alpha = [0.25] + [
        min(0.25, k**-0.25 * np.log(k) ** -1.35) for k in range(2, 61)
    ]
    reports = series_condalpha1(q_func, alpha, 2.5)
    assert reports["log_weighted"].verdict == "converged"
    assert reports["p_norm"].verdict == "converged"
    assert time.monotonic() - start < 900.0


# ---------------------------------------------------------------------------
# 7. exact mixing-coefficient oracles


def test_07_exact_mixing_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(107)
    for case in range(50):
        kernel = random_kernel(rng, int(rng.integers(2, 10)))
        n = int(rng.integers(1, 4))
        a = alpha1_exact(kernel, n)
        assert a["method"] == "exact"
        assert abs(a["value"] - alpha1_bruteforce(kernel, n)) <= 1e-12
        p = phi_coeff(kernel, n, k=1)
        assert abs(p["value"] - phi1_bruteforce(kernel, n)) <= 1e-12
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 8. covariance inequalities, exact both sides


def test_08_covariance_inequalities():
    start = time.monotonic()
    kernel, _ = DavydovChain(2.5, 0.1, "f1", n_max=24).kernel
    rng = np.random.default_rng(108)
    for _ in range(500):
        k = int(rng.integers(2, 4))
        f_list = [rng.normal(size=kernel.size) for _ in range(k)]
        t_list = list(np.sort(rng.choice(np.arange(1, 13), size=k, replace=False)))
        res = check_covariance_inequality(kernel, f_list, t_list)
        assert res["ok"], f"violation at lags {t_list}: {res['lhs']} vs {res['rhs_forms']}"
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# 9. martingale-plus-boundary split of a linear process


def test_09_partial_sum_split_residual():
    start = time.monotonic()
    dec = coboundary(LinearProcess(GEOM_HALF, InnovationLaw("gaussian"), truncation=64))
    worst = max(
        dec.identity_check(2**10, seed=9, tolerance=1e-8, replicate=rep)["max_residual"] for rep in range(100)
    )
    assert worst <= 1e-8
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 10. window sums A_n and B_n


def test_10_window_sum_bound_and_boundedness():
    start = time.monotonic()
    rng = np.random.default_rng(110)
    for _ in range(100):
        kind = rng.integers(0, 3)
        if kind == 0:
            rho, s = float(rng.uniform(0.2, 0.9)), float(rng.uniform(0.5, 2.0))
            rule = lambda j, rho=rho, s=s: s * rho**j if j >= 0 else 0.0
        elif kind == 1:
            e, s = float(rng.uniform(-3.0, -1.1)), float(rng.uniform(0.5, 2.0))
            rule = lambda j, e=e, s=s: s * float(j) ** e if j >= 1 else (s if j == 0 else 0.0)
        else:
            table = {int(l): float(c) for l, c in
                     zip(rng.integers(-6, 7, size=5), rng.normal(size=5))}
            rule = lambda j, t=table: t.get(j, 0.0)
        res = an_bn(rule, int(rng.integers(8, 513)))
        assert res["A_n"] <= 4.0 * res["B_n"] * (1.0 + 1e-12)
    # summable two-sided tails keep A_n monotone and bounded by its limit
    rho = 0.5
    # [DERIVED] boundary block sum_{j<=0}(A rho^{1-j})^2 and interior block
    # sum_{1<=j<=n}(A rho^{n-j+1})^2 each tend to A^2 rho^2/(1-rho^2)
    limit = 2.0 * rho**2 / ((1.0 - rho) ** 2 * (1.0 - rho**2))
    values = [an_bn(GEOM_HALF, 2**k)["A_n"] for k in range(4, 17)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] <= limit + 1e-9
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 11. Gaussian smoothing inequality


def test_11_smoothing_suite():
    start = time.monotonic()
    cases = []
    for r in (0.5, 1.0, 1.5, 2.0, 2.5):
        for p in (r, 2.0, 2.5, 3.0):  # p = r exercises the c_{r,r} = 1 boundary
            if p < r or (r, p) in {c[:2] for c in cases}:
                continue
            for t in (0.1, 0.25, 0.5):
                cases.append((r, p, t))
    assert len(cases) >= 50
    # |x|^r has finite source seminorm of order r for every r in (0, 3]
    functions = {
        r: GridFunction.from_callable(lambda x, r=r: np.abs(x) ** r, n=2**12 + 1)
        for r in (0.5, 1.0, 1.5, 2.0, 2.5)
    }
    for r, f in functions.items():
        own = [case for case in cases if case[0] == r]
        for (_, p, t), res in zip(own, smoothing_lemma_check(f, own)):
            if p == r:
                assert res["constant"] == 1.0
            assert res["ok"], (r, p, t, res)
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 12. conditional expectation contracts the envelope norm


def test_12_envelope_contraction():
    kernel, _ = DavydovChain(2.5, 0.1, "f1", n_max=24).kernel
    rng = np.random.default_rng(112)
    for _ in range(100):
        g = rng.normal(size=(kernel.size, kernel.size))
        p = float(rng.uniform(1.0, 3.0))
        if p < 2.0:
            # the envelope weight increases below p = 2, where conditioning
            # can expand the norm; the check rejects such p
            with pytest.raises(DependenceError):
                envelope_contraction_check(kernel, g, p, 1e-9)
            continue
        res = envelope_contraction_check(kernel, g, p, 1e-9)
        assert res["lhs"] <= res["rhs"] * (1.0 + 1e-9) + 1e-9


# ---------------------------------------------------------------------------
# 13. transfer-operator duality


def test_13_transfer_duality():
    spec = ExpandingMap("beta", beta=2.0)
    for dh in range(6):
        for df in range(6):
            resid = transfer_duality_residual(spec, lambda x, d=dh: x**d, lambda x, d=df: x**d)
            assert resid < 1e-8


# ---------------------------------------------------------------------------
# 14. doubling-map rate with the logarithmic factor


def test_14_doubling_map_rate():
    start = time.monotonic()
    spec = ProcessSpec(ExpandingMap("beta", beta=2.0, observable="identity"), seed=11)
    plan = ExperimentPlan(spec, p=3.0, r_list=(1.0,), n_grid=tuple(2**k for k in range(6, 14)), m=10**4)
    res = run_experiment(plan)
    fit = res.fits[1.0]
    assert fit["log_factor"] is True
    assert fit["theoretical_w_exp"] == -0.5
    assert fit["verdict"] == "upper-bound-consistent"
    # the log-augmented fit is always reported alongside the plain power law
    log_fit = fit["log_fit_unfiltered"]
    assert {"slope", "log_coef", "rss", "rss_plain"} <= set(log_fit)
    assert time.monotonic() - start < 600.0
