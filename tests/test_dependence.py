"""Tests for dependence coefficients, covariance inequalities, condition
series, and the coboundary decomposition."""

import itertools
import tracemalloc

import numpy as np
import pytest

from cltlab import dependence
from cltlab import rng as rngmod
from cltlab.dependence import (
    ConditionReport,
    DependenceError,
    FiniteLaw,
    PowerQuantile,
    alpha1_exact,
    an_bn,
    check_covariance_inequality,
    coboundary,
    covariance_product_bound,
    envelope_contraction_check,
    phi_coeff,
    series_C1_C2,
    series_condalpha1,
    series_condphi,
    series_projective,
)
from cltlab.metrics import envelope_norm_discrete
from cltlab.processes import (
    DavydovChain,
    InnovationLaw,
    IIDBaseline,
    LinearProcess,
    ProcessSpec,
    second_moments,
)
from oracles import _solve_stationary, alpha1_bruteforce, dense_kernel, phi1_bruteforce


def random_kernel(rng, size):
    k = rng.random((size, size)) ** 2 + 0.02
    k /= k.sum(axis=1, keepdims=True)
    pi = _solve_stationary(k)
    return dense_kernel(np.arange(size, dtype=float), k, pi)


def product_kernel(pi):
    k = np.tile(pi, (pi.size, 1))
    return dense_kernel(np.arange(pi.size, dtype=float), k, pi)


THREE_STATE = np.array([[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]])


def three_state_kernel():
    pi = _solve_stationary(THREE_STATE)
    return dense_kernel(np.array([0.0, 1.0, 2.0]), THREE_STATE, pi)


# ---------------------------------------------------------------------------
# alpha and phi coefficients


def test_alpha1_matches_bruteforce_small_chains():
    rng = np.random.default_rng(11)
    for _ in range(10):
        ker = random_kernel(rng, int(rng.integers(2, 6)))
        for n in (1, 2, 3):
            res = alpha1_exact(ker, n)
            assert res["method"] == "exact"
            # [DERIVED] oracle: literal sup over all 2^S x 2^S event pairs
            assert abs(res["value"] - alpha1_bruteforce(ker, n)) < 1e-12


def test_alpha1_two_state_frozen():
    k = np.array([[0.9, 0.1], [0.2, 0.8]])
    ker = dense_kernel(np.array([0.0, 1.0]), k, _solve_stationary(k))
    # [DERIVED] pi = (2/3, 1/3); D = diag(pi) K - pi pi^T has positive part
    # pi0 pi1 (K00 - K10) = (2/9) * 0.7
    assert abs(alpha1_exact(ker, 1)["value"] - (2.0 / 9.0) * 0.7) < 1e-14


def test_alpha1_independent_product_is_zero():
    ker = product_kernel(np.array([0.2, 0.5, 0.3]))
    assert alpha1_exact(ker, 1)["value"] < 1e-15  # [TRIVIAL]


def test_alpha1_large_chain_brackets_truth():
    rng = np.random.default_rng(3)
    ker = random_kernel(rng, 30)
    res = alpha1_exact(ker, 1)
    assert res["method"] == "lower-heuristic"
    assert 0.0 <= res["lower"] <= res["upper"]


def test_alpha1_rejects_bad_n():
    with pytest.raises(DependenceError):
        alpha1_exact(three_state_kernel(), 0)


def test_phi1_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(8):
        ker = random_kernel(rng, int(rng.integers(2, 7)))
        for n in (1, 2, 4):
            res = phi_coeff(ker, n, k=1)
            assert res["method"] == "exact"
            assert abs(res["value"] - phi1_bruteforce(ker, n)) < 1e-13


def test_phi_monotone_and_ordered():
    ker = three_state_kernel()
    p1 = [phi_coeff(ker, n, k=1)["value"] for n in (1, 2, 3, 4)]
    assert np.all(np.diff(p1) <= 1e-15)
    for n in (1, 2):
        assert phi_coeff(ker, n, k=2)["value"] >= p1[n - 1] - 1e-15


def test_phi2_bruteforce_pair_enumeration():
    # [DERIVED] direct sup over starting state, both thresholds, and gaps
    ker = three_state_kernel()
    k, pi = ker.matrix, ker.stationary
    f = ker.states
    best = 0.0
    for n in (1,):
        kn = np.linalg.matrix_power(k, n)
        for d in range(1, 30):
            kd = np.linalg.matrix_power(k, d)
            for x1 in f:
                g1 = (f <= x1) - float(pi @ (f <= x1))
                for x2 in f:
                    g2 = (f <= x2) - float(pi @ (f <= x2))
                    prod = g1 * (kd @ g2)
                    gap = kn @ prod - float(pi @ prod)
                    best = max(best, float(np.abs(gap).max()))
    best = max(best, phi1_bruteforce(ker, 1))  # the l = 1 term of the max
    res = phi_coeff(ker, 1, k=2, gap_cap=40)
    assert res["method"] == "exact"
    assert abs(res["value"] - best) < 1e-13


def test_phi_zero_for_independent_product():
    ker = product_kernel(np.array([0.4, 0.6]))
    assert phi_coeff(ker, 1, k=2)["value"] < 1e-15  # [TRIVIAL]


def test_dependence_profile_invariants():
    # alpha_1, phi_1 and phi_2 lie in [0, 1], phi_1 <= phi_2, and the exact
    # entries do not increase with the lead time n
    rng = np.random.default_rng(2)
    ker = random_kernel(rng, 5)
    alpha = [alpha1_exact(ker, n) for n in (1, 2, 4)]
    phi1 = [phi_coeff(ker, n, k=1, gap_cap=30) for n in (1, 2, 4)]
    phi2 = [phi_coeff(ker, n, k=2, gap_cap=30) for n in (1, 2, 4)]
    for series in (alpha, phi1, phi2):
        assert [res["method"] for res in series] == ["exact"] * 3
        values = np.array([res["value"] for res in series])
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert np.all(np.diff(values) <= 1e-12)
    assert all(a["value"] <= b["value"] + 1e-12 for a, b in zip(phi1, phi2))


# ---------------------------------------------------------------------------
# conditional second moments


def test_conditional_second_moment_path_enumeration():
    # [DERIVED] oracle: exact sum over all state paths of length 4
    ker = three_state_kernel()
    f = np.array([1.0, -1.0, 0.5])
    n = 4
    k = ker.matrix
    got = list(second_moments(ker.apply, f, n))[-1]
    for s in range(3):
        total = 0.0
        for path in np.ndindex(*(3,) * n):
            prob = 1.0
            prev = s
            ssum = 0.0
            for st in path:
                prob *= k[prev, st]
                ssum += f[st]
                prev = st
            total += prob * ssum**2
        assert abs(got[s] - total) < 1e-12


def test_conditional_second_moment_one_step():
    ker = three_state_kernel()
    f = np.array([2.0, 0.0, -1.0])
    assert np.allclose(next(second_moments(ker.apply, f, 1)), ker.apply(f * f))  # [TRIVIAL]


# ---------------------------------------------------------------------------
# covariance inequalities


def test_product_bound_rademacher_tight():
    # [DERIVED] by hand: for X1 = X2 = Rademacher and phi = 1, D(u) = 2 on
    # (0, 1/2) so the D-form is 2; Q = 1 on (0, 1) so the Q-form is 4; the
    # Holder form is 4; all dominate |E X1 X2| = 1
    law = FiniteLaw(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    out = covariance_product_bound([law, law], [1.0, 1.0], p_list=[2.0, 2.0])
    assert abs(out["d_form"] - 2.0) < 1e-14
    assert abs(out["q_form"] - 4.0) < 1e-14
    assert abs(out["holder_form"] - 4.0) < 1e-14


def test_product_bound_zero_phi():
    law = FiniteLaw(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    out = covariance_product_bound([law, law], [0.0, 1.0])
    assert out["d_form"] == 0.0 and out["q_form"] == 0.0  # [TRIVIAL]


def test_product_bound_rejects_bad_holder():
    law = FiniteLaw(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(DependenceError):
        covariance_product_bound([law, law], [0.5, 0.5], p_list=[2.0, 3.0])


def test_covariance_inequality_random_configs():
    rng = np.random.default_rng(17)
    for _ in range(40):
        size = int(rng.integers(2, 6))
        ker = random_kernel(rng, size)
        k = int(rng.integers(2, 4))
        fs = [np.round(rng.normal(size=size), 2) for _ in range(k)]
        ts = np.cumsum(rng.integers(1, 4, size=k)).tolist()
        res = check_covariance_inequality(ker, fs, ts)
        assert res["ok"], res


def _phi_i_loop(kernel, f_list, t_list, i):
    """Reference phi^{(i)}: one forward and one backward pass per threshold
    combination, with the kernel powers recomputed each time."""
    pi = kernel.stationary
    kmat = kernel.matrix
    rev = (kmat * pi[:, None]).T / pi[:, None]
    kcount = len(f_list)
    fvals = [np.asarray(fj, dtype=float) for fj in f_list]
    h_sets = []
    for fv in fvals:
        ind = (fv[:, None] > np.unique(fv)[None, :]).astype(float)
        h_sets.append(ind - (pi @ ind)[None, :])
    others = [j for j in range(kcount) if j != i]
    combos = [()]
    for j in others:
        combos = [c + (t,) for c in combos for t in range(h_sets[j].shape[1])]
    _, group_idx = np.unique(fvals[i], return_inverse=True)
    ngroups = group_idx.max() + 1
    group_pi = np.zeros(ngroups)
    np.add.at(group_pi, group_idx, pi)
    best = 0.0
    for combo in combos:
        h = {j: h_sets[j][:, combo[pos]] for pos, j in enumerate(others)}
        fw = np.ones(kernel.size)
        for j in range(kcount - 1, i, -1):
            fw = np.linalg.matrix_power(kmat, t_list[j] - t_list[j - 1]) @ (h[j] * fw)
        w = None
        for j in range(0, i):
            w = h[j] if w is None else h[j] * w
            w = np.linalg.matrix_power(rev, t_list[j + 1] - t_list[j]) @ w
        bw = np.ones(kernel.size) if w is None else w
        g_cond = bw * fw
        g_mean = float(pi @ g_cond)
        cond_atoms = np.zeros(ngroups)
        np.add.at(cond_atoms, group_idx, pi * g_cond)
        cond_atoms /= group_pi
        best = max(best, float(np.abs(cond_atoms - g_mean).max()))
    return best


def _assert_phis_match_loop(ker, fs, ts):
    powers = dependence._lag_powers(ker, ts)
    h_sets = dependence._centered_thresholds(ker.stationary, fs)
    for i in range(len(fs)):
        got = dependence._phi_i_exact(ker, fs, h_sets, i, powers, dependence.PhiWorkspace())
        want = _phi_i_loop(ker, fs, ts, i)
        assert abs(got - want) <= 1e-12 * want + 1e-15, (i, got, want)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_phi_i_matches_loop_on_random_chains(k):
    rng = np.random.default_rng(40 + k)
    for _ in range(6):
        size = int(rng.integers(2, 7))
        ker = random_kernel(rng, size)
        # few distinct values: atoms of sigma(X_i) hold several states
        fs = [rng.integers(-2, 2, size=size).astype(float) for _ in range(k)]
        ts = np.cumsum(rng.integers(1, 4, size=k)).tolist()
        _assert_phis_match_loop(ker, fs, ts)


def test_phi_i_matches_loop_on_verify_chain():
    ker, _ = DavydovChain(2.5, 0.1, "f1", 24).kernel
    rng = np.random.default_rng(5)
    for k, ts in ((2, [3, 7]), (3, [1, 4, 12])):
        fs = [rng.normal(size=ker.size) for _ in range(k)]
        fs[0] = np.round(fs[0])  # one functional with tied values
        _assert_phis_match_loop(ker, fs, ts)


@pytest.mark.parametrize("entries", [1, 20])
def test_phi_i_blocks_match_loop(monkeypatch, entries):
    # one threshold combination per block, and blocks that split the
    # combinations of a single variable
    monkeypatch.setattr(dependence, "PHI_BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(9)
    ker = random_kernel(rng, 5)
    fs = [rng.normal(size=5) for _ in range(4)]
    fs[2] = np.round(fs[2])
    _assert_phis_match_loop(ker, fs, [1, 2, 4, 5])


def _threshold_chain_fresh(size, factors):
    """The threshold chain with a fresh array per factor, the product with
    the all-ones start included."""
    out = np.ones((size, 1))
    for h, power in factors:
        out = power @ (h[:, :, None] * out[:, None, :]).reshape(size, -1)
    return out


def _phi_i_dense(kernel, f_list, t_list, i, powers):
    """The block loop of _phi_i_exact with fresh arrays, reducing each block
    the dense way: every conditional expectation as atoms @ g and the max of
    |atoms @ g - pi @ g| over every entry."""
    pi, size = kernel.stationary, kernel.size
    fwd, bwd = powers
    fvals = [np.asarray(fj, dtype=float) for fj in f_list]
    k = len(fvals)
    h_sets = []
    for fv in fvals:
        ind = (fv[:, None] > np.unique(fv)[None, :]).astype(float)
        h_sets.append(ind - (pi @ ind)[None, :])
    _, group_idx = np.unique(fvals[i], return_inverse=True)
    atoms = (np.arange(group_idx.max() + 1)[:, None] == group_idx[None, :]) * pi[None, :]
    atoms /= atoms.sum(axis=1, keepdims=True)
    others = [j for j in range(k) if j != i]
    width = max(1, dependence.PHI_BLOCK_ENTRIES // size)
    blocks = {}
    for j in sorted(others, key=lambda j: abs(j - i)):
        count = h_sets[j].shape[1]
        step = min(count, width)
        blocks[j] = [slice(lo, lo + step) for lo in range(0, count, step)]
        width = max(1, width // step)
    best = 0.0
    for pick in itertools.product(*(blocks[j] for j in others)):
        h = {j: h_sets[j][:, cols] for j, cols in zip(others, pick)}
        fw = _threshold_chain_fresh(size, [(h[j], fwd[j - 1]) for j in range(k - 1, i, -1)])
        bw = _threshold_chain_fresh(size, [(h[j], bwd[j]) for j in range(i)])
        g = (bw[:, :, None] * fw[:, None, :]).reshape(size, -1)
        best = max(best, float(np.abs(atoms @ g - pi @ g).max()))
    return best


@pytest.mark.parametrize("entries", [1, 20, dependence.PHI_BLOCK_ENTRIES])
@pytest.mark.parametrize("tied", [False, True])
def test_phi_i_column_reduction_is_bitwise(monkeypatch, entries, tied):
    # singleton atoms skip atoms @ g; both reduce by column extremes. One
    # workspace serves chains of every size, and a constant functional gives
    # a one-column factor of zeros
    monkeypatch.setattr(dependence, "PHI_BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(11 + tied)
    workspace = dependence.PhiWorkspace()
    for case in range(6):
        size = int(rng.integers(3, 9))
        ker = random_kernel(rng, size)
        k = int(rng.integers(2, 5))
        fs = [rng.normal(size=size) for _ in range(k)]
        if tied:
            fs = [np.round(f) for f in fs]
        if case == 5:
            fs[k // 2] = np.ones(size)
        ts = np.cumsum(rng.integers(1, 4, size=k)).tolist()
        powers = dependence._lag_powers(ker, ts)
        h_sets = dependence._centered_thresholds(ker.stationary, fs)
        for i in range(k):
            got = dependence._phi_i_exact(ker, fs, h_sets, i, powers, workspace)
            assert got == _phi_i_dense(ker, fs, ts, i, powers)


def test_covariance_cases_allocate_no_large_array_after_the_first(monkeypatch):
    # numpy reports its array data to tracemalloc. The first case grows the
    # workspace to the (49 x 2401) blocks of k = 3; after it, no phi^{(i)}
    # raises the traced peak by 256 KB, one such block being 0.94 MB
    ker, _ = DavydovChain(2.5, 0.1, "f1", 24).kernel
    rng = np.random.default_rng(0)
    cases = [([rng.normal(size=ker.size) for _ in range(k)], ts)
             for k, ts in ((3, [1, 4, 9]), (2, [2, 5]), (3, [3, 7, 12]), (2, [1, 12]), (3, [2, 3, 4]))]
    workspace = dependence.PhiWorkspace()
    check_covariance_inequality(ker, *cases[0], workspace)
    phi_i_exact, rises = dependence._phi_i_exact, []

    def traced(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        value = phi_i_exact(*args)
        rises.append(tracemalloc.get_traced_memory()[1] - start)
        return value

    monkeypatch.setattr(dependence, "_phi_i_exact", traced)
    tracemalloc.start()
    try:
        for f_list, t_list in cases[1:]:
            check_covariance_inequality(ker, f_list, t_list, workspace)
    finally:
        tracemalloc.stop()
    assert len(rises) == 10 and max(rises) < 256 * 1024


def test_covariance_inequality_independent_chain():
    ker = product_kernel(np.array([0.3, 0.7]))
    res = check_covariance_inequality(ker, [np.array([1.0, -1.0])] * 2, [1, 2])
    assert res["lhs"] < 1e-15 and max(res["phis"]) < 1e-15  # [TRIVIAL]


def test_covariance_inequality_rejects_bad_lags():
    with pytest.raises(DependenceError):
        check_covariance_inequality(three_state_kernel(), [np.ones(3)] * 2, [2, 2])


# ---------------------------------------------------------------------------
# condition series


def test_mds_chain_projective_terms_vanish():
    spec = ProcessSpec(DavydovChain(2.5, 0.1, "f1", n_max=200))
    rep = series_projective(spec, "Cond1cob", 2.5, 30)
    assert rep.verdict == "converged"
    assert max(rep.terms) < 1e-12  # martingale differences project to zero


def test_iid_conditional_variance_series_zero():
    spec = ProcessSpec(IIDBaseline(InnovationLaw("gaussian")))
    out = series_C1_C2(spec, 3.0, 20)
    assert out["C1"].verdict == "converged" and max(out["C1"].terms) == 0.0


def test_davydov_conditional_variance_series():
    spec = ProcessSpec(DavydovChain(2.5, 0.1, "f1", n_max=400))
    out = series_C1_C2(spec, 2.5, 80)
    assert out["C1"].verdict == "converged"
    assert out["C2"].verdict == "converged"
    ps = np.asarray(out["C1"].partial_sums)
    assert np.all(np.diff(ps) >= -1e-15)


def test_linear_iid_degenerate_series_zero():
    lp = LinearProcess(lambda j: 1.0 if j == 0 else 0.0, InnovationLaw("gaussian"), truncation=8)
    out = series_C1_C2(ProcessSpec(lp), 3.0, 15, outer=200)
    assert max(out["C1"].terms) < 1e-12  # [TRIVIAL] E(S_n^2|past) = n exactly


def test_iid_second_moment_series_are_exactly_zero():
    # Var(eps) = 4.5 / 2.5 is not n Var(eps) / n in floating point for every
    # n; the laws are given as E(S_n^2 | F_0)/n, so every deviation is 0
    spec = ProcessSpec(IIDBaseline(InnovationLaw("symmetric_pareto", q=4.5)))
    ids = ("C1", "C2", "Cond2cob", "Cond2cobp3")
    out = series_C1_C2(spec, 3.0, 40, ids=ids)
    assert sorted(out) == sorted(ids)
    for rep in out.values():
        assert rep.terms == (0.0,) * 40 and rep.verdict == "converged"


def _linear_moment_by_enumeration(a: np.ndarray, t: int, n: int, past: np.ndarray) -> float:
    """E(S_n^2 | eps_{1-t}..eps_0 = past) for Rademacher innovations, by
    summing over every sign pattern of eps_1..eps_{n+t}, with
    X_k = sum_{|j| <= t} a_j eps_{k-j} written out term by term (the
    conditions' orientation: a_j for j > 0 weighs the past)."""
    total = 0.0
    for future in itertools.product((-1.0, 1.0), repeat=n + t):
        eps = np.concatenate((past, future))  # eps[m + t - 1] = eps_m, m = 1-t..n+t
        s = sum(a[j + t] * eps[k - j + t - 1] for k in range(1, n + 1) for j in range(-t, t + 1))
        total += s * s
    return total / 2 ** (n + t)


def test_linear_cond2cob_matches_enumerated_conditional_moments():
    # [DERIVED] oracle: E(S_n^2 | past) over each of the process's outer
    # pasts by enumerating the future signs, and E(S_n^2) by enumerating the
    # past signs too; then the norms and weights of Cond2cob and Cond2cobp3
    t, outer, p, seed = 2, 12, 3.0, 4
    lp = LinearProcess(lambda j: 0.6 ** abs(j) * (1.0 if j >= 0 else -0.5) if abs(j) <= t else 0.0,
                       InnovationLaw("rademacher"), truncation=t)
    out = series_C1_C2(ProcessSpec(lp, seed=seed), p, 4, outer=outer, ids=("Cond2cob", "Cond2cobp3"))
    a = lp.coefficients()
    pasts = InnovationLaw("rademacher").sample(rngmod.stream(seed, rngmod.ROLE_CALIBRATION, 0, 0), outer * t)
    signs = [np.array(s) for s in itertools.product((-1.0, 1.0), repeat=t)]
    for n in range(1, 5):
        cond = np.array([_linear_moment_by_enumeration(a, t, n, past) for past in pasts.reshape(outer, t)])
        mean = np.mean([_linear_moment_by_enumeration(a, t, n, past) for past in signs])
        dev = np.abs(cond - mean) / n
        want2 = n ** (-2.0 + p / 2.0) * np.mean(dev ** (p / 2.0)) ** (2.0 / p)
        want3 = n**-0.5 * np.mean(dev**1.5) ** (1.0 / 1.5)
        assert out["Cond2cob"].terms[n - 1] == pytest.approx(want2, rel=1e-12)
        assert out["Cond2cobp3"].terms[n - 1] == pytest.approx(want3, rel=1e-12)
        assert want2 > 0.0


def test_linear_projective_series_geometric():
    lp = LinearProcess(lambda j: 0.6 ** abs(j) if abs(j) <= 40 else 0.0, InnovationLaw("gaussian"), truncation=48)
    rep = series_projective(ProcessSpec(lp), "Cond1cob", 3.0, 40, mc=20000)
    assert rep.verdict == "converged"
    # two-sided coefficients leave a nonzero anticipative half
    assert max(rep.diagnostics["anticipative"]) > 0.0
    rep2 = series_projective(ProcessSpec(lp), "Condcobp3adap", 3.0, 40, mc=20000)
    assert rep2.verdict == "converged"


def test_condalpha1_verdicts():
    q = PowerQuantile(1.0 / 3.0)  # Q(u) = u^{-1/3}
    fast = [k**-2.0 for k in range(1, 40)]
    out = series_condalpha1(q, fast, 2.5)
    assert out["log_weighted"].verdict == "converged"
    assert out["p_norm"].verdict == "converged"
    slow = [1.0] * 39  # no mixing: terms decay like k^{-2/p} only
    out = series_condalpha1(q, slow, 2.5)
    assert out["p_norm"].verdict == "diverging"


@pytest.mark.parametrize("p", [2.2, 2.5, 3.0])
@pytest.mark.parametrize("b", [3.0, 4.0, 8.0])
def test_condalpha1_closed_form_matches_mpmath(p, b):
    # [DERIVED] 30-digit quadrature of the defining integrals after u = v^k,
    # k = 1 / (1 - 2/b), which turns u^{-2/b} du into k dv; the alphas
    # straddle the kink of max(1, log(1/u)) at u = e^{-1}
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    alphas = np.array([1e-6, 0.1, 0.25, 0.5, 1.0])
    q = PowerQuantile(1.0 / b)
    log_weighted = q.log_weighted_integral(alphas, p)
    power = q.power_integral(alphas, p)
    c, k, e = mp.mpf(p - 2.0) / 2, 1 / (1 - 2 / mp.mpf(b)), p / mp.mpf(b)
    for al, got1, got2 in zip(alphas, log_weighted, power):
        top, kink = mp.mpf(al) ** (1 / k), mp.exp(-1 / k)
        want1 = mp.quad(lambda v: k * max(1, k * mp.log(1 / v)) ** c, [0, top] if top <= kink else [0, kink, top])
        assert abs(got1 - float(want1)) <= 1e-13 * float(want1)
        if e < 1:
            want2 = mp.mpf(al) ** (1 - e) / (1 - e)
            assert abs(got2 - float(want2)) <= 1e-13 * float(want2)
        else:  # Q^p is not integrable at 0
            assert got2 == np.inf


def test_condalpha1_infinite_moment_diverges():
    out = series_condalpha1(PowerQuantile(1.0 / 3.0), [k**-2.0 for k in range(1, 40)], 3.0)
    assert all(t == np.inf for t in out["p_norm"].terms)
    assert out["p_norm"].verdict == "diverging"
    assert np.all(np.isfinite(out["log_weighted"].terms))
    assert np.array_equal(PowerQuantile(0.5).log_weighted_integral(np.array([0.0, 0.1]), 2.5), [0.0, np.inf])


def test_condalpha1_bounded_quantile():
    # [DERIVED] Q = 1 on [0, 0.2): int_0^alpha Q^p = min(alpha, 0.2); below
    # e^{-1} the log-weighted integral at c = 1 is int_{log 1/A}^inf t e^{-t} dt
    q = PowerQuantile(0.0, support=0.2)
    alphas = np.array([0.0, 0.1, 0.2, 0.9])
    assert np.allclose(q.power_integral(alphas, 2.5), [0.0, 0.1, 0.2, 0.2], rtol=1e-15, atol=0)
    big_a = np.array([0.1, 0.2, 0.2])
    want = big_a * (1.0 - np.log(big_a))
    assert np.allclose(q.log_weighted_integral(alphas[1:], 4.0), want, rtol=1e-14, atol=0)
    with pytest.raises(DependenceError):
        PowerQuantile(0.25, support=0.0)


def test_condphi_exponent_and_verdicts():
    # s = p = 3 reduces to the cube-root series of the phi_2 coefficients
    rep = series_condphi([k**-6.0 for k in range(1, 40)], 3.0, 3.0)
    assert abs(rep.diagnostics["index_exponent"]) < 1e-14
    assert rep.verdict == "converged"
    rep = series_condphi([0.5] * 39, 3.0, 3.0)
    assert rep.verdict == "diverging"
    with pytest.raises(DependenceError):
        series_condphi([0.1], 3.0, 2.0)


def test_condition_report_invariants():
    with pytest.raises(DependenceError):
        ConditionReport("x", (1, 2), (-0.1, 0.2), (-0.1, 0.1), "converged")


# ---------------------------------------------------------------------------
# window sums and coboundary


def test_an_matches_direct_window_oracle():
    # [DERIVED] oracle: A_n as the sum over all j of the squared gap between
    # the coefficient window sum c_j(n) and its limit A 1_{1 <= j <= n}
    rng = np.random.default_rng(23)
    support = 300
    for _ in range(5):
        decay = rng.uniform(1.2, 2.5)
        rule = lambda j, d=decay: 0.0 if j == 0 else np.sign(np.sin(j)) / abs(j) ** d
        n = int(rng.integers(3, 30))
        res = an_bn(rule, n, support=support)
        a = np.array([rule(j) for j in range(-support, support + 1)])
        big_a = a.sum()
        direct = 0.0
        for j in range(-2 * support, 2 * support + n + 1):
            c = sum(rule(k - j) for k in range(1, n + 1) if abs(k - j) <= support)
            direct += (c - (big_a if 1 <= j <= n else 0.0)) ** 2
        assert abs(res["A_n"] - direct) < 1e-10 * max(1.0, direct)
        assert res["A_n"] <= 4.0 * res["B_n"] + 1e-12


def _an_bn_by_windows(rule, n, support):
    """A_n, B_n and the Heyde tails with one window sum per index (the loop
    form the prefix-sum expressions replace)."""
    l = support
    cs = np.concatenate(([0.0], np.cumsum([rule(j) for j in range(-l, l + 1)])))
    absa = np.abs([rule(j) for j in range(-l, l + 1)])

    def window(lo, hi):
        lo, hi = max(lo, -l), min(hi, l)
        return float(cs[hi + l + 1] - cs[lo + l]) if hi >= lo else 0.0

    a_n = (sum((window(-l, -j) + window(n + 1 - j, l)) ** 2 for j in range(1, n + 1))
           + sum(window(i, n + i - 1) ** 2 for i in range(1, l + 1))
           + sum(window(-i - n + 1, -i) ** 2 for i in range(1, l + 1)))
    b_n = sum(float(absa[k + l:].sum()) ** 2 + float(absa[: max(l + 1 - k, 0)].sum()) ** 2 for k in range(1, n + 1))
    heyde = (sum(window(m, l) ** 2 for m in range(1, l + 1)), sum(window(-l, -m) ** 2 for m in range(1, l + 1)))
    return a_n, b_n, heyde


@pytest.mark.parametrize("n", [1, 7, 64, 300, 700])
def test_an_bn_matches_window_loop(n):
    # the support is 300, so n = 300 and 700 take windows past both ends
    rule = lambda j: 0.0 if j == 0 else np.sign(np.sin(j)) / abs(j) ** 1.5
    res = an_bn(rule, n, support=300)
    a_n, b_n, heyde = _an_bn_by_windows(rule, n, 300)
    assert res["A_n"] == pytest.approx(a_n, rel=1e-13)
    assert res["B_n"] == pytest.approx(b_n, rel=1e-13)
    assert res["heyde_tails"] == pytest.approx(heyde, rel=1e-13)


def test_heyde_tails_geometric_closed_form():
    rho = 0.5
    rule = lambda j: rho**j if j >= 0 else 0.0
    res = an_bn(rule, 8, support=512)
    # [DERIVED] sum_{m>=1} (rho^m/(1-rho))^2 = rho^2 / ((1-rho)^2 (1-rho^2))
    want = rho**2 / ((1 - rho) ** 2 * (1 - rho**2))
    assert abs(res["heyde_tails"][0] - want) < 1e-12
    assert res["heyde_tails"][1] == 0.0
    assert res["tail_certified"]


def test_coboundary_identity_small_residual():
    lp = LinearProcess(lambda j: 0.5 ** abs(j) if abs(j) <= 20 else 0.0, InnovationLaw("gaussian"), truncation=24)
    dec = coboundary(lp)
    for seed in (1, 2):
        out = dec.identity_check(200, seed=seed, tolerance=1e-8)
        assert out["ok"] and out["max_residual"] < 1e-10
    assert abs(dec.big_a - (2.0 / (1 - 0.5) - 1.0)) < 1e-5  # sum of 0.5^|j|


def test_coboundary_identity_judged_against_the_given_tolerance():
    dec = coboundary(LinearProcess(lambda j: 0.5**j if j >= 0 else 0.0, InnovationLaw("gaussian"), truncation=64))
    residual = dec.identity_check(256, seed=0, tolerance=1e-8)["max_residual"]
    assert 0.0 < residual < 1e-12
    assert dec.identity_check(256, seed=0, tolerance=residual)["ok"]
    assert not dec.identity_check(256, seed=0, tolerance=residual / 2)["ok"]


def _z_value_recomputed(dec, i, eps, origin):
    # z_value as it stood when it rebuilt the coefficients and tail sums per call
    a = dec.spec.coefficients()
    t = dec.spec.truncation
    tail_t = np.concatenate((np.cumsum(a[::-1])[::-1], [0.0]))
    tail_q = np.concatenate(([0.0], np.cumsum(a)))
    total = 0.0
    for m in range(i - t, i):
        total += float(tail_t[(i - m) + t]) * eps[m + origin]
    for m in range(i, i + t):
        total -= float(tail_q[t - (m - i + 1) + 1]) * eps[m + origin]
    return total


def test_coboundary_z_value_from_cached_tails_is_bit_identical():
    lp = LinearProcess(lambda j: 0.7 ** abs(j) if j < 0 else 0.5**j, InnovationLaw("uniform"), truncation=80)
    dec = coboundary(lp)
    eps = np.random.default_rng(4).standard_normal(200 + 4 * 80 + 2)
    for i in range(1, 202):
        assert dec.z_value(i, eps, 160) == _z_value_recomputed(dec, i, eps, 160)


# ---------------------------------------------------------------------------
# envelope contraction


def test_envelope_contraction_random():
    rng = np.random.default_rng(31)
    for _ in range(20):
        ker = random_kernel(rng, int(rng.integers(2, 6)))
        g = rng.normal(size=(ker.size, ker.size))
        p = float(rng.uniform(2.1, 3.0))
        out = envelope_contraction_check(ker, g, p, 1e-9)
        assert out["ok"], out


def test_envelope_contraction_rejects_p_below_two():
    ker = three_state_kernel()
    with pytest.raises(DependenceError, match="p >= 2"):
        envelope_contraction_check(ker, np.ones((3, 3)), 1.5, 1e-9)


def _contraction_sides(ker, g, p):
    joint = ker.stationary[:, None] * ker.matrix
    lhs = envelope_norm_discrete((ker.matrix * g).sum(axis=1), ker.stationary, p)
    return lhs, envelope_norm_discrete(g.ravel(), joint.ravel(), p)


def test_envelope_norm_expands_under_conditioning_below_p_two():
    # X = 1{Y_1 = 0} with Y_1 independent of Y_0 and P(Y_1 = 0) = 0.1, so
    # E(X | Y_0) = 0.1: the norms are 0.1 W(1) and W(0.1), and for p < 2 the
    # weight increases, making the average 0.1 W(1) larger than W(0.1)
    ker = product_kernel(np.array([0.1, 0.9]))
    g = np.array([[1.0, 0.0], [1.0, 0.0]])
    lhs, rhs = _contraction_sides(ker, g, 1.5)
    assert lhs > 1.3 * rhs
    # at p = 2 both are E|X| = 0.1; above, the weight decreases
    lhs, rhs = _contraction_sides(ker, g, 2.0)
    assert lhs == pytest.approx(0.1, abs=1e-15) and rhs == pytest.approx(0.1, abs=1e-15)
    for p in (2.0, 2.5, 3.0):
        assert envelope_contraction_check(ker, g, p, 1e-9)["ok"]


def test_envelope_contraction_judged_against_the_given_slack():
    # g depending only on Y_0 makes both sides equal up to rounding; take the
    # first such g whose rounded lhs lies above its rhs
    ker = three_state_kernel()
    rng = np.random.default_rng(0)
    for _ in range(500):
        g = np.tile(rng.normal(size=(3, 1)), (1, 3))
        out = envelope_contraction_check(ker, g, 2.5, 1e-9)
        if out["lhs"] > out["rhs"]:
            break
    assert out["lhs"] > out["rhs"] and out["ok"]
    assert not envelope_contraction_check(ker, g, 2.5, 1e-300)["ok"]


def test_envelope_contraction_equality_for_measurable():
    # g depending only on Y_0 makes both sides equal
    ker = three_state_kernel()
    g = np.tile(np.array([[1.0], [-2.0], [0.5]]), (1, 3))
    out = envelope_contraction_check(ker, g, 2.5, 1e-9)
    assert abs(out["lhs"] - out["rhs"]) < 1e-11
