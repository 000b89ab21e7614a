"""Exact dependence coefficients on finite kernels, covariance-inequality
verification, projective-condition series, and the coboundary/martingale
decomposition of linear processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product
from math import prod
from typing import Callable, Optional, Sequence

import numpy as np

from . import rng as rngmod
from .metrics import distinct, envelope_norm_discrete
from .normal import upper_gamma
from .processes import FiniteKernel, ProcessSpec, lp_norm_discrete, prefix_sums, tail_sums, window_sums

EXACT_ENUM_CAP = 22  # state count up to which the event sup is enumerated
PHI_BLOCK_ENTRIES = 2**18  # states x threshold combinations per _phi_i_exact block
NORM_BLOCK_ENTRIES = 2**13  # law values per envelope_norm_discrete call in series_C1_C2; its
# temporaries stay below glibc's 128 KiB mmap threshold, so they reuse heap pages


class DependenceError(ValueError):
    pass


class UnsupportedFamilyError(DependenceError):
    """The condition has no series algorithm for the spec's process family."""


# ---------------------------------------------------------------------------
# alpha coefficient


def alpha1_exact(kernel: FiniteKernel, n: int) -> dict:
    """Strong mixing coefficient between Y_0 and Y_n on the finite chain.

    Exact subset enumeration up to 22 states; above that an alternating
    maximization lower bound from 64 seeded random starts and a
    total-variation upper bound.
    """
    if n < 1:
        raise DependenceError("n must be >= 1")
    pi = kernel.stationary
    kn = np.linalg.matrix_power(kernel.matrix, n)
    d = pi[:, None] * kn - np.outer(pi, pi)  # joint minus product
    size = kernel.size
    if size <= EXACT_ENUM_CAP:
        best = 0.0
        total = 1 << (size - 1)  # complements give the same value
        chunk = 1 << 16
        cols = np.arange(size - 1)
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            mask = ((idx[:, None] >> cols[None, :]) & 1).astype(float)
            v = mask @ d[:-1, :]
            best = max(best, float(np.maximum(v, 0.0).sum(axis=1).max()))
        return {"value": best, "lower": best, "upper": best, "method": "exact"}
    # alternating maximization from random starts (lower bound)
    gen = np.random.default_rng(0)
    best = 0.0
    for _ in range(64):
        a = gen.random(size) < 0.5
        for _ in range(200):
            b = (a @ d) > 0
            a_new = (d @ b) > 0
            if np.array_equal(a_new, a):
                break
            a = a_new
        best = max(best, abs(float(d[np.ix_(a, b)].sum())))
    upper = 0.25 * float(np.abs(d).sum())
    return {"lower": best, "upper": upper, "method": "lower-heuristic"}


# ---------------------------------------------------------------------------
# phi coefficients


def _threshold_indicators(values: np.ndarray) -> np.ndarray:
    """Columns are 1_{v <= x} for each distinct threshold x."""
    xs = distinct(values)
    return (values[:, None] <= xs[None, :]).astype(float)


def phi_coeff(
    kernel: FiniteKernel,
    n: int,
    k: int = 1,
    f: Optional[np.ndarray] = None,
    gap_cap: int = 64,
) -> dict:
    """Uniform-dependence coefficient phi_{k,Y}(n) of the observable chain.

    The defining sup over starting indices i_1 >= n is attained at i_1 = n
    because the per-threshold gap is nonincreasing in the lead time; only the
    inner gap i_2 - i_1 needs a cap, whose tail is certified against
    2 * phi_1(gap_cap + 1).
    """
    if n < 1:
        raise DependenceError("n must be >= 1")
    if k not in (1, 2):
        raise DependenceError("k must be 1 or 2")
    values = kernel.states.astype(float) if f is None else np.asarray(f, dtype=float)
    pi = kernel.stationary
    ind = _threshold_indicators(values)
    g = ind - (pi @ ind)[None, :]  # centered threshold functions, per column
    kn = np.linalg.matrix_power(kernel.matrix, n)

    def phi1_at(power_matrix):
        gap = power_matrix @ g  # E(g(Y_i) | Y_0 = s); stationary mean is 0
        return float(np.abs(gap).max())

    phi1 = phi1_at(kn)
    if k == 1:
        return {"value": phi1, "method": "exact"}
    best = phi1
    kd = kernel.matrix.copy()
    for _ in range(1, gap_cap + 1):
        # w[s, x2] = E(g_{x2}(Y_d) | Y_d-start = s)
        w = kd @ g
        # products over threshold pairs: vec[s] = g_{x1}(s) * w(s, x2)
        pairs = g[:, :, None] * w[:, None, :]  # (S, T, T)
        cond = np.einsum("ij,jkl->ikl", kn, pairs)
        mean = np.einsum("j,jkl->kl", pi, pairs)
        best = max(best, float(np.abs(cond - mean[None, :, :]).max()))
        kd = kd @ kernel.matrix
    # tail beyond the gap cap: |E(g1 g2 | Y_0) - E(g1 g2)| <= 2 phi_1(d)
    tail_matrix = np.linalg.matrix_power(kernel.matrix, gap_cap + 1)
    tail = 2.0 * phi1_at(tail_matrix)
    method = "exact" if tail <= best + 1e-15 else "lower-heuristic"
    return {"value": best, "method": method, "gap_tail_bound": tail}


# ---------------------------------------------------------------------------
# covariance product bounds


@dataclass(frozen=True)
class FiniteLaw:
    """A finite law with its two level sets, each sorted once: the points
    in increasing order and |points| in decreasing order, each with its
    cumulative weights."""

    points: np.ndarray
    probs: np.ndarray

    @cached_property
    def signed_levels(self) -> tuple:
        order = np.argsort(self.points)
        return self.points[order], np.cumsum(self.probs[order])

    @cached_property
    def abs_levels(self) -> tuple:
        a = np.abs(self.points)
        order = np.argsort(-a)
        return a[order], np.cumsum(self.probs[order])

    def d(self, u: np.ndarray) -> np.ndarray:
        """D(u) = (F^{-1}(1 - u) - F^{-1}(u))_+, and 0 for u >= 1."""
        pts, cw = self.signed_levels

        def finv(v):
            return pts[np.clip(np.searchsorted(cw, v - 1e-15, side="left"), 0, pts.size - 1)]

        out = np.maximum(finv(1.0 - u) - finv(u), 0.0)
        out[u >= 1.0] = 0.0
        return out

    def q(self, u: np.ndarray) -> np.ndarray:
        """Q(u) = smallest t with P(|X| > t) <= u, a step function of u;
        for u >= 1 the factor vanishes by convention."""
        a, cw = self.abs_levels
        out = np.zeros_like(u)
        inside = u < cw[-1] - 1e-15
        out[inside] = a[np.minimum(np.searchsorted(cw, u[inside], side="right"), a.size - 1)]
        out[u >= 1.0] = 0.0
        return out


def covariance_product_bound(
    laws: Sequence[FiniteLaw],
    phis: Sequence[float],
    p_list: Optional[Sequence[float]] = None,
) -> dict:
    """The three product bounds on |E prod (X_i - E X_i)|.

    D-form: int prod D_i(u/phi_i) du; Q-form: 2^k int prod Q_i(u/phi_i) du;
    Holder form: 2^k prod phi_i^{1/p_i} ||X_i||_{p_i} (needs sum 1/p_i = 1).
    A zero phi_i makes its factor vanish, hence a zero bound.  The integrands
    are step functions of u on finite laws, so the integrals are exact: the
    product is constant between breakpoints u = phi_i * (cumulative level).
    """
    k = len(laws)
    if k < 2 or len(phis) != k:
        raise DependenceError("need k >= 2 laws and matching phis")
    phis = np.asarray(phis, dtype=float)
    if np.any(phis < 0) or np.any(phis > 1):
        raise DependenceError("phi values must lie in [0, 1]")
    if np.any(phis == 0.0):
        out = {"d_form": 0.0, "q_form": 0.0}
    else:
        cuts = [np.array([0.0, 1.0])]
        for law, phi in zip(laws, phis):
            lev, lev_abs = law.signed_levels[1], law.abs_levels[1]
            cuts.append(np.clip(phi * np.concatenate((lev, 1.0 - lev, lev_abs)), 0.0, 1.0))
        grid = distinct(np.concatenate(cuts))
        mids = 0.5 * (grid[:-1] + grid[1:])
        widths = np.diff(grid)
        d_prod = np.ones(mids.size)
        q_prod = np.ones(mids.size)
        for law, phi in zip(laws, phis):
            v = mids / phi
            d_prod *= law.d(v)
            q_prod *= law.q(v)
        out = {
            "d_form": float(d_prod @ widths),
            "q_form": float(2.0**k * (q_prod @ widths)),
        }
    if p_list is not None:
        if abs(sum(1.0 / p for p in p_list) - 1.0) > 1e-9:
            raise DependenceError("Holder exponents must satisfy sum 1/p_i = 1")
        h = 2.0**k
        for law, phi, p in zip(laws, phis, p_list):
            h *= phi ** (1.0 / p) * lp_norm_discrete(law.points, law.probs, p)
        out["holder_form"] = float(h)
    return out


def _lag_powers(kernel: FiniteKernel, t_list) -> tuple[list, list]:
    """K^lag and R^lag for each consecutive lag t_{j+1} - t_j, where
    R(s, s') = pi(s') K(s', s) / pi(s) is the time-reversed kernel."""
    pi = kernel.stationary
    kmat = kernel.matrix
    rev = (kmat * pi[:, None]).T / pi[:, None]
    lags = [int(b - a) for a, b in zip(t_list, t_list[1:])]
    return ([np.linalg.matrix_power(kmat, lag) for lag in lags],
            [np.linalg.matrix_power(rev, lag) for lag in lags])


class PhiWorkspace:
    """The two flat work arrays of _phi_i_exact's threshold chains, grown to
    the largest block asked of them. One workspace serves every phi^{(i)} of
    every case it is passed to, so the chains write into the same pages."""

    def __init__(self):
        self.chain = self.scratch = np.empty(0)

    def buffers(self, entries: int) -> tuple:
        if self.chain.size < entries:
            self.chain, self.scratch = np.empty(entries), np.empty(entries)
        return self.chain, self.scratch


def _view(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading entries of a flat buffer as a C-contiguous array of shape."""
    return buffer[: prod(shape)].reshape(shape)


def _threshold_chain(factors, out: np.ndarray, scratch: np.ndarray):
    """E(prod_j h_j(Y_{t_j}) | Y_start = s) for every threshold combination,
    as a states x combinations view of the flat buffer out, with the flat
    buffer scratch holding each product; None without factors, where it is
    1. factors are the (h_j columns, kernel power) pairs in the order the
    Markov property applies them."""
    cur = None
    for h, power in factors:
        if cur is None:
            # the product with the all-ones start is h itself, copied: BLAS
            # rounds a strided column of h otherwise than a contiguous one
            term = _view(scratch, h.shape)
            np.copyto(term, h)
        else:
            size, width = h.shape
            term = np.multiply(h[:, :, None], cur[:, None, :],
                               out=_view(scratch, (size, width, cur.shape[1]))).reshape(size, -1)
        cur = np.matmul(power, term, out=_view(out, term.shape))
    return cur


def _centered_thresholds(pi: np.ndarray, f_list) -> list:
    """Per variable, its centered indicator set h = 1_{f > x} - P(f > x),
    one column per distinct value x of f."""
    h_sets = []
    for fv in f_list:
        ind = (fv[:, None] > distinct(fv)[None, :]).astype(float)
        h_sets.append(ind - (pi @ ind)[None, :])
    return h_sets


def _phi_i_exact(kernel: FiniteKernel, f_list, h_sets: list, i: int, powers: tuple,
                 workspace: PhiWorkspace) -> float:
    """phi(sigma(X_i), X_{j != i}) for X_j = f_j(Y_{t_j}) on the stationary
    chain, exact over the threshold level sets: the max over the atoms of
    sigma(X_i) and over every combination of one threshold x_j per j != i of
    |E(prod_j h_j | X_i) - E prod_j h_j|, h_j = 1_{f_j > x_j} - P(f_j > x_j).

    Given Y_{t_i} the product splits by the Markov property into a forward
    factor over j > i (through K^lag) and a backward factor over j < i
    (through the reversed kernel R^lag). Each is built for all its threshold
    combinations at once as a states x combinations matrix and the two are
    multiplied column-wise; at i = 0 or k - 1 one factor is 1 and the other
    is the product. The combinations go in blocks of at most
    PHI_BLOCK_ENTRIES matrix entries: the thresholds of the variables
    farthest from i, which the chains apply first, are held fixed within a
    block. Every block writes into the two buffers of workspace: the chain
    buffer holds the forward then the backward factor, the scratch buffer
    the products. h_sets is _centered_thresholds(kernel.stationary, f_list)
    and powers is _lag_powers(kernel, t_list), both shared by every i.
    """
    pi = kernel.stationary
    size = kernel.size
    fwd, bwd = powers
    k = len(h_sets)
    # E(. | X_i) on each atom of sigma(X_i) (states with one value of f_i);
    # when every atom is a single state it is g itself, row for row
    fi = np.asarray(f_list[i], dtype=float)
    group_idx = np.searchsorted(distinct(fi), fi)
    singletons = group_idx.max() + 1 == size
    if not singletons:
        atoms = (np.arange(group_idx.max() + 1)[:, None] == group_idx[None, :]) * pi[None, :]
        atoms /= atoms.sum(axis=1, keepdims=True)
    others = [j for j in range(k) if j != i]
    width = max(1, PHI_BLOCK_ENTRIES // size)
    steps = {}
    for j in sorted(others, key=lambda j: abs(j - i)):
        steps[j] = min(h_sets[j].shape[1], width)
        width = max(1, width // steps[j])
    blocks = [[slice(lo, lo + steps[j]) for lo in range(0, h_sets[j].shape[1], steps[j])] for j in others]
    fw_cols = prod(steps[j] for j in range(i + 1, k))
    bw_cols = prod(steps[j] for j in range(i))
    chain, scratch = workspace.buffers(size * max(fw_cols * bw_cols, fw_cols + bw_cols))
    best = 0.0
    for pick in product(*blocks):
        h = {j: h_sets[j][:, cols] for j, cols in zip(others, pick)}
        fw = _threshold_chain([(h[j], fwd[j - 1]) for j in range(k - 1, i, -1)], chain, scratch)
        bw = _threshold_chain([(h[j], bwd[j]) for j in range(i)], chain[0 if fw is None else fw.size :], scratch)
        if fw is None or bw is None:
            g, spare = (bw if fw is None else fw), scratch
        else:
            g = np.multiply(bw[:, :, None], fw[:, None, :], out=_view(scratch, (size, bw.shape[1], fw.shape[1])))
            g, spare = g.reshape(size, -1), chain
        cond = g if singletons else np.matmul(atoms, g, out=_view(spare, (atoms.shape[0], g.shape[1])))
        mean = pi @ g
        # max |cond - mean| by column extremes: rounded subtraction is
        # monotone, so this is bit for bit the max over every entry
        best = max(best, float((cond.max(axis=0) - mean).max()), float((mean - cond.min(axis=0)).max()))
    return best


def check_covariance_inequality(kernel: FiniteKernel, f_list, t_list,
                                workspace: Optional[PhiWorkspace] = None) -> dict:
    """Exact both sides of the product-covariance inequality on a chain.

    lhs = |E prod (f_j(Y_{t_j}) - E f_j)| by kernel-power linear algebra;
    rhs from covariance_product_bound with the exact phi^{(i)}. The kernel
    powers and the threshold sets are computed once and shared by every
    phi^{(i)}. A caller checking many cases passes one workspace to all of
    them; without one, the call makes its own.
    """
    t_list = list(t_list)
    if any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise DependenceError("lags must be strictly increasing")
    k = len(f_list)
    if k < 2 or len(t_list) != k:
        raise DependenceError("need k >= 2 functionals with matching lags")
    pi = kernel.stationary
    fvals = [np.asarray(fj, dtype=float) for fj in f_list]
    centered = [fv - float(pi @ fv) for fv in fvals]
    powers = _lag_powers(kernel, t_list)
    # lhs: backward recursion v = E(prod_{j >= i} X_j | Y_{t_i}), powers[0][j] = K^{t_{j+1} - t_j}
    v = centered[-1]
    for j in range(k - 2, -1, -1):
        v = centered[j] * (powers[0][j] @ v)
    lhs = abs(float(pi @ v))
    h_sets = _centered_thresholds(pi, fvals)
    workspace = PhiWorkspace() if workspace is None else workspace
    phis = [min(_phi_i_exact(kernel, fvals, h_sets, i, powers, workspace), 1.0) for i in range(k)]
    laws = [FiniteLaw(c, pi) for c in centered]
    rhs = covariance_product_bound(laws, phis, p_list=[float(k)] * k)
    ok = lhs <= min(rhs["q_form"], rhs["holder_form"], rhs["d_form"]) * (1.0 + 1e-9) + 1e-15
    return {"lhs": lhs, "rhs_forms": rhs, "phis": phis, "ok": bool(ok)}


# ---------------------------------------------------------------------------
# condition series


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    terms: tuple  # the terms for n = 1, 2, ...
    partial_sums: tuple
    verdict: str  # converged | diverging | inconclusive
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.terms, dtype=float)
        if np.any(t < -1e-12):
            raise DependenceError("series terms must be nonnegative")
        ps = np.asarray(self.partial_sums, dtype=float)
        finite = np.isfinite(ps)
        if np.any(np.diff(ps[finite]) < -1e-12):
            raise DependenceError("partial sums must be nondecreasing")


def _verdict(terms) -> tuple[str, dict]:
    """Three-valued convergence call from a log-log slope of the terms
    against n = 1, 2, ..."""
    t = np.asarray(terms, dtype=float)
    n = np.arange(1.0, t.size + 1.0)
    if np.any(~np.isfinite(t)):
        return "diverging", {"reason": "infinite term"}
    pos = t > 1e-300
    if not pos.any():
        return "converged", {"reason": "all terms zero"}
    n, t = n[pos], t[pos]
    if n.size < 4:
        return "inconclusive", {"reason": "too few positive terms"}
    half = n.size // 2
    x, y = np.log(n[half:]), np.log(t[half:])
    slope = float(np.polyfit(x, y, 1)[0])
    gamma = -slope
    diag = {"decay_exponent": gamma}
    if gamma >= 1.05:
        return "converged", diag
    if gamma <= 0.95:
        return "diverging", diag
    return "inconclusive", diag


def _report(cid, terms, extra=None) -> ConditionReport:
    verdict, diag = _verdict(terms)
    if extra:
        diag.update(extra)
    ps = tuple(np.cumsum(terms))
    return ConditionReport(cid, tuple(terms), ps, verdict, diag)


def series_C1_C2(spec: ProcessSpec, p: float, n_terms: int, outer: int = 1000, ids=("C1", "C2")) -> dict:
    """The reports of ids among C1, C2, Cond2cob and Cond2cobp3, all read
    from one pass over the family's laws of E(S_n^2 | F_0)/n (its
    second_moment_laws; chains are exact, linear processes use outer Monte
    Carlo pasts drawn at spec.seed). C1 is the envelope norm of the law
    minus sigma^2 weighted by n^{-(2-p/2)}, C2 its L^{p/2} norm weighted by
    n^{-2/p}; Cond2cob and Cond2cobp3 are the L^{p/2} and L^{3/2} norms of
    the law minus its mean E(S_n^2)/n, weighted by n^{-(2-p/2)} and n^{-1/2}.

    Each n's law minus sigma^2 is written into one reused block of rows, and
    C1's envelope norms go one envelope_norm_discrete call per block of at
    most NORM_BLOCK_ENTRIES law values."""
    fam = spec.family
    if not hasattr(fam, "second_moment_laws"):
        raise UnsupportedFamilyError(f"no conditional second moments for a {type(fam).__name__}")
    terms = {cid: [] for cid in ("C1", "C2", "Cond2cob", "Cond2cobp3") if cid in ids}
    probs, laws = fam.second_moment_laws(n_terms, outer, spec.seed)
    sigma2 = fam.long_run_variance(spec.seed)["sigma2"] if {"C1", "C2"} & terms.keys() else 0.0
    rows = max(1, NORM_BLOCK_ENTRIES // probs.size)
    block = np.empty((min(rows, n_terms), probs.size))
    for n, (law, mean) in enumerate(laws, 1):
        row = block[(n - 1) % rows]
        np.subtract(law, sigma2, out=row)
        if "C2" in terms:
            terms["C2"].append(n ** (-2.0 / p) * lp_norm_discrete(row, probs, p / 2.0))
        if "Cond2cob" in terms:
            terms["Cond2cob"].append(n ** (-2.0 + p / 2.0) * lp_norm_discrete(law - mean, probs, p / 2.0))
        if "Cond2cobp3" in terms:
            terms["Cond2cobp3"].append(n**-0.5 * lp_norm_discrete(law - mean, probs, 1.5))
        if "C1" in terms and (n % rows == 0 or n == n_terms):
            first = n - (n - 1) % rows
            for m, norm in zip(range(first, n + 1), envelope_norm_discrete(block[: n + 1 - first], probs, p)):
                terms["C1"].append(m ** (-(2.0 - p / 2.0)) * float(norm))
    return {cid: _report(cid, found) for cid, found in terms.items()}


def series_projective(spec: ProcessSpec, which: str, p: float, n_terms: int, mc: int = 10**5) -> ConditionReport:
    """The report of Cond1cob or Condcobp3adap, series of E(X_k | F_0) in L^p, from the family's
    projective_terms: exact for a Markov family, over mc Monte Carlo pasts drawn at spec.seed for a
    linear process. (Cond2cob and Cond2cobp3 come from series_C1_C2.)"""
    if which not in ("Cond1cob", "Condcobp3adap"):
        raise DependenceError(f"unknown condition id: {which}")
    fam = spec.family
    if not hasattr(fam, "projective_terms"):
        raise UnsupportedFamilyError(f"no projective series for a {type(fam).__name__}")
    terms, extra = fam.projective_terms(which, p, n_terms, mc, spec.seed)
    return _report(which, terms, extra)


@dataclass(frozen=True)
class PowerQuantile:
    """Upper-tail quantile Q(u) = u^{-exponent} for u < support and 0 from
    there on. Exponent 1/b is the quantile of a Pareto tail with moments of
    order below b; exponent 0 is a variable of modulus 1 that is nonzero
    with probability support."""

    exponent: float
    support: float = 1.0

    def __post_init__(self):
        if self.exponent < 0 or not 0 < self.support <= 1:
            raise DependenceError("need exponent >= 0 and support in (0, 1]")

    def log_weighted_integral(self, alpha: np.ndarray, p: float) -> np.ndarray:
        """int_0^alpha max(1, log(1/u))^c Q(u)^2 du with c = (p - 2)/2, in
        closed form: with lam = 1 - 2 exponent and A = min(alpha, support),
        u = e^{-t} turns the part below e^{-1} into
        Gamma(c + 1, lam log(1/min(A, e^{-1}))) / lam^{c + 1}, and the part
        above adds (A^lam - e^{-lam}) / lam. Infinite when lam <= 0."""
        a = np.minimum(alpha, self.support)
        lam = 1.0 - 2.0 * self.exponent
        out = np.where(a > 0, np.inf, 0.0)
        if lam > 0:
            pos = a > 0
            c = 0.5 * (p - 2.0)
            below = upper_gamma(c + 1.0, lam * np.maximum(-np.log(a[pos]), 1.0)) / lam ** (c + 1.0)
            out[pos] = below + np.maximum(a[pos] ** lam - np.exp(-lam), 0.0) / lam
        return out

    def power_integral(self, alpha: np.ndarray, p: float) -> np.ndarray:
        """int_0^alpha Q(u)^p du = A^{1 - p exponent} / (1 - p exponent) with
        A = min(alpha, support); infinite when p exponent >= 1."""
        a = np.minimum(alpha, self.support)
        lam = 1.0 - p * self.exponent
        if lam <= 0:
            return np.where(a > 0, np.inf, 0.0)
        return a**lam / lam


def series_condalpha1(q: PowerQuantile, alpha_values, p: float) -> dict:
    """The two integral series driven by the strong-mixing coefficients
    through Rio's quantile covariance inequality (Ann. IHP 1993): the
    log-weighted Q^2 integral with weight k^{-(2-p/2)}, and the Q^p integral
    to the 2/p with weight k^{-2/p}. Both integrals are closed forms of the
    power-law quantile q."""
    alpha_values = np.asarray(alpha_values, dtype=float)
    if np.any((alpha_values < 0) | (alpha_values > 1)):
        raise DependenceError("alpha values must lie in [0, 1]")
    ks = np.arange(1, alpha_values.size + 1)
    t1 = ks ** (-(2.0 - p / 2.0)) * q.log_weighted_integral(alpha_values, p)
    t2 = ks ** (-2.0 / p) * q.power_integral(alpha_values, p) ** (2.0 / p)
    return {
        "log_weighted": _report("condalpha1-a", t1.tolist()),
        "p_norm": _report("condalpha1-b", t2.tolist()),
    }


def series_condphi(phi2_values, p: float, s: float) -> ConditionReport:
    """Terms i^{(p-4)/2 + (s-2)/(s-1)} phi_2(i)^{(s-2)/s}."""
    phi2_values = np.asarray(phi2_values, dtype=float)
    if s < p:
        raise DependenceError("requires s >= p")
    ks = list(range(1, phi2_values.size + 1))
    expo = (p - 4.0) / 2.0 + (s - 2.0) / (s - 1.0)
    terms = [k**expo * ph ** ((s - 2.0) / s) for k, ph in zip(ks, phi2_values)]
    return _report("condphi", terms, {"index_exponent": expo})


# ---------------------------------------------------------------------------
# A_n / B_n and the coboundary decomposition


def an_bn(coeff_rule: Callable[[int], float], n: int, support: int = 4096) -> dict:
    """A_n (squared window sums of the recentred coefficients, by the
    three-block identity) and the tail-sum majorant B_n with A_n <= 4 B_n.
    Includes the two one-sided square-tail sums of the classical martingale
    approximation condition. Every window sum is a difference of prefix sums."""
    l = support
    a = np.array([coeff_rule(j) for j in range(-l, l + 1)])
    probe = np.abs(np.array([coeff_rule(j) for j in list(range(l + 1, l + 129)) + list(range(-l - 128, -l))]))
    certified = float((probe**2).sum()) <= 1e-12 and float(probe.sum() ** 2) <= 1e-12
    window = partial(window_sums, prefix_sums(a), -l)  # window(lo, hi)
    j = np.arange(1, n + 1)
    i = np.arange(1, l + 1)
    # block 1: j in 1..n; blocks 2 and 3: windows sliding off either end
    b1 = float((((window(-l, -j) + window(n + 1 - j, l)) ** 2)).sum())
    b2 = float((window(i, n + i - 1) ** 2).sum())
    b3 = float((window(-i - n + 1, -i) ** 2).sum())
    # T_k = sum_{m >= k} |a_m| and Q_k = sum_{m <= -k} |a_m| for k = 1..n
    absa = np.abs(a)
    t_tail, q_tail = tail_sums(absa), prefix_sums(absa)
    b_n = float((t_tail[np.minimum(j + l, 2 * l + 1)] ** 2 + q_tail[np.maximum(l + 1 - j, 0)] ** 2).sum())
    return {
        "A_n": b1 + b2 + b3,
        "B_n": b_n,
        "heyde_tails": (float((window(i, l) ** 2).sum()), float((window(-l, -i) ** 2).sum())),
        "tail_certified": certified,
    }


@dataclass(frozen=True)
class CoboundaryDecomposition:
    """Martingale-plus-coboundary split of a linear process.

    The increments are D_i = A eps_i; the boundary terms Z_i are finite
    sums in the truncated coefficients, so the identity
    S_n = M_n + Z_1 - Z_{n+1} holds to rounding error.
    """

    spec: LinearProcess
    big_a: float = field(init=False)  # A = sum_j a_j
    # the tail sums of the coefficients a_{-t..t}, computed once
    _tail_t: np.ndarray = field(init=False, repr=False, compare=False)
    _tail_q: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = self.spec.coefficients()
        object.__setattr__(self, "big_a", float(a.sum()))
        # T_k = sum_{j>=k} a_j and Q_k = sum_{j<=-k} a_j, indexed as in z_value
        object.__setattr__(self, "_tail_t", tail_sums(a))
        object.__setattr__(self, "_tail_q", prefix_sums(a))

    def z_value(self, i: int, eps: np.ndarray, origin: int) -> float:
        """Z_i from innovations indexed eps[m + origin] = eps_m."""
        t = self.spec.truncation
        tail_t, tail_q = self._tail_t, self._tail_q
        total = 0.0
        for m in range(i - t, i):  # past: T_{i-m} with 1 <= i-m <= t
            total += float(tail_t[(i - m) + t]) * eps[m + origin]
        for m in range(i, i + t):  # future: -Q_{m-i+1}
            total -= float(tail_q[t - (m - i + 1) + 1]) * eps[m + origin]
        return total

    def identity_check(self, n: int, seed: int, tolerance: float, replicate: int = 0) -> dict:
        """The largest |S_k - M_k - Z_1 + Z_{k+1}| over k = 1..n, ok when it
        is at most tolerance."""
        t = self.spec.truncation
        gen = rngmod.stream(seed, rngmod.ROLE_INNOVATION, replicate, n)
        eps = self.spec.innovation.sample(gen, n + 4 * t + 2)
        origin = 2 * t  # eps[m + origin] = eps_m for m in 1-2t .. n+2t+2-2t
        a = self.spec.coefficients()
        x = np.array([float(a @ eps[k - t + origin : k + t + 1 + origin][::-1]) for k in range(1, n + 1)])
        s = np.cumsum(x)
        m = self.big_a * np.cumsum(eps[origin + 1 : origin + n + 1])
        z_1 = self.z_value(1, eps, origin)
        resid = np.array([abs(s[k - 1] - m[k - 1] - z_1 + self.z_value(k + 1, eps, origin)) for k in range(1, n + 1)])
        return {"max_residual": float(resid.max()), "ok": bool(resid.max() <= tolerance)}


# ---------------------------------------------------------------------------
# envelope contraction


def envelope_contraction_check(kernel: FiniteKernel, g: np.ndarray, p: float, slack: float) -> dict:
    """Conditional expectation contracts the envelope norm: for X = g(Y_0,
    Y_1) and the conditioning sigma-field generated by Y_0, the norm of
    E(X | Y_0) never exceeds the norm of X, ok within slack relative and
    slack absolute.  Both norms are exact on the finite joint law. The
    envelope weight is nonincreasing, which the contraction needs, only for
    p >= 2; smaller p is rejected."""
    if p < 2.0:
        raise DependenceError("envelope contraction needs p >= 2")
    g = np.asarray(g, dtype=float)
    if g.shape != (kernel.size, kernel.size):
        raise DependenceError("g must be a states x states value matrix")
    pi = kernel.stationary
    joint = pi[:, None] * kernel.matrix
    mask = joint > 0
    rhs = envelope_norm_discrete(g[mask], joint[mask], p)
    cond = (kernel.matrix * g).sum(axis=1)
    lhs = envelope_norm_discrete(cond, pi, p)
    return {"lhs": lhs, "rhs": rhs, "ok": bool(lhs <= rhs * (1.0 + slack) + slack)}
