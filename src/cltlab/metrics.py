"""Minimal (Wasserstein) and ideal (Zolotarev) distances, seminorms and
auxiliary norms.

All operations are pure; distributions are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from math import comb
from typing import Callable, Union

import numpy as np

from .normal import abs_moment, norm_cdf, norm_pdf, norm_pdf_derivative, norm_quantile, upper_gamma

QUAD_ABS_TOL = 1e-10
PANEL_CAP = 10**6
PANEL_BLOCK = 2**11  # panels per evaluation: a quadrature round's block, a bootstrap batch's rows times m
ASSIGNMENT_CAP = 512


class MetricsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# laws


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted weighted sample with its cumulative weights."""

    points: np.ndarray
    weights: np.ndarray

    def __init__(self, points, weights=None):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise MetricsError("empirical distribution needs a nonempty 1-d sample")
        if weights is None:
            # by value alone: only ties of -0.0 and +0.0 may change places,
            # which no distance reads
            pts = np.sort(pts)
            w = np.full(pts.size, 1.0 / pts.size)
        else:
            order = np.argsort(pts, kind="stable")
            pts = pts[order]
            w = np.asarray(weights, dtype=float)[order]
            if np.any(w <= 0):
                raise MetricsError("weights must be strictly positive")
            if abs(w.sum() - 1.0) > 1e-12:
                raise MetricsError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def cumweights(self) -> np.ndarray:
        return np.minimum(np.cumsum(self.weights), 1.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.points, x, side="right")
        cw = np.concatenate(([0.0], self.cumweights))
        return cw[idx]

    def mean(self) -> float:
        return float(self.points @ self.weights)

    def moment(self, k: int) -> float:
        return float((self.points**k) @ self.weights)

    def is_uniform(self) -> bool:
        return bool(np.allclose(self.weights, 1.0 / self.size, rtol=0, atol=1e-14))


@dataclass(frozen=True)
class GaussianLaw:
    """Centered normal law with standard deviation sigma (0 = point mass at 0)."""

    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise MetricsError("sigma must be >= 0")

    def cdf(self, x):
        if self.sigma == 0.0:
            return (np.asarray(x, dtype=float) >= 0).astype(float)
        return norm_cdf(np.asarray(x, dtype=float) / self.sigma)

    def density(self, x):
        if self.sigma == 0.0:
            raise MetricsError("point mass has no density")
        return norm_pdf(np.asarray(x, dtype=float) / self.sigma) / self.sigma

    def abs_moment(self, r: float) -> float:
        if self.sigma == 0.0:
            return 0.0
        return self.sigma**r * abs_moment(r)

    def mean(self) -> float:
        return 0.0

    def moment(self, k: int) -> float:
        if k % 2 == 1:
            return 0.0
        return self.abs_moment(k)


Law = Union[EmpiricalDistribution, GaussianLaw]


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    lower: float
    upper: float
    method: str  # exact-monotone | assignment-exact | quadrature | quadrature-capped | dictionary-lower

    def __post_init__(self):
        if not (self.lower <= self.value + 1e-12 and self.value <= self.upper + 1e-12):
            raise MetricsError("distance interval must satisfy lower <= value <= upper")


# ---------------------------------------------------------------------------
# Wasserstein distances


def _monotone_cost(x: EmpiricalDistribution, y: EmpiricalDistribution, r: float) -> float:
    """Integral of |F^{-1} - G^{-1}|^r over the common refinement of the
    cumulative-weight breakpoints (exact)."""
    cwx, cwy = x.cumweights, y.cumweights
    breaks = np.union1d(cwx, cwy)
    breaks = breaks[breaks <= 1.0 + 1e-15]
    if breaks[-1] < 1.0:
        breaks = np.append(breaks, 1.0)
    left = np.concatenate(([0.0], breaks[:-1]))
    seg = breaks - left
    mid = 0.5 * (left + breaks)
    xq = x.points[np.clip(np.searchsorted(cwx, mid), 0, x.size - 1)]
    yq = y.points[np.clip(np.searchsorted(cwy, mid), 0, y.size - 1)]
    return float(np.sum(seg * np.abs(xq - yq) ** r))


def _local_exchange(xs: np.ndarray, ys: np.ndarray, r: float) -> float:
    """Improve the sorted (monotone) matching by adjacent transpositions, in
    at most 50 passes. Cost per pair is |x_i - y_{pi(i)}|^r / M; returns the
    improved mean cost."""
    perm = np.arange(ys.size)
    cost = np.abs(xs - ys[perm]) ** r
    for _ in range(50):
        improved = False
        for i in range(xs.size - 1):
            a = np.abs(xs[i] - ys[perm[i + 1]]) ** r + np.abs(xs[i + 1] - ys[perm[i]]) ** r
            if a < cost[i] + cost[i + 1] - 1e-15:
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                cost[i] = np.abs(xs[i] - ys[perm[i]]) ** r
                cost[i + 1] = np.abs(xs[i + 1] - ys[perm[i + 1]]) ** r
                improved = True
        if not improved:
            break
    return float(cost.mean())


def wasserstein_samples(x: EmpiricalDistribution, y: EmpiricalDistribution, r: float) -> DistanceEstimate:
    """W_r between two weighted samples.

    r >= 1: exact quantile coupling (root applied).  0 < r < 1: exact
    assignment optimum for equal uniform sizes up to ASSIGNMENT_CAP, otherwise the
    monotone value is only an upper bound and is flagged as such.
    """
    if r <= 0:
        raise MetricsError("r must be positive")
    if r >= 1.0:
        v = _monotone_cost(x, y, r) ** (1.0 / r)
        return DistanceEstimate(v, v, v, "exact-monotone")
    # 0 < r < 1
    equal_uniform = x.is_uniform() and y.is_uniform() and x.size == y.size
    mono = _monotone_cost(x, y, r)
    if equal_uniform and x.size <= ASSIGNMENT_CAP:
        from scipy.optimize import linear_sum_assignment

        cost = np.abs(x.points[:, None] - y.points[None, :]) ** r
        ri, ci = linear_sum_assignment(cost)
        v = float(cost[ri, ci].mean())
        return DistanceEstimate(v, v, v, "assignment-exact")
    if equal_uniform:
        v = _local_exchange(x.points.copy(), y.points.copy(), r)
        return DistanceEstimate(min(v, mono), 0.0, mono, "quadrature")
    return DistanceEstimate(mono, 0.0, mono, "quadrature")


_GL = (np.polynomial.legendre.leggauss(8), np.polynomial.legendre.leggauss(16))  # coarse, fine
# both node sets side by side: a panel's row holds the coarse nodes, then the fine
_NODES = np.concatenate([nodes for nodes, _ in _GL])
_COARSE = _GL[0][0].size


def _node_quantiles(half, mid, out):
    """Phi^{-1} at the coarse and fine Gauss-Legendre nodes of the panels
    mid +- half, in out."""
    np.multiply(half[:, None], _NODES, out=out)
    out += mid[:, None]
    np.clip(out, 1e-300, 1.0 - 1e-16, out=out)  # keep Phi^{-1} finite at float endpoints
    return norm_quantile(out, out=out)


def _weight_panels(cw):
    """The panels [lo, hi] of nonzero width between cumulative weights, and
    the mask of the sample points they keep."""
    lo = np.concatenate(([0.0], cw[:-1]))
    hi = cw.copy()
    hi[-1] = 1.0
    keep = hi > lo
    return lo[keep], hi[keep], keep


class PanelGrid:
    """The quadrature panels of one cumulative-weight vector and Phi^{-1} at
    their coarse and fine Gauss-Legendre nodes. Samples with these weights
    share one: their first round reads the quantiles of every panel that no
    sign change splits from the table, the same values."""

    def __init__(self):
        self.cw = None

    def panels(self, cw):
        """lo, hi and keep of cw; the first call fixes cw and builds the table."""
        if self.cw is None:
            self.cw = cw
            self.lo, self.hi, self.keep = _weight_panels(cw)
            half, mid = 0.5 * (self.hi - self.lo), 0.5 * (self.hi + self.lo)
            self.table = _node_quantiles(half, mid, np.empty((half.size, _NODES.size)))
        elif not np.array_equal(cw, self.cw):
            raise MetricsError("the panel grid was built for other cumulative weights")
        return self.lo, self.hi, self.keep


def uniform_panel_grid(m: int) -> PanelGrid:
    """The PanelGrid of every unweighted m-point sample, its table built."""
    grid = PanelGrid()
    grid.panels(np.minimum(np.cumsum(np.full(m, 1.0 / m)), 1.0))  # EmpiricalDistribution's cumweights
    return grid


def _integrate_piecewise_gaussian(lo, hi, xval, sigma, r, first=None, tol=QUAD_ABS_TOL):
    """Adaptive panel integration of sum_i int_{lo_i}^{hi_i} |x_i - sigma Phi^{-1}(u)|^r du.

    Returns the integral and whether it stopped unrefined: at PANEL_CAP
    panels or after 60 rounds, the last split's panels enter at their fine
    sums. first = (table, rows) says that the first round's leading
    rows.size panels are grid panels whose node quantiles are table[rows]."""
    total = 0.0
    npanels = lo.size
    for _ in range(60):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        coarse, fine = _round_sums(half, mid, xval, sigma, r, first)
        first = None
        err = np.abs(fine - coarse)
        budget = tol * np.maximum(1.0, (hi - lo) / max(hi.max() - lo.min(), 1e-300))
        bad = err > np.maximum(budget, 1e-16)
        total += float(fine[~bad].sum())
        if not bad.any():
            return total, False
        lo_b, hi_b, x_b = lo[bad], hi[bad], xval[bad]
        cut = 0.5 * (lo_b + hi_b)
        lo = np.concatenate([lo_b, cut])
        hi = np.concatenate([cut, hi_b])
        xval = np.concatenate([x_b, x_b])
        npanels += lo.size
        if npanels > PANEL_CAP:
            break
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    return total + float(_round_sums(half, mid, xval, sigma, r)[1].sum()), True


def _round_sums(half, mid, xval, sigma, r, first=None):
    """Gauss-Legendre integrals of |x - sigma*Phi^{-1}(u)|^r per panel with
    the coarse and the fine node set. The panels are computed in place in one
    work array, a block at a time: PANEL_BLOCK rounded down to whole 16-row
    groups, at least one group. A BLAS matrix-vector kernel sums a row by its place
    in such a group (4 rows in OpenBLAS' Haswell kernel), so blocks of whole
    groups give every panel the sums of one call over the round."""
    n = half.size
    step = max(PANEL_BLOCK & -16, 16)
    work = np.empty((min(n, step), _NODES.size))
    coarse, fine = np.empty(n), np.empty(n)
    table, rows = (None, ()) if first is None else first
    for start in range(0, n, step):
        stop = min(start + step, n)
        q = work[: stop - start]
        # the block's leading grid panels; rows are in range, so mode "clip"
        # writes straight into the work array
        done = min(max(len(rows) - start, 0), stop - start)
        if done:
            np.take(table, rows[start:start + done], axis=0, out=q[:done], mode="clip")
        _node_quantiles(half[start + done:stop], mid[start + done:stop], q[done:])
        # x * 1.0 and x ** 1.0 are x exactly, so sigma = 1 and r = 1 (every
        # calibration-floor replicate) skip those passes
        if sigma != 1.0:
            q *= sigma
        np.subtract(xval[start:stop, None], q, out=q)
        np.abs(q, out=q)
        if r != 1.0:
            q **= r
        coarse[start:stop] = half[start:stop] * (q[:, :_COARSE] @ _GL[0][1])
        fine[start:stop] = half[start:stop] * (q[:, _COARSE:] @ _GL[1][1])
    return coarse, fine


def _quadrature_cost(points: np.ndarray, cw: np.ndarray, sigma: float, r: float, grid: PanelGrid | None = None):
    """int_0^1 |F^{-1}(u) - sigma Phi^{-1}(u)|^r du for sorted points with
    cumulative weights cw, by adaptive panel quadrature (sigma > 0), and
    whether the quadrature stopped unrefined. A grid of the same cw supplies
    the first round's quantiles of the panels left whole."""
    lo, hi, keep = _weight_panels(cw) if grid is None else grid.panels(cw)
    xval = points[keep]
    # split panels at the sign change of x - sigma * Phi^{-1}(u); the panels
    # left whole come first
    ustar = norm_cdf(xval / sigma)
    inside = (ustar > lo) & (ustar < hi)
    if inside.any():
        lo = np.concatenate([lo[~inside], lo[inside], ustar[inside]])
        hi = np.concatenate([hi[~inside], ustar[inside], hi[inside]])
        xval = np.concatenate([xval[~inside], xval[inside], xval[inside]])
    first = None if grid is None else (grid.table, np.flatnonzero(~inside))
    return _integrate_piecewise_gaussian(lo, hi, xval, sigma, r, first)


def wasserstein_vs_gaussian(x: EmpiricalDistribution, g: GaussianLaw, r: float,
                            grid: PanelGrid | None = None) -> DistanceEstimate:
    """W_r between a weighted sample and a centered Gaussian, by piecewise
    quadrature of the quantile formula: method "quadrature", or
    "quadrature-capped" when the refinement stopped at PANEL_CAP or its round
    limit. Against a point mass (sigma = 0) it is the exact sum,
    "exact-monotone". A PanelGrid passed with every sample of the same
    weights shares the first round's node quantiles among them, bit for bit.

    The panel tolerance QUAD_ABS_TOL stops refining the two log-singular end
    panels early: at r = 1, M = 10^4 the integral is low by about 4e-11
    absolute (7e-9 relative) against the exact panel sums of
    gaussian_panel_integrals."""
    if r <= 0:
        raise MetricsError("r must be positive")
    sigma = g.sigma
    if sigma == 0.0:
        v = float(np.sum(x.weights * np.abs(x.points) ** r))
        v = v ** (1.0 / r) if r >= 1.0 else v
        return DistanceEstimate(v, v, v, "exact-monotone")
    integral, capped = _quadrature_cost(x.points, x.cumweights, sigma, r, grid)
    method = "quadrature-capped" if capped else "quadrature"
    if r >= 1.0:
        v = integral ** (1.0 / r)
        return DistanceEstimate(v, v, v, method)
    # monotone coupling not proven optimal for concave costs against a diffuse law
    return DistanceEstimate(integral, 0.0, integral, method)


def gaussian_panel_integrals(lo, hi, x, sigma: float, r: int) -> np.ndarray:
    """Exact int_lo^hi |x - sigma Phi^{-1}(u)|^r du per panel, for integer
    r >= 1 and sigma > 0; the arguments broadcast.

    With z = Phi^{-1}(u) a panel is int_a^b |x - sigma z|^r phi(z) dz. Split
    at z* = x / sigma, each half has one sign and expands binomially into
    sum_k C(r, k) x^{r-k} (-sigma)^k I_k with I_k = int z^k phi:
    I_0 = the exact u-width, I_1 = phi(a) - phi(b) and
    I_k = (k - 1) I_{k-2} + a^{k-1} phi(a) - b^{k-1} phi(b).
    A zero-width panel gives exactly 0."""
    if r < 1 or r != int(r) or sigma <= 0:
        raise MetricsError("exact panels need an integer r >= 1 and sigma > 0")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a, b = norm_quantile(lo), norm_quantile(hi)
    return _gaussian_panels(lo, hi, a, b, norm_pdf(a), norm_pdf(b), _point_terms(np.asarray(x, dtype=float), sigma, int(r)))


def _point_terms(x, sigma, r):
    """The terms of _gaussian_panels that depend on x alone, so that panels
    of the same points can share them."""
    # the recursion makes I_k = c_k (u-width) + p_k(a) phi(a) - p_k(b) phi(b)
    # with c_k = (k-1) c_{k-2} and p_k = (k-1) p_{k-2} + z^{k-1}, so a half
    # panel is q * (u-width) + H(a) - H(b) with H(z) = phi(z) P(z)
    c, p = [1, 0], [[], [1]]
    for k in range(2, r + 1):
        c.append((k - 1) * c[k - 2])
        p.append([(k - 1) * v for v in p[k - 2]] + [0, 1])
    coef = [comb(r, k) * (-sigma) ** k * x ** (r - k) for k in range(r + 1)]
    q = sum(ck * ak for ck, ak in zip(c, coef))
    poly = [sum(coef[k] * p[k][j] for k in range(j + 1, r + 1)) for j in range(r)]
    # the split z* = x / sigma, the nearer end e of (0, 1), the tail mass t
    # beyond z* signed towards e, and phi(z*)
    zstar = x / sigma
    up = zstar > 0.0
    end = np.where(up, 1.0, 0.0)
    tail = np.where(up, 1.0, -1.0) * norm_cdf(-np.abs(zstar))
    return r, q, poly, zstar, end, tail, norm_pdf(zstar)


def _gaussian_panels(lo, hi, a, b, pa, pb, terms):
    """gaussian_panel_integrals given the z-ends a, b, their densities and
    the _point_terms of x."""
    r, q, poly, zstar, end, tail, pstar = terms

    def h(z, pdf):
        if r == 1:
            return pdf * poly[0]
        z = np.where(pdf > 0.0, z, 0.0)  # phi(z) P(z) -> 0 at infinite z
        acc = poly[-1]
        for cj in poly[-2::-1]:
            acc = acc * z + cj
        return pdf * acc

    # split where x - sigma z changes sign. The u-widths of the halves are
    # measured from the nearer end e, where the tail mass t has full
    # relative precision: (e - lo) -/+ t and -/+ t - (e - hi). A split
    # outside the panel falls on its nearer end, so that half has width
    # exactly 0
    wl = (end - lo) - tail
    wr = tail - (end - hi)
    span = hi - lo
    at_lo, at_hi = wl <= 0.0, wr <= 0.0
    ps = np.where(at_lo, pa, np.where(at_hi, pb, pstar))
    # H(z) = -sigma phi(z) does not depend on z at r = 1
    zs = zstar if r == 1 else np.where(at_lo, a, np.where(at_hi, b, zstar))
    hs = h(zs, ps)
    left = q * np.minimum(np.maximum(wl, 0.0), span) + h(a, pa) - hs
    right = q * np.minimum(np.maximum(wr, 0.0), span) + hs - h(b, pb)
    return np.abs(left) + np.abs(right)


@lru_cache(maxsize=8)
def _quantile_table(m: int) -> tuple:
    """Phi^{-1}(k / m) and its density for k = 0..m, read-only (shared)."""
    z = norm_quantile(np.arange(m + 1) / m)
    pdf = norm_pdf(z)
    z.flags.writeable = pdf.flags.writeable = False
    return z, pdf


def wasserstein_vs_gaussian_counts(points: np.ndarray, chunks, g: GaussianLaw, r: float) -> np.ndarray:
    """W_r against g of each row's law sum_j counts[i, j] delta_{points[j]} / m,
    for the rows of every 2-d array of counts in chunks, in order; points is
    sorted and every row sums to m.

    Integer r uses the exact panels of gaussian_panel_integrals, whose terms
    in the points alone are computed once for all chunks; other r the same
    quadrature as wasserstein_vs_gaussian. Rows are evaluated
    independently: a row's value does not depend on the rows or chunks
    beside it."""
    if r <= 0:
        raise MetricsError("r must be positive")
    sigma = g.sigma
    exact = sigma > 0.0 and r == int(r)
    if exact:
        terms = _point_terms(points, sigma, int(r))
    costs = []
    for counts in chunks:
        m = int(counts[0].sum())
        if sigma == 0.0:
            cost = (counts * np.abs(points) ** r).sum(axis=1) / m
        elif exact:
            # panel j of a row spans the cumulative weights k[j] / m .. k[j + 1] / m
            k = np.zeros((counts.shape[0], counts.shape[1] + 1), dtype=np.int64)
            np.cumsum(counts, axis=1, out=k[:, 1:])
            z_tab, pdf_tab = _quantile_table(m)
            u, z, pdf = k / m, (np.take(z_tab, k) if r > 1 else k), np.take(pdf_tab, k)  # z unread at r = 1
            cost = _gaussian_panels(u[:, :-1], u[:, 1:], z[:, :-1], z[:, 1:], pdf[:, :-1], pdf[:, 1:], terms).sum(axis=1)
        else:
            cost = np.empty(counts.shape[0])
            for i, row in enumerate(counts):
                keep = row > 0
                cw = np.minimum(np.cumsum(row[keep] / m), 1.0)
                cost[i] = _quadrature_cost(points[keep], cw, sigma, r)[0]
        costs.append(cost ** (1.0 / r) if r >= 1.0 else cost)
    return np.concatenate(costs)


def gaussian_gaussian_distance(a: GaussianLaw, b: GaussianLaw, r: float) -> float:
    """W_r between two centered Gaussians, from quantile scaling."""
    if r <= 0:
        raise MetricsError("r must be positive")
    d = abs(a.sigma - b.sigma)
    if r >= 1.0:
        return d * abs_moment(r) ** (1.0 / r)
    return d**r * abs_moment(r)


def wasserstein(x: Law, y: Law, r: float) -> DistanceEstimate:
    """Dispatch W_r over the supported law pairs."""
    if isinstance(x, GaussianLaw) and isinstance(y, GaussianLaw):
        v = gaussian_gaussian_distance(x, y, r)
        return DistanceEstimate(v, v, v, "exact-monotone")
    if isinstance(x, EmpiricalDistribution) and isinstance(y, GaussianLaw):
        return wasserstein_vs_gaussian(x, y, r)
    if isinstance(x, GaussianLaw) and isinstance(y, EmpiricalDistribution):
        return wasserstein_vs_gaussian(y, x, r)
    return wasserstein_samples(x, y, r)


# ---------------------------------------------------------------------------
# Kolmogorov distance


def distinct(values) -> np.ndarray:
    """The sorted distinct values of an array, as np.unique returns them, by
    one sort and a mask of where the value changes: np.unique loads
    numpy.ma, which nothing else here needs."""
    v = np.sort(np.ravel(values))
    keep = np.ones(v.size, dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep]


def kolmogorov(x: Law, g: Law) -> float:
    """Exact sup-norm distance between the two distribution functions."""
    pts = []
    for law in (x, g):
        if isinstance(law, EmpiricalDistribution):
            pts.append(law.points)
        elif law.sigma == 0.0:
            pts.append(np.array([0.0]))
    if not pts:
        # two diffuse Gaussians: the sup is at the density crossing x*
        lo, hi = sorted((x.sigma, g.sigma))
        if lo == hi:
            return 0.0
        cross = lo * hi * np.sqrt(2.0 * np.log(hi / lo) / (hi * hi - lo * lo))
        return float(abs(x.cdf(cross) - g.cdf(cross)))
    pts = distinct(np.concatenate(pts))
    # the sup is attained either at a breakpoint or as a left limit there
    (xr, xl), (gr, gl) = _cdf_both(x, pts), _cdf_both(g, pts)
    return float(max(np.max(np.abs(xr - gr)), np.max(np.abs(xl - gl))))


def _cdf_both(law: Law, pts: np.ndarray) -> tuple:
    """The d.f. of law at pts and its left limits there."""
    right = law.cdf(pts)
    if isinstance(law, GaussianLaw):
        return right, (right if law.sigma > 0.0 else (pts > 0).astype(float))
    cw = np.concatenate(([0.0], law.cumweights))
    return right, cw[np.searchsorted(law.points, pts, side="left")]


# ---------------------------------------------------------------------------
# envelope norm


U_WEIGHT_KINK = 0.31731050786291415  # 2 (1 - Phi(1)): the weight equals 1 above this u


def envelope_norm_discrete(values: np.ndarray, probs: np.ndarray, p: float):
    """Exact envelope norm int_0^1 Q(u) w(u) du of a finite law, Q the
    piecewise-constant quantile of |X| and w the envelope weight. A stack of
    laws, one per row of values, that share probs gives one norm per row,
    each equal to the norm of its row alone.

    With a_0 >= a_1 >= ... the sorted |x|, c_j their cumulative weights and
    a_n = 0, summation by parts turns sum_j a_j (W(c_{j+1}) - W(c_j)) into
    sum_j (a_{j-1} - a_j) W(c_j): nonnegative terms, so pieces of any width
    keep full relative precision. W is the closed form of
    _weight_antiderivative, evaluated only where a step is nonzero (tied
    |x| give zero steps): a zero step times a finite W adds 0 either way."""
    a = np.abs(np.asarray(values, dtype=float))
    order = np.argsort(-a, axis=-1)  # quantile of |X| is nonincreasing
    a = np.take_along_axis(a, order, axis=-1)
    c = np.minimum(np.cumsum(np.asarray(probs, dtype=float)[order], axis=-1), 1.0)
    steps = a - np.append(a[..., 1:], np.zeros(a.shape[:-1] + (1,)), axis=-1)
    w = np.zeros(c.shape)
    live = steps != 0.0
    w[live] = _weight_antiderivative(c[live], p)
    # a numpy reduction, not a BLAS dot, so the same under any thread count
    norms = np.sum(steps * w, axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def _weight_antiderivative(u, p: float) -> np.ndarray:
    """W(u) = int_0^u (1 v Phi^{-1}(1 - v/2))^{p-2} dv for u in [0, 1].

    Below the kink, v = 2 Phi(-z) maps the integral onto
    int_z^inf s^{p-2} 2 phi(s) ds = 2^{(p-2)/2} Gamma((p-1)/2, z^2/2) / sqrt(pi)
    with z = -Phi^{-1}(u/2) > 1; above it the weight is 1, which adds
    (u - kink)_+. At p = 2, W(u) = u exactly."""
    u = np.asarray(u, dtype=float)
    if abs(p - 2.0) < 1e-15:
        return u
    z = -norm_quantile(np.minimum(u, U_WEIGHT_KINK) / 2.0)
    below = 2.0 ** (0.5 * (p - 2.0)) / np.sqrt(np.pi) * upper_gamma(0.5 * (p - 1.0), 0.5 * z * z)
    return below + np.maximum(u - U_WEIGHT_KINK, 0.0)


# ---------------------------------------------------------------------------
# grid functions, seminorm, smoothing


@dataclass(frozen=True)
class GridFunction:
    """Function sampled on a uniform grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.size != v.size or g.size < 3:
            raise MetricsError("grid and values must match and have >= 3 points")
        h = np.diff(g)
        if not np.allclose(h, h[0], rtol=1e-9, atol=1e-12):
            raise MetricsError("grid spacing must be constant")
        if not np.all(np.isfinite(v)):
            raise MetricsError("values must be finite")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @staticmethod
    def from_callable(f, lo: float = -8.0, hi: float = 8.0, n: int = 2**13 + 1) -> "GridFunction":
        g = np.linspace(lo, hi, n)
        return GridFunction(g, np.asarray(f(g), dtype=float))


def _grid_derivative(f: GridFunction, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference derivative of the given order, endpoints trimmed."""
    v = f.values.copy()
    g = f.grid.copy()
    for _ in range(order):
        v = np.gradient(v, f.spacing)
        v, g = v[1:-1], g[1:-1]
    return g, v


def lambda_seminorm(f: GridFunction, r: float) -> float:
    """Grid estimate (from below) of the Holder seminorm |f|_{Lambda_r}."""
    if r <= 0:
        raise MetricsError("r must be positive")
    l = int(np.ceil(r)) - 1
    if f.grid.size < l + 3:
        raise MetricsError("grid too coarse for the requested derivative order")
    g, d = _grid_derivative(f, l)
    s = r - l
    if abs(s - 1.0) < 1e-12:
        # Lipschitz constant of f^{(l)}: adjacent slopes are extremal
        return float(np.max(np.abs(np.diff(d))) / f.spacing)
    return _holder_lag_scan(g, d, s)


def _holder_lag_scan(g: np.ndarray, d: np.ndarray, s: float) -> float:
    """max over pairs i != j of |d_i - d_j| / |g_i - g_j|^s, lag by lag.

    Every ratio at lag k is at most min(k L1, R) / (k h)^s, with L1 the
    largest adjacent difference of d, R its range and h the smallest
    spacing of g. A lag whose bound, taken 1e-12 larger to cover rounding,
    is below the running best holds no larger ratio and is skipped; once
    k L1 >= R the bound falls with k, so the first skip ends the scan. The
    ratios computed are those of the all-pairs scan, so its maximum is
    returned bit for bit."""
    l1 = float(np.max(np.abs(np.diff(d)), initial=0.0))
    spread = float(np.max(d) - np.min(d))
    spacing = np.diff(g)
    # the lag-k distances are at least k h only on a monotone grid
    monotone = np.all(spacing > 0) or np.all(spacing < 0)
    h = float(np.min(np.abs(spacing), initial=np.inf)) if monotone else 0.0
    best = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, g.size):
            if min(k * l1, spread) * (1.0 + 1e-12) < best * (k * h) ** s:
                if k * l1 >= spread:
                    break
                continue
            ratio = np.abs(d[k:] - d[:-k]) / np.abs(g[k:] - g[:-k]) ** s
            ratio[~np.isfinite(ratio)] = 0.0
            best = max(best, float(ratio.max()))
    return best


def gaussian_smooth(f: GridFunction, t: float) -> GridFunction:
    """Convolution with the N(0, t^2) density, kernel truncated at 8t.

    The result is returned on the grid trimmed by the kernel half-width, so
    every output value is a full (truncated) convolution.
    """
    if t <= 0:
        raise MetricsError("t must be positive")
    h = f.spacing
    k = int(np.ceil(8.0 * t / h))
    z = np.arange(-k, k + 1) * h
    w = norm_pdf(z / t) / t * h
    w /= w.sum()  # truncation mass ~ 2*Phi(-8); renormalized so constants are fixed
    if f.grid.size <= 2 * k + 2:
        raise MetricsError("grid too short for the smoothing kernel")
    vals = np.convolve(f.values, w, mode="valid")
    return GridFunction(f.grid[k:-k], vals)


def _smoothing_constant(r: float, p: float) -> float:
    """Constant c_{r,p} of the Gaussian smoothing inequality."""
    if p < r:
        raise MetricsError("requires p >= r")
    if abs(p - r) < 1e-12:
        return 1.0
    from scipy.integrate import quad

    j = int(np.ceil(r)) - 1  # j < r <= j+1

    def c_integer(m: int) -> float:
        if abs(m - r) < 1e-12:
            return 1.0
        val, _ = quad(
            lambda z: abs(z) ** (r - j) * abs(norm_pdf_derivative(m - j, z)),
            -40.0,
            40.0,
            epsabs=1e-12,
            limit=400,
        )
        return float(val)

    if abs(p - round(p)) < 1e-12:
        return c_integer(int(round(p)))
    i = int(np.floor(p))
    if i == j:  # j < r < p < j+1
        return float(c_integer(j + 1) ** ((p - r) / (j + 1 - r)))
    # r <= i < p < i+1
    ci = c_integer(i)
    ci1 = c_integer(i + 1)
    return float((2.0 * ci) ** (1.0 - (p - i)) * ci1 ** (p - i))


def smoothing_lemma_check(f: GridFunction, cases) -> list:
    """Numerically verify |f * phi_t|_{Lambda_p} <= c_{r,p} t^{r-p} |f|_{Lambda_r}
    for each (r, p, t) in cases, one result per case in case order. f is
    smoothed once per t, and each seminorm is computed once: the left side
    per (t, p), the right side per r, the constant per (r, p)."""
    if any(p < r for r, p, _ in cases):
        raise MetricsError("requires p >= r")
    smoothed = cache(lambda t: gaussian_smooth(f, t))
    lhs_norm = cache(lambda t, p: lambda_seminorm(smoothed(t), p))
    rhs_norm = cache(lambda r: lambda_seminorm(f, r))
    constant = cache(_smoothing_constant)
    results = []
    for r, p, t in cases:
        lhs, c = lhs_norm(t, p), constant(r, p)
        rhs = c * t ** (r - p) * rhs_norm(r)
        results.append({"lhs": lhs, "rhs": rhs, "constant": c, "ok": bool(lhs <= rhs * (1.0 + 1e-3) + 1e-12)})
    return results


# ---------------------------------------------------------------------------
# Zolotarev ideal distance


def _integral_against(law: Law, fvals: Callable[[np.ndarray], np.ndarray]) -> float:
    if isinstance(law, EmpiricalDistribution):
        return float(fvals(law.points) @ law.weights)
    if law.sigma == 0.0:
        return float(fvals(np.array([0.0]))[0])
    from scipy.integrate import quad

    val, _ = quad(lambda x: float(fvals(np.array([x]))[0]) * law.density(x), -10 * law.sigma, 10 * law.sigma, epsabs=1e-11, limit=400)
    return float(val)


def _law_support(law: Law) -> tuple[float, float]:
    if isinstance(law, EmpiricalDistribution):
        return float(law.points.min()), float(law.points.max())
    return -8.0 * max(law.sigma, 1e-12), 8.0 * max(law.sigma, 1e-12)


def _translate_seminorm_bound(r: float) -> float:
    """Upper bound on |   |x-a|^r |_{Lambda_r}."""
    l = int(np.ceil(r)) - 1
    if l == 0:
        return 2.0 ** (1.0 - r) if r < 1 else 1.0
    if l == 1:  # f' = r sign(x-a)|x-a|^{r-1}
        return r * 2.0 ** (2.0 - r)
    # l == 2, 2 < r <= 3: f'' = r(r-1)|x-a|^{r-2}
    return r * (r - 1.0) * 2.0 ** (3.0 - r)


def zolotarev(x: Law, y: Law, r: float) -> DistanceEstimate:
    """Ideal distance of order r.

    r <= 1: equals W_r (Kantorovich-Rubinstein).  r > 1: certified dictionary
    lower bound only; the upper endpoint is +inf and rate experiments use W_r
    as the measured proxy. The distance is infinite unless the means (and for
    r > 2 the second moments) agree within 1e-8.
    """
    if r <= 0:
        raise MetricsError("r must be positive")
    if r <= 1.0:
        return wasserstein(x, y, r)
    # finiteness requires matching moments: mean for r > 1, second moment for r > 2
    if abs(x.mean() - y.mean()) > 1e-8:
        return DistanceEstimate(np.inf, np.inf, np.inf, "dictionary-lower")
    if r > 2.0 and abs(x.moment(2) - y.moment(2)) > 1e-8:
        return DistanceEstimate(np.inf, np.inf, np.inf, "dictionary-lower")
    lo_x, hi_x = _law_support(x)
    lo_y, hi_y = _law_support(y)
    lo, hi = min(lo_x, lo_y), max(hi_x, hi_y)
    centers = np.linspace(lo, hi, 41)
    bound = _translate_seminorm_bound(r)
    best = 0.0
    for a in centers:
        f = lambda t, a=a: np.abs(t - a) ** r / bound
        gap = _integral_against(x, f) - _integral_against(y, f)
        best = max(best, abs(gap))
    return DistanceEstimate(best, best, np.inf, "dictionary-lower")
