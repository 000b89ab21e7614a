"""Reproducible generators for the example processes: a slowly mixing
integer chain, (functions of) two-sided linear processes, expanding interval
maps, and an iid baseline — with their exact auxiliary structure (kernels,
stationary laws, invariant densities, long-run variances).
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice
from typing import Callable, Optional, Protocol, Union

import numpy as np

from . import rng as rngmod

DEFAULT_BUDGET = 2 * 10**9  # replicates x largest grid point allowed per batch
REPLICATE_CHUNK = 2048
COEFF_TAIL_TOL = 1e-10  # l2 mass allowed in the probed coefficient tail


class ProcessError(ValueError):
    pass


class BudgetError(ProcessError):
    """A batch asks for more replicate-steps than its budget."""


# ---------------------------------------------------------------------------
# innovations


@dataclass(frozen=True)
class InnovationLaw:
    """Centered innovation law with closed-form variance.

    kinds: gaussian, rademacher, uniform (on [-sqrt(3), sqrt(3)]), and
    symmetric_pareto with tail index q (moments of order < q only), the one
    kind that takes q.
    """

    kind: str
    q: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "rademacher", "uniform", "symmetric_pareto"):
            raise ProcessError(f"unknown innovation kind: {self.kind}")
        if self.kind == "symmetric_pareto":
            if self.q is None or self.q <= 2.0:
                raise ProcessError("symmetric_pareto needs tail index q > 2")
        elif self.q is not None:
            raise ProcessError(f"kind {self.kind} takes no tail index q")

    @property
    def variance(self) -> float:
        if self.kind in ("gaussian", "rademacher", "uniform"):
            return 1.0
        return self.q / (self.q - 2.0)

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "gaussian":
            return gen.standard_normal(size)
        if self.kind == "rademacher":
            return 2.0 * (gen.random(size) < 0.5) - 1.0
        if self.kind == "uniform":
            return np.sqrt(3.0) * (2.0 * gen.random(size) - 1.0)
        u = gen.random((2, size))
        mag = u[0] ** (-1.0 / self.q)
        sign = np.where(u[1] < 0.5, -1.0, 1.0)
        return sign * mag


# ---------------------------------------------------------------------------
# finite Markov kernels


class FiniteKernel:
    """Row-stochastic kernel on integer states with its stationary law, held
    as slot-major rows: the kernel moves from state index i to cols[slot, i]
    with probability weights[slot, i], a narrow row padded with zero-weight
    slots to the width of the widest, so apply sums whole contiguous rows.
    The rows are checked here, and the dense matrix is made only when
    `matrix` is first read."""

    def __init__(self, states, cols, weights, stationary):
        states = np.asarray(states, dtype=int)
        cols = np.ascontiguousarray(cols, dtype=np.intp)
        weights = np.ascontiguousarray(weights, dtype=float)
        pi = np.asarray(stationary, dtype=float)
        if states.size == 0:
            raise ProcessError("kernel needs at least one state")
        if cols.shape != weights.shape or cols.shape[1:] != states.shape or pi.shape != states.shape:
            raise ProcessError("rows and stationary law must have one column per state")
        if np.any((cols < 0) | (cols >= states.size)):
            raise ProcessError("row targets must be state indices")
        if np.any(weights < -1e-15):
            raise ProcessError("negative transition probability")
        # every row sums to 1 and pi K = pi, each within 1e-12
        if np.max(np.abs(weights.sum(axis=0) - 1.0)) > 1e-12:
            raise ProcessError("rows must sum to 1 within 1e-12")
        if np.max(np.abs(np.bincount(cols.ravel(), (weights * pi).ravel(), pi.size) - pi)) > 1e-12:
            raise ProcessError("stationary vector residual exceeds 1e-12")
        if not _strongly_connected(cols, weights > 0):
            raise ProcessError("kernel is not irreducible")
        self.states, self.stationary, self.cols, self.weights = states, pi, cols, weights

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense kernel, summed from the rows one slot at a time."""
        k = np.zeros((self.size, self.size))
        rows = np.arange(self.size)
        for cols, weights in zip(self.cols, self.weights):
            k[rows, cols] += weights
        return k

    @property
    def size(self) -> int:
        return self.states.size

    def apply(self, f: np.ndarray) -> np.ndarray:
        """(Kf)(s) = sum_j K(s, j) f(j), summed over row s's slots in order,
        so the result is the same under any BLAS."""
        return (self.weights * np.asarray(f, dtype=float)[self.cols]).sum(axis=0)


def _strongly_connected(cols: np.ndarray, live: np.ndarray) -> bool:
    """Whether the digraph with an edge from i to cols[slot, i] wherever
    live[slot, i] has one strong component: state 0 reaches every state
    along the edges and along the reversed edges. Each direction is a
    breadth-first search over adjacency lists, so a level costs the edges
    out of its frontier. False for the empty graph."""
    n = cols.shape[1]
    if n == 0:
        return False
    tails = np.broadcast_to(np.arange(n), cols.shape)[live]
    heads = cols[live]
    for tail, head in ((tails, heads), (heads, tails)):
        starts = np.concatenate(([0], np.cumsum(np.bincount(tail, minlength=n)))).tolist()
        targets = head[np.argsort(tail, kind="stable")].tolist()
        seen = bytearray(n)
        seen[0] = 1
        frontier = [0]
        while frontier:
            grown = []
            for s in frontier:
                for t in targets[starts[s]:starts[s + 1]]:
                    if not seen[t]:
                        seen[t] = 1
                        grown.append(t)
            frontier = grown
        if 0 in seen:
            return False
    return True


def davydov_schedule(p: float, eps: float, n: int) -> np.ndarray:
    """Up-step probabilities a_0..a_{n-1}: 1/2 below the crossover index i0
    and 1 - (p/2i)(1 + (1+eps)/log i) from it on."""
    if not (2.0 < p <= 3.0):
        raise ProcessError("p must lie in (2, 3]")
    if eps <= 0:
        raise ProcessError("eps must be positive")
    i0 = _schedule_crossover(p, eps)
    i = np.arange(i0, n, dtype=float)
    return np.concatenate((np.full(min(i0, n), 0.5), 1.0 - (p / (2.0 * i)) * (1.0 + (1.0 + eps) / np.log(i))))


def _schedule_crossover(p: float, eps: float) -> int:
    """Smallest i >= 2 at which the schedule formula stays >= 1/2."""
    for i in range(2, 10**6):
        if 1.0 - (p / (2.0 * i)) * (1.0 + (1.0 + eps) / np.log(i)) >= 0.5:
            return i
    raise ProcessError("schedule never reaches 1/2")


def renewal_kernel(a: np.ndarray, functional: str) -> tuple[FiniteKernel, np.ndarray]:
    """Truncated kernel of the drift-to-zero chain on -n_max..n_max (state s
    at index n_max + s) and its functional, from the schedule a_0..a_{n_max-1}
    alone, all checked. The kernel is built from two slot-major entries per
    row, the up step and the drop to 0, with no dense matrix; its
    stationary law is the renewal law.

    From state n > 0 the chain moves to n+1 with probability a_n and drops
    to 0 otherwise (mirrored for n < 0); from 0 it moves to +-1 with equal
    probability.  Boundary rows at +-n_max are redirected wholly to 0.
    f1 is +-1 at +-1 and zero elsewhere; f2 is 1 at 0, 0 at +-1, and
    1 - 1/a_n at +-(n+1). Both have zero conditional mean off the boundary.
    """
    n_max = a.size
    if n_max < 4:
        raise ProcessError("n_max must be >= 4")
    if abs(a[0] - 0.5) > 1e-12:
        raise ProcessError("a_0 must equal 1/2")
    if np.any(a[1:] < 0.5) or np.any(a[1:] >= 1.0):
        raise ProcessError("need 1/2 <= a_n < 1 for n >= 1")
    # recurrence diagnostic: sum of prefix products of a_k over the truncated
    # range should be visibly summable (ratio test on the last terms)
    prods = np.cumprod(a[1:])
    if prods.size >= 8 and prods[-1] > 0.5 * prods[prods.size // 2]:
        warnings.warn("prefix products of a_n are not visibly summable on the truncated range", RuntimeWarning)
    # the only way into n >= 2 is from n - 1: pi(+-n) = pi(0) / 2 * a_1 ... a_{n-1}
    half = 0.5 * np.concatenate(([1.0], prods))
    pi = np.concatenate((half[::-1], [1.0], half))
    pi /= pi.sum()
    f = np.zeros(pi.size)
    if functional == "f1":
        f[n_max + 1], f[n_max - 1] = 1.0, -1.0
    elif functional == "f2":
        f[n_max] = 1.0
        f[n_max + 2:] = 1.0 - 1.0 / a[1:]
        f[:n_max - 1] = f[:n_max + 1:-1]
    else:
        raise ProcessError(f"unknown functional kind: {functional}")
    # slot 0 is the up step, taken when the step's uniform is below a_|s|;
    # slot 1 the drop to 0; from 0 the slots are +1 and -1
    i = np.arange(pi.size)
    threshold = np.concatenate(([0.0], a[:0:-1], [0.5], a[1:], [0.0]))
    moves = np.stack((i + np.sign(i - n_max), np.full(pi.size, n_max)))
    moves[:, n_max] = n_max + 1, n_max - 1
    moves[0, [0, -1]] = n_max
    kernel = FiniteKernel(i - n_max, moves, np.stack((threshold, 1.0 - threshold)), pi)
    kf = np.max(np.abs(kernel.apply(f)[1:-1]))
    if kf > 1e-12:
        raise ProcessError(f"conditional-mean residual {kf:.2e} exceeds 1e-12 on interior states")
    return kernel, f


# ---------------------------------------------------------------------------
# Markov operators


def lp_norm_discrete(values: np.ndarray, probs: np.ndarray, p: float) -> float:
    """A numpy reduction, not a BLAS dot, so the same under any thread count."""
    return float(np.sum(probs * np.abs(values) ** p) ** (1.0 / p))


def second_moments(apply, f: np.ndarray, n: int):
    """E(S_m^2 | Y_0 = s) for m = 1..n, S_m = sum_{i<=m} f(Y_i), exact by the first-step
    recursion T_{m+1} = K(f^2 + 2 f h_m + T_m), h_{m+1} = K(f + h_m) over apply(h) = Kh."""
    t = h = np.zeros(f.size)  # both are rebound, never written
    f2 = f * f
    for _ in range(n):
        t = apply(f2 + 2.0 * f * h + t)
        h = apply(f + h)
        yield t


@dataclass(frozen=True)
class MarkovOperator:
    """A Markov family's apply(h)(s) = E(h(Y_1) | Y_0 = s) on its states, with
    their stationary weights, the centered observable fc and the family's
    inner product; each exact series of the family is a method here."""

    weights: np.ndarray
    fc: np.ndarray
    apply: Callable[[np.ndarray], np.ndarray]
    inner: Callable[[np.ndarray, np.ndarray], float]

    def powers(self):
        """K fc, K^2 fc, ... without end."""
        v = self.fc
        while True:
            v = self.apply(v)
            yield v

    def covariance_series(self, lag_cap: int, tol: float, min_lags: int = 0) -> dict:
        """Long-run variance record: sigma2 = c_0 + 2 sum_k c_k and sigma_n2(n) =
        c_0 + 2 sum_k (1 - k/n)_+ c_k, c_k = inner(fc, K^k fc), stopped at the first
        |c_k| below tol * c_0 once there are more than min_lags terms, or after lag_cap lags."""
        covs = [self.inner(self.fc, self.fc)]
        for v in islice(self.powers(), lag_cap):
            covs.append(self.inner(self.fc, v))
            if abs(covs[-1]) < tol * max(covs[0], 1e-300) and len(covs) > min_lags:
                break
        covs = np.array(covs)
        kk = np.arange(1, covs.size)
        return {"sigma2": float(covs[0] + 2.0 * covs[1:].sum()),
                "sigma_n2": lambda n: float(covs[0] + 2.0 * np.sum(np.maximum(1.0 - kk / n, 0.0) * covs[1:])),
                "method": "kernel-power"}

    def second_moment_laws(self, n_terms: int) -> tuple:
        """Exact over the states under the weights; see Family."""
        w, moments = self.weights, second_moments(self.apply, self.fc, n_terms)
        return w, ((t / n, float(np.sum(w * t)) / n) for n, t in enumerate(moments, 1))

    def projective_terms(self, which: str, p: float, n_terms: int) -> tuple:
        """Cond1cob's ||K^n fc||_p or Condcobp3adap's ||g_n||_3 / n, g_n = sum_{k >= n} K^k fc
        (its geometric tail summed out); the anticipative half vanishes for an adapted fc."""
        extra = {"anticipative_terms": 0.0}
        if which == "Cond1cob":
            return [lp_norm_discrete(v, self.weights, p) for v in islice(self.powers(), n_terms)], extra
        g = np.zeros(self.fc.size)
        for k, v in enumerate(islice(self.powers(), 10**5 - 1), 1):
            if k > n_terms + 1 and np.max(np.abs(v)) < 1e-15:
                break
            g += v
        terms = []
        for n, v in zip(range(1, n_terms + 1), self.powers()):
            terms.append((1.0 / n) * lp_norm_discrete(g, self.weights, 3.0))
            g = g - v
        return terms, extra


# ---------------------------------------------------------------------------
# process specifications


@dataclass(frozen=True)
class DavydovChain:
    p: float
    eps: float
    functional: str = "f1"  # f1 | f2
    n_max: int = 400

    def __post_init__(self):
        if self.n_max < 4:
            raise ProcessError("n_max must be >= 4")
        if self.functional not in ("f1", "f2"):
            raise ProcessError(f"unknown functional kind: {self.functional}")

    @cached_property
    def kernel(self) -> tuple[FiniteKernel, np.ndarray]:
        """The checked kernel and functional, built once per chain object."""
        return renewal_kernel(davydov_schedule(self.p, self.eps, self.n_max), self.functional)

    @cached_property
    def operator(self) -> MarkovOperator:
        """The kernel's apply under pi; numpy reductions, not BLAS dots, so
        every series is the same under any thread count."""
        kernel, f = self.kernel
        pi = kernel.stationary
        return MarkovOperator(pi, f - float(np.sum(pi * f)), kernel.apply, lambda u, v: float(np.sum(pi * (u * v))))

    def batch_sums(self, seed: int):
        return partial(_davydov_sums, *self.kernel)

    def long_run_variance(self, seed: int) -> dict:
        return self.operator.covariance_series(lag_cap=4096, tol=1e-14, min_lags=8)

    def second_moment_laws(self, n_terms: int, outer: int, seed: int) -> tuple:
        return self.operator.second_moment_laws(n_terms)

    def projective_terms(self, which: str, p: float, n_terms: int, mc: int, seed: int) -> tuple:
        return self.operator.projective_terms(which, p, n_terms)


@dataclass(frozen=True)
class LinearProcess:
    """Two-sided moving average X_k = sum_j a_j eps_{k+j}, truncated to
    |j| <= truncation (reflecting the iid eps gives the same law as the sum
    over eps_{k-j}). The coefficients are evaluated once, at construction,
    which also rejects a rule whose probed tail exceeds COEFF_TAIL_TOL."""

    coeff_rule: Callable[[int], float]
    innovation: InnovationLaw = InnovationLaw("gaussian")
    truncation: int = 64
    _a: np.ndarray = field(init=False, repr=False, compare=False)
    _pasts: dict = field(init=False, repr=False, compare=False, default_factory=dict)  # (mc, seed) -> pasts

    def __post_init__(self):
        t = self.truncation
        a = np.array([self.coeff_rule(j) for j in range(-t, t + 1)])
        probe = np.array([self.coeff_rule(j) for j in list(range(t + 1, t + 257)) + list(range(-t - 256, -t))])
        if np.sum(probe**2) > COEFF_TAIL_TOL:
            raise ProcessError("coefficient tail above the l2 truncation tolerance")
        a.flags.writeable = False
        object.__setattr__(self, "_a", a)

    def coefficients(self) -> np.ndarray:
        """a_{-t..t} as a read-only array."""
        return self._a

    def batch_sums(self, seed: int):
        return partial(_window_sums_kernel, self)

    def long_run_variance(self, seed: int) -> dict:
        var_eps = self.innovation.variance
        sigma2 = float(self._a.sum()) ** 2 * var_eps

        def sigma_n2(n: int) -> float:
            # Var(S_n)/n = Var(eps)/n * sum_j c_j(n)^2
            return var_eps * float(np.sum(self.window(n) ** 2)) / n

        return {"sigma2": sigma2, "sigma_n2": sigma_n2, "method": "closed-form"}

    def second_moment_laws(self, n_terms: int, outer: int, seed: int) -> tuple:
        """Over outer Monte Carlo pasts eps_{1-t}..eps_0, with the inner
        expectation in closed form: E(S_n^2 | past) = (past part of S_n)^2 +
        Var(eps) times the future window's squared l2 norm; the mean
        E(S_n^2)/n is closed form too. See Family."""
        t, var_eps = self.truncation, self.innovation.variance
        gen = rngmod.stream(seed, rngmod.ROLE_CALIBRATION, 0, 0)
        past = self.innovation.sample(gen, outer * t).reshape(outer, t)

        def laws():
            for n in range(1, n_terms + 1):
                c = self.window(n)  # c[:t] weighs eps_{1-t}..eps_0, c[t:] eps_1..eps_{n+t}
                future_var = var_eps * float((c[t:] ** 2).sum())
                yield ((past @ c[:t]) ** 2 + future_var) / n, var_eps * float((c**2).sum()) / n

        return np.full(outer, 1.0 / outer), laws()

    def projective_terms(self, which: str, p: float, n_terms: int, mc: int, seed: int) -> tuple:
        """Over mc Monte Carlo pasts eps_{-t}..eps_0 with E(X_k | F_0) in closed form;
        Cond1cob adds the anticipative half. The pasts are drawn once per (mc, seed) and
        object, so Cond1cob and Condcobp3adap read the same draw. See Family."""
        a, t = self._a, self.truncation
        eps = self._pasts.get((mc, seed))
        if eps is None:
            gen = rngmod.stream(seed, rngmod.ROLE_CALIBRATION, 1, 0)
            eps = self.innovation.sample(gen, mc * (t + 1)).reshape(mc, t + 1)
            eps.flags.writeable = False
            self._pasts[mc, seed] = eps

        def lp_of_coeffs(w, q):
            return 0.0 if np.allclose(w, 0.0) else float(np.mean(np.abs(eps[:, : w.size] @ w) ** q) ** (1.0 / q))

        ns = range(1, n_terms + 1)
        if which == "Cond1cob":
            # the adapted window a_n..a_{n+t} and the anticipative a_{-n-1}..a_{-n-t-1}, zero beyond |j| = t
            ad = [lp_of_coeffs(np.array([a[j + t] if j <= t else 0.0 for j in range(n, n + t + 1)]), p) for n in ns]
            an = [lp_of_coeffs(np.array([a[t - j] if j <= t else 0.0 for j in range(n + 1, n + t + 2)]), p) for n in ns]
            return [x + y for x, y in zip(ad, an)], {"adapted": ad, "anticipative": an}
        tail = np.concatenate((np.cumsum(a[::-1])[::-1], [0.0]))  # T_i over i = -t..t+1
        # the coefficient of eps_m (m <= 0) in sum_{k >= n} E(X_k | F_0) is T_{n-m} = sum_{j >= n-m} a_j
        return [(1.0 / n) * lp_of_coeffs(tail[np.minimum(np.arange(n, n + t + 1) + t, 2 * t + 1)], 3.0) for n in ns], {}

    def window(self, n: int) -> np.ndarray:
        """c_j(n) = sum_{k=1..n} a_{k-j} for j = 1-t..n+t, the weight of
        eps_j in S_n."""
        t = self.truncation
        j = np.arange(1 - t, n + t + 1)
        return window_sums(np.concatenate(([0.0], np.cumsum(self._a))), -t, 1 - j, n - j)


@dataclass(frozen=True)
class FunctionOfLinear:
    base: LinearProcess
    h_rule: Union[str, Callable[[np.ndarray], np.ndarray]] = "identity"
    gamma: float = 1.0
    alpha: float = 0.0
    centering_draws: int = 10**7

    def __post_init__(self):
        _check_modulus(self.h(), self.gamma, self.alpha)

    def h(self) -> Callable[[np.ndarray], np.ndarray]:
        if callable(self.h_rule):
            return self.h_rule
        if self.h_rule == "identity":
            return lambda x: np.asarray(x, dtype=float)
        if self.h_rule == "abs_power":
            g = self.gamma
            return lambda x: np.abs(x) ** g
        raise ProcessError(f"unknown h_rule: {self.h_rule}")

    def batch_sums(self, seed: int):
        h = self.h()
        center = _centering_constant(self.base, h, seed, self.centering_draws)[0]
        return partial(_linear_sums, self.base.coefficients(), self.base.innovation, lambda v: h(v) - center)

    def long_run_variance(self, seed: int) -> dict:
        # no closed form: batch-means estimate on one long path; the variance
        # of the batch means does not move with a shift, so h is not centered
        n_total, n_batch = 2**18, 2**12
        v = self.h()(sample_linear_process(self.base, n_total, seed)).reshape(-1, n_batch)
        means = v.sum(axis=1) / np.sqrt(n_batch)
        sigma2 = float(np.var(means))
        stderr = float(sigma2 * np.sqrt(2.0 / (means.size - 1)))
        return {"sigma2": sigma2, "sigma_n2": lambda n: sigma2, "method": "batch-means", "stderr": stderr}


@dataclass(frozen=True)
class ExpandingMap:
    """Uniformly expanding interval map with an observable.

    kind: beta (T(x) = beta x mod 1), gauss (T(x) = 1/x - 1 mod 1),
    piecewise_affine (full branches, T(x) = slope_k x + offset_k mod 1).
    """

    kind: str
    beta: float = 2.0
    breakpoints: tuple = ()
    slopes: tuple = ()
    offsets: tuple = ()
    observable: Union[str, Callable[[np.ndarray], np.ndarray]] = "identity"

    def __post_init__(self):
        if self.kind not in ("beta", "gauss", "piecewise_affine"):
            raise ProcessError(f"unknown map kind: {self.kind}")
        if self.kind == "beta" and self.beta <= 1.0:
            raise ProcessError("beta must exceed 1")
        if not callable(self.observable) and self.observable != "identity":
            raise ProcessError(f"unknown observable: {self.observable}")
        if self.kind == "piecewise_affine":
            if len(self.slopes) == 0 or len(self.breakpoints) != len(self.slopes) + 1:
                raise ProcessError("need k slopes and k+1 breakpoints")
            if any(abs(s) <= 1.0 for s in self.slopes):
                raise ProcessError("slopes must exceed 1 in modulus")
            if abs(self.breakpoints[0]) > 1e-15 or abs(self.breakpoints[-1] - 1.0) > 1e-15:
                raise ProcessError("breakpoints must span [0, 1]")

    def f(self) -> Callable[[np.ndarray], np.ndarray]:
        if callable(self.observable):
            return self.observable
        return lambda x: np.asarray(x, dtype=float)

    @cached_property
    def branches(self) -> list:
        """_map_branches' (slope, offset, lo, hi) with a whole flag per
        branch, built once per map object; see _whole_branch."""
        return [(*b, _whole_branch(*b)) for b in _map_branches(self)]

    @cached_property
    def density(self) -> DensityGrid:
        """The invariant density, computed once per map object."""
        return invariant_density(self)

    @cached_property
    def operator(self) -> MarkovOperator:
        """The dual kernel (Kh)(x) = E[h(prev) | x] on the density grid, weighted
        by the density times each node's trapezoid weight."""
        density, f = self.density, self.f()
        x, w = density.x, density.values
        node = np.convolve(np.diff(x), [1.0, 1.0]) * w
        return MarkovOperator(node / node.sum(), f(x) - density.mean_of(f),
                              partial(_dual_kernel_apply, self, x, density), lambda u, v: float(np.trapezoid(u * v * w, x)))

    def batch_sums(self, seed: int):
        return partial(_expanding_sums, self, self.density)

    def long_run_variance(self, seed: int) -> dict:
        return self.operator.covariance_series(lag_cap=200, tol=1e-13)


@dataclass(frozen=True)
class IIDBaseline:
    law: InnovationLaw = InnovationLaw("gaussian")

    def batch_sums(self, seed: int):
        # the linear process with a = [1.0]: a convolution with one unit
        # coefficient returns the innovations exactly
        return partial(_linear_sums, np.ones(1), self.law, lambda v: v)

    def long_run_variance(self, seed: int) -> dict:
        v = self.law.variance
        return {"sigma2": v, "sigma_n2": lambda n: v, "method": "closed-form"}

    def second_moment_laws(self, n_terms: int, outer: int, seed: int) -> tuple:
        """E(S_n^2 | F_0)/n = Var(eps) for every n, a one-point law; see Family."""
        v = self.law.variance
        return np.ones(1), ((np.full(1, v), v) for _ in range(n_terms))


class Family(Protocol):
    """batch_sums(seed): the kernel (n_grid, seed, replicates) -> normalized
    sums, one row per replicate, with its per-batch tables built.
    long_run_variance(seed): sigma2, sigma_n2(n), method, and a stderr when
    the value is estimated. Optional:
    - operator, the MarkovOperator every exact series reads (DavydovChain, ExpandingMap);
    - second_moment_laws(n_terms, outer, seed) -> (weights, laws), for C1, C2, Cond2cob
      and Cond2cobp3: laws yields, for n = 1..n_terms, the values of E(S_n^2 | F_0)/n
      and their mean E(S_n^2)/n (DavydovChain, LinearProcess, IIDBaseline);
    - projective_terms(which, p, n_terms, mc, seed) -> (terms, diagnostics), Cond1cob's or
      Condcobp3adap's norms of E(X_k | F_0) (DavydovChain, LinearProcess)."""

    def batch_sums(self, seed: int) -> Callable[[tuple, int, range], np.ndarray]: ...

    def long_run_variance(self, seed: int) -> dict: ...


@dataclass(frozen=True)
class ProcessSpec:
    family: Family
    seed: int = 0


# ---------------------------------------------------------------------------
# linear processes


def sample_linear_process(spec: LinearProcess, n: int, seed: int, replicate: int = 0) -> np.ndarray:
    """X_1..X_n from the truncated convolution of the replicate's innovation
    stream eps_{1-t}, eps_{2-t}, ...: X_k = sum_{j=-t}^{t} a_j eps_{k+j},
    by correlating against the coefficients."""
    gen = rngmod.stream(seed, rngmod.ROLE_INNOVATION, replicate, 0)
    return _linear_path_values(spec.coefficients(), spec.innovation, n, gen)


def window_sums(cs: np.ndarray, first: int, lo, hi) -> np.ndarray:
    """sum_{l=lo..hi} a_l, elementwise in lo and hi, from the prefix sums
    cs = [0, a_first, a_first + a_{first+1}, ...] of the coefficients
    a_first..a_last; lags outside first..last count as zero."""
    top = cs.size - 1
    lo = np.maximum(lo, first)
    hi = np.minimum(hi, first + top - 1)
    return np.where(hi >= lo, cs[np.clip(hi - first + 1, 0, top)] - cs[np.clip(lo - first, 0, top)], 0.0)


def _check_modulus(h, gamma: float, alpha: float) -> None:
    """Reject h whose continuity modulus blows past t^gamma M^alpha."""
    for m in (1.0, 2.0, 4.0):
        x = np.linspace(-m, m, 4001)
        hx = h(x)
        ratios = []
        for k in (1, 4, 16, 64):
            t = k * (x[1] - x[0])
            w = float(np.max(np.abs(hx[k:] - hx[:-k])))
            ratios.append(w / (t**gamma * m**alpha))
        # for a valid bound the ratio stays bounded as t -> 0; a growing
        # small-t ratio means the true exponent is below the declared gamma
        if ratios[0] > 8.0 * max(ratios[-1], 1e-12):
            raise ProcessError("modulus bound violated on the check grid")


def _centering_constant(base: LinearProcess, h, seed: int, draws: int) -> tuple[float, float]:
    a = base.coefficients()
    total = 0.0
    total2 = 0.0
    done = 0
    chunk = max(1, int(2**22 // a.size))
    gen = rngmod.stream(seed, rngmod.ROLE_CENTERING, 0, 0)
    while done < draws:
        m = min(chunk, draws - done)
        eps = base.innovation.sample(gen, m * a.size).reshape(m, a.size)
        v = h(eps @ a)
        total += float(v.sum())
        total2 += float((v**2).sum())
        done += m
    mean = total / draws
    var = max(total2 / draws - mean**2, 0.0)
    return mean, float(np.sqrt(var / draws))


# ---------------------------------------------------------------------------
# expanding maps


@dataclass(frozen=True)
class DensityGrid:
    """Probability density sampled on the uniform grid x = linspace(0, 1, G + 1),
    G a power of two, so that x[j] = j * 2^-k and y * G are exact.

    The interpolation slopes and the trapezoid CDF are built once with the
    grid, so `at` and `quantile` do no per-call setup."""

    x: np.ndarray
    values: np.ndarray
    _slopes: np.ndarray = field(init=False, repr=False, compare=False)
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values, dtype=float)
        cells = x.size - 1
        uniform = cells >= 1 and not cells & (cells - 1) and np.array_equal(x, np.linspace(0.0, 1.0, x.size))
        if not uniform or v.shape != x.shape:
            raise ProcessError("a density grid is np.linspace(0, 1, 2^k + 1) with one value per node")
        # np.interp's own slope formula; the trailing 0 makes y = 1 return values[G]
        slopes = np.append((v[1:] - v[:-1]) / (x[1:] - x[:-1]), 0.0)
        cdf = np.concatenate(([0.0], np.cumsum((v[1:] + v[:-1]) / 2.0 * np.diff(x))))
        cdf /= cdf[-1]
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_cdf", cdf)

    def mean_of(self, f) -> float:
        return float(np.trapezoid(f(self.x) * self.values, self.x))

    def quantile(self, u) -> np.ndarray:
        """Inverse of the trapezoid CDF at probabilities u."""
        return np.interp(u, self._cdf, self.x)

    def at(self, y) -> np.ndarray:
        """np.interp(y, x, values), bit for bit, for y in [0, 1] and finite
        values other than -0.0: y * G is exact on the 2^k grid, so its
        integer part is the node below y, then np.interp's own formula
        slope * (y - x[j]) + values[j]."""
        y = np.asarray(y, dtype=float)
        j = (y * (self.x.size - 1)).astype(np.intp)
        out = y - self.x.take(j)
        out *= self._slopes.take(j)
        out += self.values.take(j)
        return out


def _map_branches(spec: ExpandingMap):
    """Full affine branches (slope, offset, interval) for beta and
    piecewise-affine maps."""
    if spec.kind == "beta":
        b = spec.beta
        k = int(np.ceil(b))
        branches = []
        for m in range(k):
            lo, hi = m / b, min((m + 1) / b, 1.0)
            branches.append((b, -float(m), lo, hi))
        return branches
    if spec.kind == "piecewise_affine":
        return [
            (float(s), float(o), float(lo), float(hi))
            for s, o, lo, hi in zip(spec.slopes, spec.offsets, spec.breakpoints[:-1], spec.breakpoints[1:])
        ]
    raise ProcessError("branch decomposition only for affine-branch maps")


def _fold(y: np.ndarray, lo: float, hi: float) -> tuple:
    """The preimage y folded into [0, 1) (the mod-1 offset taken back) and
    clipped to the branch interval [lo, hi], and where the folded y lay in
    [lo, hi] within 1e-12."""
    y = y - np.floor(y)
    return np.clip(y, lo, hi), (y >= lo - 1e-12) & (y <= hi + 1e-12)


def _whole_branch(slope: float, off: float, lo: float, hi: float) -> bool:
    """Whether the fold and clip return every preimage (x - off) / slope of
    x in [0, 1] as it is, all of them valid. Subtraction and division round
    monotonically, so the preimages lie between the two ends', and the ends
    decide it: each must come back bit for bit with its sign bit clear (the
    fold turns -0.0 into +0.0)."""
    ends = (np.array([0.0, 1.0]) - off) / slope
    y, valid = _fold(ends, lo, hi)
    return bool(valid.all() and not np.signbit(ends).any() and y.tobytes() == ends.tobytes())


def _branch_weights(spec: ExpandingMap, x: np.ndarray, rho):
    """(y, w) per affine branch, one array each, for x in [0, 1]: y is the
    preimage of x under the branch, folded into [0, 1] and clipped to the
    branch interval [lo, hi], and w = rho(y) / |slope| where the folded
    preimage lies in [lo, hi] (within 1e-12), 0 elsewhere. A whole branch
    skips the fold, the clip and the mask, which leave it as it is."""
    for slope, off, lo, hi, whole in spec.branches:
        y = (x - off) / slope
        if whole:
            yield y, rho(y) / abs(slope)
        else:
            y, valid = _fold(y, lo, hi)
            yield y, np.where(valid, rho(y) / abs(slope), 0.0)


def invariant_density(spec: ExpandingMap) -> DensityGrid:
    """Invariant density of the map on the uniform grid of 2^12 cells.

    beta = integer: Lebesgue (constant 1).  gauss: the classical
    1/((1+x) log 2) law.  Otherwise the fixed point of the transfer operator
    by power iteration, stopped when a step moves no value by 1e-10.
    """
    x = np.linspace(0.0, 1.0, 2**12 + 1)
    if spec.kind == "beta" and abs(spec.beta - round(spec.beta)) < 1e-15:
        return DensityGrid(x, np.ones_like(x))
    if spec.kind == "gauss":
        return DensityGrid(x, 1.0 / ((1.0 + x) * np.log(2.0)))
    # transfer-operator power iteration: (Lh)(x) = sum h(y)/|T'(y)| over preimages
    h = np.ones_like(x)
    for it in range(10**5):
        new = sum(w for _, w in _branch_weights(spec, x, lambda y: np.interp(y, x, h)))
        new /= np.trapezoid(new, x)
        if np.max(np.abs(new - h)) < 1e-10:
            return DensityGrid(x, new)
        h = new
    raise ProcessError("transfer-operator power iteration did not converge")


def transfer_duality_residual(spec: ExpandingMap, h, f) -> float:
    """Residual of the adjoint identity int (Kh) f dmu = int h (f o T) dmu
    for the transfer operator K of an affine-branch map.

    Both sides are computed by 64 composite 16-node Gauss-Legendre panels
    split at the branch endpoints; for integer beta and polynomial h, f the
    quadrature is exact to rounding.
    """
    rho = spec.density
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)

    def integrate(fn, lo, hi):
        edges = np.linspace(lo, hi, 65)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        pts = mid[:, None] + half[:, None] * gl_x[None, :]
        return float((half[:, None] * gl_w[None, :] * fn(pts.ravel()).reshape(pts.shape)).sum())

    def kh(x):
        x = np.asarray(x, dtype=float)
        total = sum(h(y) * w for y, w in _branch_weights(spec, x, rho.at))
        return total / np.maximum(rho.at(x), 1e-300)

    lhs = integrate(lambda x: kh(x) * f(x) * rho.at(x), 0.0, 1.0)
    rhs = 0.0
    for slope, off, lo, hi in _map_branches(spec):
        rhs += integrate(lambda x: h(x) * f((slope * x + off) - np.floor(slope * x + off)) * rho.at(x), lo, hi)
    return abs(lhs - rhs)


def _dual_step(spec: ExpandingMap, x: np.ndarray, u: np.ndarray, density: DensityGrid) -> np.ndarray:
    """One step of the time-reversed chain: draw a preimage of each x with
    the invariant-density weights.  The reversed chain has the same law of
    partial sums as the forward orbit.  u < 1, so the branch index is the
    number of normalized cumulative weights below u."""
    if spec.kind == "gauss":
        # closed-form inverse cdf of the branch index for a = 1
        m = np.ceil((1.0 + x) / (1.0 - u) - x - 1.0)
        m = np.maximum(m, 1.0)
        return 1.0 / (x + m)
    ys, cum = [], []
    for y, w in _branch_weights(spec, x, density.at):
        ys.append(y)
        cum.append(cum[-1] + w if cum else w)
    pick = sum(u > c / cum[-1] for c in cum[:-1])
    return np.concatenate(ys)[pick * x.size + np.arange(x.size)]


# ---------------------------------------------------------------------------
# trajectory batches


STEP_BLOCK = 256  # per-step uniforms are drawn in blocks of this many steps
STEP_TILE = 128  # replicates transposed into step-major order at a time


@dataclass(frozen=True)
class TrajectoryBatch:
    """Normalized partial sums n^{-1/2} S_n for each n on a grid, M
    replicates each.

    Every grid point reads the same per-replicate path (common random
    numbers), so distance curves share their sampling noise across n and
    slope fits see the rate, not the noise.  Streams are keyed by
    (seed, role, replicate), making the batch bit-identical under any
    replicate chunking, thread count or CPU count."""

    n_grid: tuple
    sums: dict  # n -> array of M values

    def __post_init__(self):
        for n, v in self.sums.items():
            if not np.all(np.isfinite(v)):
                raise ProcessError(f"non-finite normalized sum at n={n}")

    def values(self, n: int) -> np.ndarray:
        return self.sums[n]


def _step_rows(gens: list, n_steps: int):
    """(t, u_t) for t = 1..n_steps, where u_t holds every replicate's t-th
    uniform as one contiguous row of a reused (STEP_BLOCK, replicates)
    buffer, so a row is valid until the next one is drawn. Each replicate's
    stream is read in blocks of STEP_BLOCK draws, which yields the same
    doubles as one long draw."""
    rows = min(STEP_BLOCK, n_steps)
    u = np.empty((rows, len(gens)))
    tile = np.empty((STEP_TILE, rows))
    for start in range(0, n_steps, rows):
        block = min(rows, n_steps - start)
        views = list(tile[:, :block])  # one row view per tile slot, shared by every tile of replicates
        for col in range(0, len(gens), STEP_TILE):
            part = gens[col:col + STEP_TILE]
            for g, view in zip(part, views):
                g.random(out=view)
            u[:block, col:col + len(part)] = tile[:len(part), :block].T
        yield from enumerate(u[:block], start + 1)


def _davydov_sums(kernel: FiniteKernel, f: np.ndarray, n_grid, seed: int, replicates: range) -> np.ndarray:
    """From state index i the chain moves to moves[2i] when the step's
    uniform is below threshold[i] and to moves[2i + 1] otherwise: the two
    slots of the kernel's row i."""
    cum_pi, threshold, moves = np.cumsum(kernel.stationary), kernel.weights[0], kernel.cols.T.ravel()
    marks = {n: col for col, n in enumerate(n_grid)}
    idx = np.searchsorted(cum_pi, rngmod.first_draws(seed, rngmod.ROLE_INIT, replicates))
    gens = rngmod.streams(seed, rngmod.ROLE_STEP, replicates)
    out = np.empty((len(replicates), len(n_grid)))
    total = np.zeros(len(replicates))
    thr, down = np.empty(len(replicates)), np.empty(len(replicates), dtype=bool)
    for n_done, u in _step_rows(gens, n_grid[-1]):
        np.greater_equal(u, np.take(threshold, idx, out=thr), out=down)
        idx = moves[2 * idx + down]
        total += f[idx]
        if n_done in marks:
            out[:, marks[n_done]] = total / np.sqrt(n_done)
    return out


def _expanding_sums(spec: ExpandingMap, density: DensityGrid, n_grid, seed: int, replicates: range) -> np.ndarray:
    f = spec.f()
    mu_f = density.mean_of(f)
    marks = {n: col for col, n in enumerate(n_grid)}
    x = density.quantile(rngmod.first_draws(seed, rngmod.ROLE_INIT, replicates))
    gens = rngmod.streams(seed, rngmod.ROLE_STEP, replicates)
    out = np.empty((len(replicates), len(n_grid)))
    total = f(x) - mu_f
    if 1 in marks:
        out[:, marks[1]] = total
    is_dyadic = spec.kind == "beta" and abs(spec.beta - 2.0) < 1e-15
    for t, u in _step_rows(gens, n_grid[-1] - 1):
        if is_dyadic:
            x = 0.5 * (x + (u < 0.5))
        else:
            x = _dual_step(spec, x, u, density)
        total += f(x) - mu_f
        if t + 1 in marks:
            out[:, marks[t + 1]] = total / np.sqrt(t + 1)
    return out


def _linear_path_values(a: np.ndarray, law: InnovationLaw, n_top: int, gen: np.random.Generator) -> np.ndarray:
    """X_1..X_n_top for the coefficients a_{-t..t}, from the replicate's
    innovation stream gen."""
    eps = law.sample(gen, n_top + a.size - 1)
    return np.convolve(eps, a[::-1], mode="valid")


def _window_sums_kernel(spec: LinearProcess, n_grid, seed: int, replicates: range) -> np.ndarray:
    """n^{-1/2} S_n of a linear process with S_n = sum_m w_n[m] eps[m] over
    the replicate's innovation draw eps: w_n is window(n) reversed, since
    the path reads the stream as X_k = sum_j a_j eps_{k+j}. The row sums
    are numpy reductions, never a BLAS product, so they do not depend on
    the thread count."""
    spill = spec.coefficients().size - 1
    weights = np.zeros((len(n_grid), n_grid[-1] + spill))
    for row, n in enumerate(n_grid):
        weights[row, :n + spill] = spec.window(n)[::-1]
    gens = rngmod.streams(seed, rngmod.ROLE_INNOVATION, replicates)
    sums = [np.sum(weights * spec.innovation.sample(gen, weights.shape[1]), axis=1) for gen in gens]
    return np.array(sums) / np.sqrt(n_grid)


def _linear_sums(a: np.ndarray, law: InnovationLaw, observe, n_grid, seed: int, replicates: range) -> np.ndarray:
    """Partial sums of observe(X_1..X_n) along the path of a linear process:
    h(X_k) - E h(V) for a function of one, X_k itself for the iid baseline."""
    marks = np.asarray(n_grid)
    out = np.empty((len(replicates), marks.size))
    for row, gen in enumerate(rngmod.streams(seed, rngmod.ROLE_INNOVATION, replicates)):
        cs = np.cumsum(observe(_linear_path_values(a, law, int(marks[-1]), gen)))
        out[row] = cs[marks - 1] / np.sqrt(marks)
    return out


def available_cpus() -> int:
    """CPUs this process may run on; 1 on a platform without sched_getaffinity
    (it may not fork either)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def even_ranges(count: int, parts: int) -> list:
    """range(count) cut into parts contiguous ranges whose sizes differ by at most one."""
    bounds = [count * i // parts for i in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def run_parts(fn, parts: list) -> list:
    """[fn(*part) for part in parts], in part order, on every CPU this process
    may run on. This process computes the first ceil(len(parts) / workers)
    parts, with one worker per CPU and at most one per part, and forks a worker
    for each further run of as many, which pickles its results, or the
    exception a part raised, down its own pipe. The first exception in part
    order is raised here; a worker that dies without a record raises
    ProcessError. Computing a share, rather than waiting, leaves malloc as a
    serial run leaves it."""
    workers = min(available_cpus(), len(parts))
    if workers <= 1:
        return [fn(*part) for part in parts]
    own = -(-len(parts) // workers)
    children, records = [], None  # (pid, read end, its parts) of each worker, and what it sent
    try:
        for lo in range(own, len(parts), own):
            name = f"parts {lo}..{min(lo + own, len(parts)) - 1}"
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                try:  # the worker exits here, and never returns into its caller
                    for fd in [read] + [pipe.fileno() for _, pipe, _ in children]:
                        os.close(fd)
                    try:
                        data = pickle.dumps((True, [fn(*part) for part in parts[lo:lo + own]]))
                    except Exception as exc:
                        try:
                            data = pickle.dumps((False, exc))
                        except Exception:
                            data = pickle.dumps((False, ProcessError(f"{name}: cannot pickle {exc!r}")))
                    with open(write, "wb") as pipe:
                        pipe.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children.append((pid, open(read, "rb"), name))
        results = [fn(*part) for part in parts[:own]]
        records = [pipe.read() for _, pipe, _ in children]
    finally:  # reap every worker, and after an error kill it first
        codes = []
        for pid, pipe, _ in children:
            if records is None:
                os.kill(pid, signal.SIGKILL)
            pipe.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (_, _, name), data, code in zip(children, records, codes):
        why = f"signal {-code}" if code < 0 else f"exit code {code}"
        ok, value = pickle.loads(data) if code == 0 else (False, ProcessError(f"{name}: no result, ended by {why}"))
        if not ok:
            raise value
        results += value
    return results


def partial_sums_batch(
    spec: ProcessSpec,
    n_grid,
    m: int,
    budget: int = DEFAULT_BUDGET,
) -> TrajectoryBatch:
    """M replicates of n^{-1/2} S_n for each n, each replicate reading one
    common path from its counter-based stream keyed by (spec.seed, replicate).
    A batch of more than budget replicate-steps (M x largest n) raises
    BudgetError before any work.

    The replicates are split into equal parts, about REPLICATE_CHUNK each,
    whose count is a multiple of the workers (one per available CPU, at most
    one per part), and computed by run_parts; the rows are joined in
    replicate order, so the batch does not depend on the CPU count."""
    n_grid = tuple(int(v) for v in n_grid)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])) or n_grid[0] < 1:
        raise ProcessError("n_grid must be strictly increasing and positive")
    if m < 100:
        raise ProcessError("need at least 100 replicates")
    if m * max(n_grid) > budget:
        raise BudgetError(f"requested {m} replicates x n = {max(n_grid)} exceeds the budget of "
                          f"{budget} replicate-steps; raise 'budget' or shrink the plan")
    seed = spec.seed
    # per-family tables (coefficients, step tables, invariant density) are
    # built once here, before any fork, and shared by every part
    chunk_sums = spec.family.batch_sums(seed)
    chunks = -(-m // REPLICATE_CHUNK)
    workers = min(available_cpus(), chunks)
    ranges = even_ranges(m, -(-chunks // workers) * workers)
    table = np.concatenate(run_parts(chunk_sums, [(n_grid, seed, r) for r in ranges]))
    sums = {n: table[:, col] for col, n in enumerate(n_grid)}
    return TrajectoryBatch(n_grid, sums)


# ---------------------------------------------------------------------------
# long-run variances


def long_run_variance(spec: ProcessSpec) -> dict:
    """sigma^2 = lim Var(S_n)/n and the finite-n variance function, by the
    closed form, kernel power series or estimate of the spec's family."""
    return spec.family.long_run_variance(spec.seed)


def _dual_kernel_apply(spec: ExpandingMap, x: np.ndarray, density: DensityGrid, h: np.ndarray) -> np.ndarray:
    """(Kh)(x) = sum over preimages y of x of w(y) h(y), the conditional
    expectation of the reversed chain (equals the transfer operator acting
    on h f_mu, divided by f_mu)."""
    if spec.kind == "gauss":  # the first 399 branches; their weights sum to 1 - (1 + x)/(x + 400)
        pairs = ((1.0 / (x + m), (1.0 + x) * (1.0 / (x + m) - 1.0 / (x + m + 1.0))) for m in range(1, 400))
    else:
        pairs = _branch_weights(spec, x, density.at)
    out = np.zeros_like(x)
    wsum = np.zeros_like(x)
    for y, w in pairs:
        out += w * np.interp(y, x, h)
        wsum += w
    return out / np.maximum(wsum, 1e-300)
