"""Rate-measurement harness: distance curves between normalized partial sums
and their Gaussian limit, and exponent fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .metrics import (
    PANEL_BLOCK,
    EmpiricalDistribution,
    GaussianLaw,
    PanelGrid,
    kolmogorov,
    uniform_panel_grid,
    wasserstein_vs_gaussian,
    wasserstein_vs_gaussian_counts,
)
from .processes import (
    DEFAULT_BUDGET,
    ProcessSpec,
    long_run_variance,
    partial_sums_batch,
    run_parts,
)

DEFAULT_N_GRID = tuple(2**k for k in range(6, 15))
BOOTSTRAP_RESAMPLES = 200
FLOOR_FACTOR = 3.0
FLOOR_SEED = 2024  # keys the calibration floor's samples
MIN_FIT_POINTS = 4


class ExperimentError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentPlan:
    process: ProcessSpec
    p: float
    r_list: tuple
    n_grid: tuple = DEFAULT_N_GRID
    m: int = 10**4
    target: str = "sigma2"  # sigma2 | sigma_n2
    calibration: bool = True

    def __post_init__(self):
        if not (2.0 < self.p <= 3.0):
            raise ExperimentError("p must lie in (2, 3]")
        for r in self.r_list:
            if not (self.p - 2.0 - 1e-12 <= r <= self.p + 1e-12):
                raise ExperimentError(f"r = {r} outside [p-2, p] = [{self.p - 2}, {self.p}]")
        if self.target not in ("sigma2", "sigma_n2"):
            raise ExperimentError(f"unknown target: {self.target}")
        # variance matching beyond second moments needs the finite-n variance
        if any(r > 2.0 for r in self.r_list) and self.target != "sigma_n2":
            raise ExperimentError("target sigma_n2 is required when any r > 2")
        n_grid = self.n_grid
        if any(b <= a for a, b in zip(n_grid, n_grid[1:])) or any(n < 1 or n & (n - 1) for n in n_grid):
            raise ExperimentError("n_grid must be strictly increasing powers of two")


@dataclass(frozen=True)
class RateFitResult:
    points: tuple  # records per (n, r)
    fits: dict  # r -> fit record
    sigma2: float


def theoretical_exponent(r: float, p: float) -> dict:
    """Predicted decay exponents of the smooth-class and coupling distances,
    with the log factor arising only at (r, p) = (1, 3)."""
    if not (2.0 < p <= 3.0) or r <= 0:
        raise ExperimentError("need p in (2, 3] and r > 0")
    zeta = -r / 2.0 if r < p - 2.0 else 1.0 - p / 2.0
    w = -(p - 2.0) / (2.0 * max(1.0, r))
    return {"zeta_exp": zeta, "w_exp": w, "log_factor": bool(r == 1.0 and p == 3.0)}


def _floor_value(m: int, r: float, replicate: int, grid: PanelGrid) -> float:
    """The floor's distance of one replicate. Every replicate has the weights
    1/m, so they share the grid of uniform_panel_grid(m): Phi^{-1} at the
    quadrature nodes is computed once, not per replicate. The value is
    wasserstein_vs_gaussian's, bit for bit."""
    gen = rngmod.stream(FLOOR_SEED, rngmod.ROLE_CALIBRATION, replicate, m)
    return wasserstein_vs_gaussian(EmpiricalDistribution(gen.standard_normal(m)), GaussianLaw(1.0), r, grid).value


def calibration_floor(m: int, r: float, reps: int = 100, grid: PanelGrid | None = None) -> dict:
    """Mean coupling distance between an m-point standard normal sample and
    the standard normal itself: the resolution limit of the estimator.

    Each replicate is one part of run_parts, which computes one contiguous
    run of them per available CPU; a replicate's value does not depend on
    its run, so the mean and stderr do not depend on the CPU count. Every
    replicate uses grid, uniform_panel_grid(m) (built here when not given),
    so a forked worker inherits its tables instead of computing them again."""
    if m < 100:
        raise ExperimentError("m must be >= 100")
    if grid is None:
        grid = uniform_panel_grid(m)
    vals = np.array(run_parts(_floor_value, [(m, r, i, grid) for i in range(reps)]))
    return {"mean": float(vals.mean()), "stderr": float(vals.std(ddof=1) / np.sqrt(reps))}


def _bootstrap_stderr(values: np.ndarray, g: GaussianLaw, r: float, seed: int, n: int) -> float:
    """Standard deviation of the distance over BOOTSTRAP_RESAMPLES resamples.

    The sample is sorted once; a resample is a row of counts over the sorted
    points. Rows are evaluated in batches of PANEL_BLOCK // m (at least
    one), so a batch holds at most max(m, PANEL_BLOCK) panels; a row's value
    does not depend on the batch it is in."""
    m = values.size
    chunk = max(1, PANEL_BLOCK // m)
    order = np.argsort(values, kind="stable")
    gen = rngmod.stream(seed, rngmod.ROLE_BOOTSTRAP, 0, n)

    def resamples():
        for start in range(0, BOOTSTRAP_RESAMPLES, chunk):
            counts = np.empty((min(chunk, BOOTSTRAP_RESAMPLES - start), m), dtype=np.int64)
            for row in counts:
                row[:] = np.bincount(gen.integers(0, m, size=m), minlength=m)[order]
            yield counts

    return float(wasserstein_vs_gaussian_counts(values[order], resamples(), g, r).std(ddof=1))


def _point(vals: np.ndarray, g: GaussianLaw, r: float, seed: int, n: int, grid: PanelGrid) -> tuple:
    """(value, mc_stderr) of one (n, r) point."""
    return (wasserstein_vs_gaussian(EmpiricalDistribution(vals), g, r, grid).value,
            _bootstrap_stderr(vals, g, r, seed, n))


def run_experiment(plan: ExperimentPlan, budget: int = DEFAULT_BUDGET) -> RateFitResult:
    """Measure the distance curve over the n-grid and fit its log-log slope.

    Distances are empirical-sample versus exact Gaussian; points within
    FLOOR_FACTOR of the calibration floor are excluded from the weighted
    least-squares fit; fewer than MIN_FIT_POINTS usable points gives the
    verdict inconclusive (an unfiltered fit is still reported for reference).
    A plan of more than budget replicate-steps raises BudgetError before the
    long-run variance is computed.

    The simulation, each calibration floor and the (n, r) points (distance
    and bootstrap stderr) run on every available CPU through run_parts, one
    stage after the other; no value depends on the CPU count. The process's
    seed keys the simulation, the long-run variance and the bootstrap.
    """
    batch = partial_sums_batch(plan.process, list(plan.n_grid), plan.m, budget=budget)
    lrv = long_run_variance(plan.process)
    sigma2 = lrv["sigma2"]
    # one node table for the floors and the points: every sample has m points
    grid = uniform_panel_grid(plan.m)
    floors = {r: (calibration_floor(plan.m, r, grid=grid) if plan.calibration else {"mean": 0.0, "stderr": 0.0})
              for r in plan.r_list}
    laws = {}
    for n in plan.n_grid:
        var = sigma2 if plan.target == "sigma2" else lrv["sigma_n2"](n)
        laws[n] = GaussianLaw(np.sqrt(max(var, 0.0)))
    nr = [(n, r) for n in plan.n_grid for r in plan.r_list]
    # batch.values(n) is already normalized by n^{-1/2}
    measured = run_parts(_point, [(batch.values(n), laws[n], r, plan.process.seed, n, grid) for n, r in nr])
    ks = {n: kolmogorov(EmpiricalDistribution(batch.values(n)), g) for n, g in laws.items()}
    points = []
    for (n, r), (value, se) in zip(nr, measured):
        g = laws[n]
        # the floor is calibrated on N(0, 1); scale covariantly to G_sigma
        scale = g.sigma if r >= 1.0 else g.sigma**r
        points.append(
            {
                "n": int(n),
                "r": float(r),
                "value": value,
                "mc_stderr": se,
                "floor": floors[r]["mean"] * scale,
                "kolmogorov": ks[n],
                "sigma": g.sigma,
            }
        )
    fits = {r: _fit_rate(plan, [pt for pt in points if pt["r"] == r]) for r in plan.r_list}
    return RateFitResult(tuple(points), fits, float(sigma2))


def _wls(x_cols: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted least squares with intercept; returns coefs and their ses."""
    a = np.column_stack([np.ones(y.size)] + list(x_cols))
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(a * sw[:, None], y * sw, rcond=None)
    resid = y - a @ coef
    dof = max(y.size - coef.size, 1)
    s2 = float((w * resid**2).sum() / dof)
    cov = s2 * np.linalg.inv((a * w[:, None]).T @ a)
    return coef, np.sqrt(np.diag(cov)), float((w * resid**2).sum())


def _fit_rate(plan: ExperimentPlan, pts: list) -> dict:
    r = pts[0]["r"]
    theo = theoretical_exponent(r, plan.p)
    n = np.array([pt["n"] for pt in pts], dtype=float)
    v = np.array([pt["value"] for pt in pts])
    se = np.array([max(pt["mc_stderr"], 1e-12) for pt in pts])
    floor = pts[0]["floor"]
    usable = v > FLOOR_FACTOR * floor
    out = {
        "r": r,
        "theoretical_w_exp": theo["w_exp"],
        "theoretical_zeta_exp": theo["zeta_exp"],
        "log_factor": theo["log_factor"],
        "n_used": int(usable.sum()),
    }
    # unfiltered informational fits are always available
    w_all = (v / se) ** 2
    coef, ses, rss_all = _wls([np.log(n)], np.log(v), w_all)
    out["slope_unfiltered"] = float(coef[1])
    if theo["log_factor"]:
        coef2, ses2, rss2 = _wls([np.log(n), np.log(np.log(n))], np.log(v), w_all)
        out["log_fit_unfiltered"] = {
            "slope": float(coef2[1]),
            "log_coef": float(coef2[2]),
            "rss": rss2,
            "rss_plain": rss_all,
            "log_term_preferred": bool(rss2 < rss_all),
        }
    if usable.sum() >= MIN_FIT_POINTS:
        nn, vv, ss = n[usable], v[usable], se[usable]
        w = (vv / ss) ** 2  # delta-method weights for log(value)
        coef, ses, rss = _wls([np.log(nn)], np.log(vv), w)
        out.update(
            intercept=float(coef[0]), slope=float(coef[1]), slope_stderr=float(ses[1]), intercept_stderr=float(ses[0])
        )
        if theo["log_factor"]:
            coef2, ses2, rss2 = _wls([np.log(nn), np.log(np.log(nn))], np.log(vv), w)
            out["log_fit"] = {
                "slope": float(coef2[1]),
                "log_coef": float(coef2[2]),
                "slope_stderr": float(ses2[1]),
                "rss": rss2,
                "rss_plain": rss,
                "log_term_preferred": bool(rss2 < rss),
            }
    else:
        out["slope"] = None
    # upper-bound consistency: points at measurement resolution cannot
    # falsify an O(.) upper bound, so an all-floor curve is consistent
    if usable.sum() == 0:
        out.update(C_star=None, stable=None, verdict="upper-bound-consistent", consistency_basis="floor-limited")
    elif usable.sum() == 1:
        out["verdict"] = "inconclusive"
    else:
        ubc = upper_bound_consistency(n[usable], v[usable], theo["w_exp"], theo["log_factor"])
        out["C_star"] = ubc["C_star"]
        out["stable"] = ubc["stable"]
        out["verdict"] = "upper-bound-consistent" if ubc["verdict"] == "pass" else ubc["verdict"]
        out["consistency_basis"] = "measured"
    return out


def upper_bound_consistency(n_values, values, exponent: float, log_factor: bool = False) -> dict:
    """Empirical check that the curve stays below C n^exponent (times log n
    when flagged) with a stable constant: no upward trend in the ratios."""
    n = np.asarray(n_values, dtype=float)
    v = np.asarray(values, dtype=float)
    if n.size < 2:
        return {"C_star": float(v[0] / n[0] ** exponent) if n.size else None, "stable": None, "verdict": "inconclusive"}
    guide = n**exponent * (np.log(n) if log_factor else 1.0)
    ratio = v / guide
    c_star = float(ratio.max())
    if np.ptp(ratio) == 0.0:  # constant ratio sequence has no trend
        rho = 0.0
    else:
        rho = spearman_rho(n, ratio)
    stable = rho < 0.5
    return {"C_star": c_star, "stable": bool(stable), "spearman": rho, "verdict": "pass" if stable else "fail"}


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks 1..size, ties sharing the mean of the ranks they span."""
    order = np.argsort(a, kind="stable")
    s = a[order]
    first = np.concatenate(([True], s[1:] != s[:-1]))
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], a.size)  # one past each tie group
    group = np.cumsum(first) - 1
    ranks = np.empty(a.size)
    ranks[order] = 0.5 * (starts + ends + 1)[group]
    return ranks


def spearman_rho(x, y) -> float:
    """Spearman rank correlation: the Pearson correlation of average ranks."""
    rx = _average_ranks(np.asarray(x, dtype=float))
    ry = _average_ranks(np.asarray(y, dtype=float))
    return float(np.corrcoef(rx, ry)[0, 1])
