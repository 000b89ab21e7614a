"""Tests for the rate-measurement harness."""

import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import cltlab
import cltlab.experiments as experiments
from cltlab import processes
from cltlab import rng as rngmod
from cltlab.cli import main
from cltlab.experiments import (
    BOOTSTRAP_RESAMPLES,
    ExperimentError,
    ExperimentPlan,
    calibration_floor,
    _bootstrap_stderr,
    run_experiment,
    spearman_rho,
    theoretical_exponent,
    upper_bound_consistency,
)
from cltlab.metrics import (
    EmpiricalDistribution,
    GaussianLaw,
    MetricsError,
    gaussian_panel_integrals,
    wasserstein_vs_gaussian,
)
from cltlab.processes import FunctionOfLinear, IIDBaseline, InnovationLaw, LinearProcess, ProcessSpec
from oracles import assert_no_child

SRC = pathlib.Path(cltlab.__file__).parent.parent
IID_GAUSS = ProcessSpec(IIDBaseline(InnovationLaw("gaussian")), seed=5)
SMALL_GRID = (64, 128, 256, 512)


def small_plan(**kw):
    args = dict(process=IID_GAUSS, p=3.0, r_list=(1.0,), n_grid=SMALL_GRID, m=500)
    args.update(kw)
    return ExperimentPlan(**args)


# ---------------------------------------------------------------------------
# exponents and plan validation


def test_theoretical_exponents():
    out = theoretical_exponent(1.0, 3.0)
    assert out == {"zeta_exp": -0.5, "w_exp": -0.5, "log_factor": True}  # [PAPER]
    assert theoretical_exponent(1.0, 2.5)["w_exp"] == -0.25  # [DERIVED]
    assert abs(theoretical_exponent(3.0, 3.0)["w_exp"] + 1.0 / 6.0) < 1e-15  # [DERIVED]
    assert theoretical_exponent(3.0, 3.0)["log_factor"] is False
    # below the window the smooth-class exponent degrades to -r/2
    assert theoretical_exponent(0.3, 2.5)["zeta_exp"] == -0.15
    with pytest.raises(ExperimentError):
        theoretical_exponent(1.0, 3.5)


def test_plan_validation():
    with pytest.raises(ExperimentError):
        small_plan(r_list=(0.4,))  # below p - 2
    with pytest.raises(ExperimentError):
        small_plan(r_list=(2.5,), target="sigma2")  # r > 2 needs sigma_n2
    small_plan(r_list=(2.5,), target="sigma_n2")
    with pytest.raises(ExperimentError):
        small_plan(n_grid=(64, 96))  # not powers of two
    with pytest.raises(ExperimentError):
        small_plan(p=2.0)


# ---------------------------------------------------------------------------
# calibration floor


def test_floor_decreases_with_sample_size():
    big = calibration_floor(10**4, 1.0, reps=20)
    small = calibration_floor(100, 1.0, reps=20)
    assert 0.0 < big["mean"] < small["mean"]  # [TRIVIAL] empirical consistency


def test_floor_requires_min_m():
    with pytest.raises(ExperimentError):
        calibration_floor(50, 1.0)


def test_floor_cached_and_deterministic():
    a = calibration_floor(200, 1.0, reps=10)
    b = calibration_floor(200, 1.0, reps=10)
    assert a == b


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
def test_floor_equals_a_loop_of_point_distances_bit_for_bit(r):
    # the floor shares one node-quantile table among its replicates; three
    # sample sizes in one process would show a table kept across sizes
    g = GaussianLaw(1.0)
    for m in (100, 1000, 10**4):
        vals = np.array([
            wasserstein_vs_gaussian(
                EmpiricalDistribution(rngmod.stream(2024, rngmod.ROLE_CALIBRATION, i, m).standard_normal(m)), g, r
            ).value
            for i in range(5)
        ])
        floor = calibration_floor(m, r, reps=5)
        assert floor["mean"] == float(vals.mean())
        assert floor["stderr"] == float(vals.std(ddof=1) / np.sqrt(5))


# ---------------------------------------------------------------------------
# experiment runs


def test_iid_run_sits_at_floor_and_replays():
    plan = small_plan()
    res = run_experiment(plan)
    for pt in res.points:
        assert pt["value"] < 2.5 * pt["floor"]
    assert res.fits[1.0]["verdict"] in ("upper-bound-consistent", "inconclusive")
    res2 = run_experiment(plan)
    assert [pt["value"] for pt in res2.points] == [pt["value"] for pt in res.points]  # [TRIVIAL] replay
    assert res2.fits == res.fits


def test_the_spec_seed_is_the_run_seed(monkeypatch):
    # sigma^2 of a function of a linear process is a batch-means estimate,
    # so it moves with the seed: the run reports the one at the spec's seed,
    # and simulates the sums partial_sums_batch gives for the spec
    fam = FunctionOfLinear(LinearProcess(lambda j: 0.5**j if j >= 0 else 0.0, truncation=20), "abs_power",
                           centering_draws=1000)
    spec = ProcessSpec(fam, seed=5)
    batches = []

    def spy(*args, **kwargs):
        batches.append(processes.partial_sums_batch(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(experiments, "partial_sums_batch", spy)
    res = run_experiment(ExperimentPlan(spec, p=2.5, r_list=(1.0,), n_grid=(4, 8), m=100, calibration=False))
    assert res.sigma2 == fam.long_run_variance(5)["sigma2"] != fam.long_run_variance(0)["sigma2"]
    direct = processes.partial_sums_batch(spec, (4, 8), 100)
    at_zero = processes.partial_sums_batch(ProcessSpec(fam), (4, 8), 100)
    assert len(batches) == 1
    for n in (4, 8):
        assert np.array_equal(batches[0].values(n), direct.values(n))
        assert not np.array_equal(direct.values(n), at_zero.values(n))


def test_log_factor_fit_reported():
    res = run_experiment(small_plan())
    assert "log_fit_unfiltered" in res.fits[1.0]  # (r, p) = (1, 3) case


def test_miscalibrated_variance_increases_distance():
    gen = np.random.default_rng(9)
    emp = EmpiricalDistribution(gen.standard_normal(2000))
    good = wasserstein_vs_gaussian(emp, GaussianLaw(1.0), 1.0).value
    bad = wasserstein_vs_gaussian(emp, GaussianLaw(1.25), 1.0).value
    assert good < bad


def test_pareto_run_detects_decay():
    spec = ProcessSpec(IIDBaseline(InnovationLaw("symmetric_pareto", q=2.5)), seed=2)
    plan = ExperimentPlan(spec, p=2.5, r_list=(1.0,), n_grid=(64, 128, 256, 512, 1024), m=2000)
    res = run_experiment(plan)
    assert res.fits[1.0]["slope_unfiltered"] < -0.05


# ---------------------------------------------------------------------------
# metric stages on every CPU


def _use_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _write(tmp_path, cfg: dict) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# three n by two r: six point parts; 400 replicates in parts of 100 when
# REPLICATE_CHUNK is 100
RATES_CFG = {
    "seed": 7,
    "process": {"family": "iid", "innovation": {"kind": "symmetric_pareto", "q": 2.5}},
    "rates": {"p": 2.5, "r_list": [0.5, 1.0], "n_grid": [16, 32, 64], "replicates": 400},
    "calibrate": {"replicates": [100, 300], "r_list": [1.0, 2.0], "reps": 7},
}


class TestParallelStages:
    """calibration_floor and run_experiment's (n, r) points run through
    run_parts: this process computes the first share, forked workers the
    rest."""

    def test_artifacts_same_on_any_cpu_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(processes, "REPLICATE_CHUNK", 100)
        cfg = _write(tmp_path, RATES_CFG)
        seen = {}
        for cpus in (1, 2, 3):
            _use_cpus(monkeypatch, cpus)
            for command in ("rates", "calibrate"):
                out = tmp_path / f"{command}-{cpus}"
                assert main([command, "--config", cfg, "--out", str(out)]) == 0
                assert_no_child()
                for path in sorted(out.iterdir()):
                    if path.name != "manifest.json":
                        seen.setdefault(path.name, []).append(path.read_bytes())
        assert sorted(seen) == ["calibration.csv", "calibration.json", "rates.csv", "rates.json", "rates.svg"]
        for name, versions in seen.items():
            assert versions[1:] == versions[:1] * 2, name

    def test_floor_part_error_reraised_in_the_parent(self, monkeypatch):
        # 10 replicates on 2 CPUs: this process runs 0..4, the worker 5..9
        floor_value = experiments._floor_value

        def failing(m, r, replicate, grid):
            if replicate >= 5:
                raise ExperimentError(f"floor part from replicate {replicate} failed")
            return floor_value(m, r, replicate, grid)

        monkeypatch.setattr(experiments, "_floor_value", failing)
        _use_cpus(monkeypatch, 2)
        with pytest.raises(ExperimentError) as info:
            calibration_floor(100, 1.0, reps=10)
        assert type(info.value) is ExperimentError
        assert str(info.value) == "floor part from replicate 5 failed"
        assert_no_child()
        assert calibration_floor(100, 1.0, reps=4)["mean"] > 0.0  # parts 0..1 and 2..3 succeed
        assert_no_child()

    def test_point_part_error_reraised_in_the_parent(self, monkeypatch):
        # four points on 2 CPUs: this process runs n = 64 and 128, the worker
        # n = 256 and 512, and the first to fail is 256
        bootstrap = experiments._bootstrap_stderr

        def failing(values, g, r, seed, n):
            if n >= 256:
                raise MetricsError(f"point n = {n} failed")
            return bootstrap(values, g, r, seed, n)

        monkeypatch.setattr(experiments, "_bootstrap_stderr", failing)
        _use_cpus(monkeypatch, 2)
        with pytest.raises(MetricsError) as info:
            run_experiment(small_plan(calibration=False))
        assert type(info.value) is MetricsError
        assert str(info.value) == "point n = 256 failed"
        assert_no_child()

    def test_one_cpu_makes_no_pool(self, tmp_path, monkeypatch, capsys):
        def no_fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(processes, "REPLICATE_CHUNK", 100)
        _use_cpus(monkeypatch, 1)
        cfg = _write(tmp_path, RATES_CFG)
        for command in ("rates", "calibrate"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_rates_and_calibrate_load_no_scipy(self, tmp_path, cpus):
        # in a fresh interpreter: the normal d.f. and quantile are numpy, so
        # neither command loads a SciPy module, at integer and fractional r.
        # On one CPU every floor range and (n, r) point runs in this process
        cfg = dict(RATES_CFG, rates={"p": 2.5, "r_list": [1.0, 1.5, 2.5], "n_grid": [16, 32], "replicates": 200,
                                     "target": "sigma_n2"},
                   calibrate={"replicates": [100, 200], "r_list": [1.0, 1.5, 2.5], "reps": 4})
        path = _write(tmp_path, cfg)
        for command in ("rates", "calibrate"):
            code = f"""
import os, sys
os.sched_getaffinity = lambda pid: set(range({cpus}))
import cltlab.cli
code = cltlab.cli.main([{command!r}, "--config", {path!r}, "--out", {str(tmp_path / command)!r}])
sys.exit(code or 10 * any(m == "scipy" or m.startswith("scipy.") for m in sys.modules))
"""
            result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                                    capture_output=True, text=True, timeout=300)
            assert result.returncode == 0, (command, result.stderr)

    def test_rates_and_simulate_on_two_cpus_load_no_pool_modules(self, tmp_path):
        # in a fresh interpreter: run_parts forks its workers itself, so a
        # command that forks loads neither multiprocessing nor
        # concurrent.futures. Parts of 100 replicates give simulate two parts
        cfg = dict(RATES_CFG, simulate={"n_grid": [16, 32], "replicates": 400})
        path = _write(tmp_path, cfg)
        for command in ("rates", "simulate"):
            code = f"""
import os, sys
os.sched_getaffinity = lambda pid: set(range(2))
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
import cltlab.cli, cltlab.processes
cltlab.processes.REPLICATE_CHUNK = 100
code = cltlab.cli.main([{command!r}, "--config", {path!r}, "--out", {str(tmp_path / command)!r}])
pool = any(m.split(".")[0] in ("multiprocessing", "concurrent") for m in sys.modules)
sys.exit(code or 10 * pool or 20 * (not forks))
"""
            result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                                    capture_output=True, text=True, timeout=300)
            assert result.returncode == 0, (command, result.stderr)

    def test_one_grid_serves_the_floors_and_points_bit_for_bit(self, monkeypatch):
        # run_experiment builds one PanelGrid for its m; every floor
        # replicate and every (n, r) point read it, in this process and in
        # the forked workers, and each value is the one computed without it
        plan = small_plan(r_list=(1.0, 1.5), n_grid=(64, 128, 256))
        g = GaussianLaw(1.0)
        floors = {r: np.array([
            wasserstein_vs_gaussian(
                EmpiricalDistribution(rngmod.stream(2024, rngmod.ROLE_CALIBRATION, i, plan.m).standard_normal(plan.m)),
                g, r).value
            for i in range(100)]).mean() for r in plan.r_list}
        batch = processes.partial_sums_batch(plan.process, list(plan.n_grid), plan.m)
        grids, means = [], {}
        build, floor = experiments.uniform_panel_grid, experiments.calibration_floor

        def counted(m):
            grids.append(m)
            return build(m)

        def recorded(m, r, **kwargs):
            out = floor(m, r, **kwargs)
            means[r] = out["mean"]
            return out

        monkeypatch.setattr(experiments, "uniform_panel_grid", counted)
        monkeypatch.setattr(experiments, "calibration_floor", recorded)
        for cpus in (1, 2, 3):
            _use_cpus(monkeypatch, cpus)
            grids.clear()
            means.clear()
            res = run_experiment(plan)
            assert grids == [plan.m]
            assert means == {r: float(floors[r]) for r in plan.r_list}
            for pt in res.points:
                law = GaussianLaw(pt["sigma"])
                want = wasserstein_vs_gaussian(EmpiricalDistribution(batch.values(pt["n"])), law, pt["r"]).value
                assert pt["value"] == want, (cpus, pt["n"], pt["r"])


# ---------------------------------------------------------------------------
# bootstrap standard errors


def per_resample_stderr(values, g, r, seed, n, distance):
    """The per-resample bootstrap: one weighted law and one distance per draw."""
    m = values.size
    gen = rngmod.stream(seed, rngmod.ROLE_BOOTSTRAP, 0, n)
    est = np.empty(BOOTSTRAP_RESAMPLES)
    for b in range(BOOTSTRAP_RESAMPLES):
        counts = np.bincount(gen.integers(0, m, size=m), minlength=m)
        keep = counts > 0
        est[b] = distance(EmpiricalDistribution(values[keep], counts[keep] / m), g, r)
    return float(est.std(ddof=1))


def quadrature_distance(emp, g, r):
    return wasserstein_vs_gaussian(emp, g, r).value


def exact_panel_distance(emp, g, r):
    cw = emp.cumweights
    hi = cw.copy()
    hi[-1] = 1.0
    lo = np.concatenate(([0.0], cw[:-1]))
    return float(gaussian_panel_integrals(lo, hi, emp.points, g.sigma, int(r)).sum() ** (1.0 / r))


BOOT_SAMPLE = np.random.default_rng(21).standard_normal(500) * 1.05 + 0.01


@pytest.mark.parametrize("r", [1.0, 2.5])
def test_bootstrap_matches_per_resample_loop(r):
    g = GaussianLaw(1.0)
    want = per_resample_stderr(BOOT_SAMPLE, g, r, 3, 128, quadrature_distance)
    assert _bootstrap_stderr(BOOT_SAMPLE, g, r, 3, 128) == pytest.approx(want, rel=1e-9, abs=0)


def test_bootstrap_matches_per_resample_loop_r2():
    # the per-resample quadrature is low by up to 6e-11 in W_2^2 on each
    # resample (it stops refining the two end panels early); that moves this
    # standard error by 1-3e-9 relative, so the bound is 5e-9 here. The exact
    # panels below agree with the batched errors to 1e-12.
    g = GaussianLaw(1.0)
    want = per_resample_stderr(BOOT_SAMPLE, g, 2.0, 3, 128, quadrature_distance)
    assert _bootstrap_stderr(BOOT_SAMPLE, g, 2.0, 3, 128) == pytest.approx(want, rel=5e-9, abs=0)


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
def test_bootstrap_matches_per_resample_exact_panels(r):
    # same resamples, same exact panels: only the batching differs
    g = GaussianLaw(0.9)
    want = per_resample_stderr(BOOT_SAMPLE, g, r, 3, 128, exact_panel_distance)
    assert _bootstrap_stderr(BOOT_SAMPLE, g, r, 3, 128) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("r", [1.0, 2.5])
def test_bootstrap_independent_of_chunking(monkeypatch, r):
    g = GaussianLaw(1.0)
    base = _bootstrap_stderr(BOOT_SAMPLE, g, r, 3, 128)
    for panels in (1, 500 * 7, 500 * 200):
        monkeypatch.setattr(experiments, "PANEL_BLOCK", panels)
        assert _bootstrap_stderr(BOOT_SAMPLE, g, r, 3, 128) == base


def test_bootstrap_memory_bounded():
    # one row of counts per batch at m = 10^4, whatever BOOTSTRAP_RESAMPLES is;
    # the ceiling is fixed, so it guards PANEL_BLOCK too
    values = np.random.default_rng(22).standard_normal(10**4)
    g = GaussianLaw(1.0)
    tracemalloc.start()
    try:
        _bootstrap_stderr(values, g, 1.0, 3, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_bootstrap_point_mass_target():
    g = GaussianLaw(0.0)
    want = per_resample_stderr(BOOT_SAMPLE, g, 1.0, 3, 128, quadrature_distance)
    assert _bootstrap_stderr(BOOT_SAMPLE, g, 1.0, 3, 128) == pytest.approx(want, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# upper-bound consistency


@pytest.mark.parametrize("n", range(2, 10))
def test_spearman_matches_scipy(n):
    from scipy.stats import spearmanr

    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(size=n))
    cases = [
        rng.normal(size=n),
        rng.integers(0, 3, size=n).astype(float),  # ties
        np.append(np.full(n - 1, 0.25), 1.25),  # constant plus one
        np.insert(np.full(n - 1, 0.25), 0, 1.25),
    ]
    for y in cases:
        for a, b in ((x, y), (y, y[::-1]), (np.round(x, 1), y)):
            if np.ptp(a) > 0.0 and np.ptp(b) > 0.0:  # constant input: no correlation
                assert abs(spearman_rho(a, b) - spearmanr(a, b).statistic) <= 1e-12


def test_consistency_exact_power_law():
    n = np.array([64.0, 128.0, 256.0, 512.0])
    out = upper_bound_consistency(n, 3.0 * n**-0.5, -0.5)
    assert abs(out["C_star"] - 3.0) < 1e-12 and out["verdict"] == "pass"  # [TRIVIAL]


def test_consistency_detects_excess_growth():
    n = np.array([64.0, 128.0, 256.0, 512.0, 1024.0])
    out = upper_bound_consistency(n, n**-0.2, -0.5)  # decays slower than claimed
    assert out["verdict"] == "fail"


def test_consistency_single_point_inconclusive():
    out = upper_bound_consistency([64.0], [0.1], -0.5)
    assert out["verdict"] == "inconclusive"
