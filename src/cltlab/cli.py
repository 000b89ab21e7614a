"""Command-line entry point: simulate | rates | conditions | verify |
calibrate, with strict configs, deterministic artifacts, and run manifests."""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from datetime import datetime, timezone

# run_parts' processes are the lab's parallelism, so BLAS gets one thread per
# process; set before numpy loads, and a thread count the user set wins. Once
# numpy is loaded its BLAS has its threads, and the variable would only reach
# the children of the process that imported this module
if "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__

# Every name a command calls from a compute module, by module. None is
# imported with this module: a command binds the names of the modules it
# runs when it starts (_bind), before any work, so run_parts' forked
# workers import nothing, and `--help`, `--version` and `verify --list`
# load no numpy. A name already set here (a test's monkeypatch, a tracer's
# wrapper) is kept, so it is the one the command calls. From outside,
# cltlab.cli.<name> binds its module on first use (__getattr__, PEP 562).
_LAZY = {
    "config": ("ConfigError", "build_plan", "build_process", "calibrate_params", "conditions_params",
               "load_config", "simulate_params", "verify_params"),
    "dependence": ("PhiWorkspace", "PowerQuantile", "UnsupportedFamilyError", "check_covariance_inequality",
                   "coboundary", "envelope_contraction_check", "an_bn", "series_C1_C2", "series_condalpha1",
                   "series_condphi", "series_projective"),
    "experiments": ("FLOOR_FACTOR", "MIN_FIT_POINTS", "calibration_floor", "run_experiment",
                    "theoretical_exponent"),
    "io": ("RunManifest", "config_digest", "read_manifest", "svg_rate_plot", "write_csv", "write_json",
           "write_manifest"),
    "metrics": ("GridFunction", "smoothing_lemma_check", "uniform_panel_grid"),
    "processes": ("DEFAULT_BUDGET", "REPLICATE_CHUNK", "BudgetError", "DavydovChain", "FiniteKernel",
                  "LinearProcess", "ExpandingMap", "ProcessError", "partial_sums_batch", "transfer_duality_residual"),
}


def _bind(*modules: str) -> None:
    """Import each module and bind its _LAZY names here, keeping a name
    already set."""
    for module in modules:
        loaded = importlib.import_module(f".{module}", __package__)
        for name in _LAZY[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    module = next((module for module, names in _LAZY.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _prepare_out(args, cfg: dict) -> tuple:
    """(out_dir, config digest, start time); refuses a directory holding another config's run."""
    out_dir = args.out or cfg.get("out") or "cltlab-out"
    os.makedirs(out_dir, exist_ok=True)
    digest = config_digest(cfg)
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest_path):
        old = read_manifest(out_dir)
        if old.config_digest != digest:
            raise ConfigError(
                f"output directory {out_dir!r} holds a run with config digest "
                f"{old.config_digest[:12]}..., which does not match this config "
                f"({digest[:12]}...); choose a fresh --out or restore the config"
            )
    return out_dir, digest, _now()


def _finish(out_dir: str, cfg: dict, digest: str, started: str, outputs: list) -> None:
    manifest = RunManifest(
        config_digest=digest,
        config=cfg,
        version=__version__,
        seed=cfg["seed"],
        started=started,
        finished=_now(),
        tolerances=cfg["tolerances"],
        outputs=tuple(outputs),
    )
    write_manifest(out_dir, manifest)


def _load(args) -> dict:
    if not args.config:
        raise ConfigError("--config is required")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dict(cfg)
        cfg["seed"] = args.seed
    return cfg


def _write_table(out_dir: str, stem: str, header: tuple, rows: list) -> list:
    """rows as <stem>.csv and as <stem>.json {"table": [row objects]};
    returns the names written."""
    write_csv(os.path.join(out_dir, f"{stem}.csv"), header, rows)
    write_json(os.path.join(out_dir, f"{stem}.json"), {"table": [dict(zip(header, row)) for row in rows]})
    return [f"{stem}.csv", f"{stem}.json"]


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    _bind("config", "processes", "io")
    cfg = _load(args)
    spec = build_process(cfg)
    n_grid, m = simulate_params(cfg)
    out_dir, digest, started = _prepare_out(args, cfg)
    batch = partial_sums_batch(spec, n_grid, m, budget=cfg.get("budget", DEFAULT_BUDGET))
    # chunks of at most REPLICATE_CHUNK lines of one n, each formatted as write_csv reaches it
    chunks = ("\n".join(f"{n},{rep},{v:.17g}" for rep, v in
                        enumerate(batch.values(n)[lo : lo + REPLICATE_CHUNK].tolist(), lo))
              for n in n_grid for lo in range(0, m, REPLICATE_CHUNK))
    write_csv(os.path.join(out_dir, "trajectories.csv"), ("n", "replicate", "value"), chunks)
    _finish(out_dir, cfg, digest, started, ["trajectories.csv"])
    print(f"wrote trajectories.csv to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# rates


def cmd_rates(args) -> int:
    import numpy as np

    _bind("config", "processes", "experiments", "io")
    cfg = _load(args)
    plan = build_plan(cfg)
    out_dir, digest, started = _prepare_out(args, cfg)
    result = run_experiment(plan, budget=cfg.get("budget", DEFAULT_BUDGET))
    header = ("n", "r", "value", "mc_stderr", "floor", "kolmogorov", "sigma")
    write_csv(os.path.join(out_dir, "rates.csv"), header,
              [tuple(pt[key] for key in header) for pt in result.points])
    write_json(
        os.path.join(out_dir, "rates.json"),
        {"sigma2": result.sigma2, "points": list(result.points),
         "fits": {str(r): f for r, f in result.fits.items()}},
    )
    curves, guides = {}, {}
    ns = np.array(plan.n_grid, dtype=float)
    for r in plan.r_list:
        vals = np.array([pt["value"] for pt in result.points if pt["r"] == r])
        curves[f"W_{r:g}"] = (ns, vals)
        theo = theoretical_exponent(r, plan.p)
        guide = vals[0] * (ns / ns[0]) ** theo["w_exp"]
        if theo["log_factor"]:
            guide = guide * np.log(ns) / np.log(ns[0])
        guides[f"n^{theo['w_exp']:g}"] = (ns, guide)
    svg_rate_plot(os.path.join(out_dir, "rates.svg"), curves, guides,
                  f"distance decay, p = {plan.p:g}")
    _finish(out_dir, cfg, digest, started, ["rates.csv", "rates.json", "rates.svg"])
    for r, fit in sorted(result.fits.items()):
        why = ""
        if fit["slope"] is None:
            why = (f"; n_used = {fit['n_used']} of {len(plan.n_grid)} points above {FLOOR_FACTOR:g} x floor;"
                   f" a fit needs {MIN_FIT_POINTS}")
        print(f"r = {r:g}: slope = {fit['slope']}, verdict = {fit['verdict']}{why}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# conditions


VALID_CONDITIONS = ("C1", "C2", "Cond1cob", "Cond2cob", "Condcobp3adap",
                    "Cond2cobp3", "condalpha1", "condphi")


def _run_condition(cid: str, spec, params: dict, second_moments: dict) -> list:
    """(component, report) pairs of one id; second_moments keeps the one
    series_C1_C2 run that gives C1, C2, Cond2cob and Cond2cobp3."""
    p, n_terms = params["p"], params["n_terms"]
    if cid in ("C1", "C2", "Cond2cob", "Cond2cobp3"):
        if not second_moments:
            second_moments.update(series_C1_C2(spec, p, n_terms, outer=params["outer"], ids=params["ids"]))
        return [("", second_moments[cid])]
    if cid in ("Cond1cob", "Condcobp3adap"):
        return [("", series_projective(spec, cid, p, n_terms, mc=params["mc"]))]
    if cid == "condalpha1":
        alpha = [0.25 * k**-params["alpha_decay"] for k in range(1, n_terms + 1)]
        reps = series_condalpha1(PowerQuantile(1.0 / params["q_moment"]), alpha, p)
        return [(name, reps[name]) for name in ("log_weighted", "p_norm")]
    # condphi
    phi2 = [min(1.0, k**-params["phi_decay"]) for k in range(1, n_terms + 1)]
    return [("", series_condphi(phi2, p, params["s"]))]


def cmd_conditions(args) -> int:
    _bind("config", "dependence", "io")
    cfg = _load(args)
    params = conditions_params(cfg, VALID_CONDITIONS)
    ids = params["ids"]
    # condalpha1 and condphi are series over declared rates; every other id reads the process
    spec = None if {"condalpha1", "condphi"}.issuperset(ids) else build_process(cfg)
    out_dir, digest, started = _prepare_out(args, cfg)
    rows, second_moments = [], {}
    for cid in ids:
        try:
            group = _run_condition(cid, spec, params, second_moments)
        except UnsupportedFamilyError as exc:
            raise ConfigError(f"condition {cid!r} has no series for process family "
                              f"{cfg['process']['family']!r}: {exc}") from exc
        rows += [(cid, component, rep.verdict, len(rep.terms), float(rep.terms[-1]),
                  float(rep.partial_sums[-1])) for component, rep in group]
    header = ("id", "component", "verdict", "n_terms", "last_term", "partial_sum")
    outputs = _write_table(out_dir, "conditions", header, rows)
    _finish(out_dir, cfg, digest, started, outputs)
    width = max(len(r[0]) + len(r[1]) for r in rows) + 1
    for row in rows:
        label = f"{row[0]}{'.' + row[1] if row[1] else ''}"
        print(f"{label:<{width}} {row[2]:<14} partial_sum = {row[5]:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_chain(perturb: float):
    _bind("processes")  # also called outside a command
    kernel, f = DavydovChain(2.5, 0.1, n_max=24).kernel
    if perturb:
        # row 0, the boundary state -24, drops to 0 by its second slot; its
        # first slot (weight 0) becomes a loop: K(-24, -24) = perturb
        cols, weights = kernel.cols.copy(), kernel.weights.copy()
        cols[0, 0], weights[0, 0] = 0, perturb
        kernel = FiniteKernel(kernel.states, cols, weights, kernel.stationary)
    return kernel, f


def _check_covariance(cfg: dict, params: dict) -> dict:
    import numpy as np

    cases = params["cases"]
    try:
        kernel, _ = _verify_chain(params["perturb_kernel"])
    except ProcessError as exc:
        return {"passed": False, "detail": f"kernel invariant violated: {exc}"}
    gen = np.random.default_rng(cfg["seed"])
    workspace = PhiWorkspace()
    worst = 0.0
    for _ in range(cases):
        k = int(gen.integers(2, 4))
        f_list = [gen.normal(size=kernel.size) for _ in range(k)]
        t_list = np.sort(gen.choice(np.arange(1, 13), size=k, replace=False))
        res = check_covariance_inequality(kernel, f_list, list(t_list), workspace)
        if not res["ok"]:
            return {"passed": False,
                    "detail": f"covariance bound violated: lhs {res['lhs']:.6g} exceeds "
                              f"min bound {min(res['rhs_forms'].values()):.6g}"}
        worst = max(worst, res["lhs"] / max(min(res["rhs_forms"].values()), 1e-300))
    return {"passed": True, "detail": f"{cases} cases, worst lhs/bound ratio {worst:.3g}"}


def _check_envelope(cfg: dict, params: dict) -> dict:
    import numpy as np

    cases = params["cases"]
    slack = cfg["tolerances"]["envelope_slack"]
    kernel, _ = _verify_chain(0.0)
    gen = np.random.default_rng(cfg["seed"] + 1)
    # the random g contract strictly; the last, g(y0, y1) = u(y0), is measurable
    # in Y_0 and contracts with equality, so the slack decides it
    for i in range(cases + 1):
        g = gen.normal(size=(kernel.size, kernel.size if i < cases else 1))
        p = float(gen.uniform(2.0, 3.0))  # contraction needs p >= 2
        res = envelope_contraction_check(kernel, np.broadcast_to(g, (kernel.size,) * 2), p, slack)
        if not res["ok"]:
            return {"passed": False,
                    "detail": f"conditional expectation expanded the envelope norm: "
                              f"{res['lhs']:.17g} > {res['rhs']:.17g}"}
    return {"passed": True, "detail": f"{cases} cases contracted; on a g of Y_0 alone "
                                      f"lhs/rhs - 1 = {res['lhs'] / res['rhs'] - 1:.2g}"}


def _check_smoothing(cfg: dict, params: dict) -> dict:
    import numpy as np

    cases = [(r, p, t) for r in (0.5, 1.0, 1.5, 2.0) for p in (2.0, 2.5, 3.0)
             for t in (0.25, 1.0) if p >= r]
    f = GridFunction.from_callable(lambda x: np.abs(x), lo=-12.0, hi=12.0, n=2**14 + 1)
    for (r, p, t), res in zip(cases, smoothing_lemma_check(f, cases)):
        if not res["ok"]:
            return {"passed": False,
                    "detail": f"smoothing bound violated at r={r}, p={p}, t={t}: "
                              f"{res['lhs']:.6g} > {res['rhs']:.6g}"}
    return {"passed": True, "detail": f"{len(cases)} (r, p, t) cases bounded"}


def _check_window(cfg: dict, params: dict) -> dict:
    rules = {"geometric": lambda j: 0.6**j if j >= 0 else 0.0,
             "power": lambda j: float(j) ** -2.0 if j >= 1 else (1.0 if j == 0 else 0.0)}
    for name, rule in rules.items():
        for n in (16, 256, 1024):
            res = an_bn(rule, n)
            if res["A_n"] > 4.0 * res["B_n"] * (1.0 + 1e-12):
                return {"passed": False,
                        "detail": f"window bound violated for {name} rule at n={n}: "
                                  f"A_n {res['A_n']:.6g} > 4 B_n {4 * res['B_n']:.6g}"}
    return {"passed": True, "detail": "A_n <= 4 B_n for all rules and n"}


def _check_coboundary(cfg: dict, params: dict) -> dict:
    tol = cfg["tolerances"]["coboundary"]
    rule = lambda j: 0.5**j if j >= 0 else 0.0
    dec = coboundary(LinearProcess(rule))
    res = dec.identity_check(256, cfg["seed"], tol)
    if not res["ok"]:
        return {"passed": False,
                "detail": f"partial-sum split residual {res['max_residual']:.3g} above {tol:g}"}
    return {"passed": True, "detail": f"max residual {res['max_residual']:.3g}"}


def _check_duality(cfg: dict, params: dict) -> dict:
    tol = cfg["tolerances"]["duality"]
    spec = ExpandingMap("beta")
    worst = 0.0
    for dh in range(4):
        for df in range(4):
            worst = max(worst, transfer_duality_residual(
                spec, lambda x, d=dh: x**d, lambda x, d=df: x**d))
    if worst > tol:
        return {"passed": False, "detail": f"duality residual {worst:.3g} above {tol:g}"}
    return {"passed": True, "detail": f"max residual over polynomial pairs {worst:.3g}"}


VERIFY_CHECKS = {
    "covariance-inequality": _check_covariance,
    "envelope-contraction": _check_envelope,
    "smoothing-lemma": _check_smoothing,
    "partial-sum-window": _check_window,
    "coboundary-residual": _check_coboundary,
    "kernel-duality": _check_duality,
}


def cmd_verify(args) -> int:
    if args.list:
        for name in VERIFY_CHECKS:
            print(name)
        return EXIT_OK
    _bind("config", "processes", "dependence", "metrics", "io")
    cfg = _load(args)
    params = verify_params(cfg, VERIFY_CHECKS)
    out_dir, digest, started = _prepare_out(args, cfg)
    rows = []
    for name in params["checks"]:
        res = VERIFY_CHECKS[name](cfg, params)
        rows.append((name, "pass" if res["passed"] else "fail", res["detail"]))
    outputs = _write_table(out_dir, "verify", ("check", "status", "detail"), rows)
    _finish(out_dir, cfg, digest, started, outputs)
    failed = [row for row in rows if row[1] == "fail"]
    for row in rows:
        print(f"{row[0]:<24} {row[1]:<5} {row[2]}")
    print(f"{len(rows) - len(failed)} passed, {len(failed)} failed")
    return EXIT_INTERNAL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args) -> int:
    _bind("config", "experiments", "metrics", "io")
    cfg = _load(args)
    ms, rs, reps = calibrate_params(cfg)
    out_dir, digest, started = _prepare_out(args, cfg)
    rows = []
    for m in ms:
        grid = uniform_panel_grid(m)  # one node table for every r
        for r in rs:
            floor = calibration_floor(m, r, reps=reps, grid=grid)
            rows.append((m, r, floor["mean"], floor["stderr"]))
    outputs = _write_table(out_dir, "calibration", ("replicates", "r", "floor_mean", "floor_stderr"), rows)
    _finish(out_dir, cfg, digest, started, outputs)
    for row in rows:
        print(f"m = {row[0]:<8} r = {row[1]:<4g} floor = {row[2]:.6g} +/- {row[3]:.2g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cltlab",
                                     description="distance-decay laboratory for normalized "
                                                 "partial sums of dependent sequences")
    parser.add_argument("--version", action="version", version=f"cltlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "simulate": (cmd_simulate, "sample normalized partial sums into trajectories.csv"),
        "rates": (cmd_rates, "measure distance curves and fit decay exponents"),
        "conditions": (cmd_conditions, "evaluate convergence-condition series"),
        "verify": (cmd_verify, "run the built-in inequality suites"),
        "calibrate": (cmd_calibrate, "tabulate the finite-sample distance floor"),
    }
    for name, (fn, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to the JSON run configuration")
        p.add_argument("--out", help="output directory (default from config or ./cltlab-out)")
        p.add_argument("--seed", type=int, help="override the config seed")
        if name == "verify":
            p.add_argument("--list", action="store_true", help="enumerate checks and exit")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps to exit codes
        _bind("config", "processes")  # the error classes; every command but verify --list has them
        if isinstance(exc, ConfigError):
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if isinstance(exc, BudgetError):
            print(f"budget error: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
