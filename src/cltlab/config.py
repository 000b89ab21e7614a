"""Structured run configuration: JSON parsing, strict key validation, and
construction of process and experiment objects from declarative sections."""

from __future__ import annotations

import json
from typing import Callable, Optional

from .experiments import DEFAULT_N_GRID, ExperimentError, ExperimentPlan
from .processes import (
    DavydovChain,
    ExpandingMap,
    FunctionOfLinear,
    IIDBaseline,
    InnovationLaw,
    LinearProcess,
    ProcessError,
    ProcessSpec,
    davydov_schedule,
)


class ConfigError(ValueError):
    """Raised on any malformed, missing, or unknown configuration entry."""


TOP_KEYS = {"seed", "out", "budget", "tolerances", "process", "simulate", "rates",
            "conditions", "verify", "calibrate"}
COEFF_KEYS = {
    "geometric": {"rule", "ratio", "scale"},
    "power": {"rule", "exponent", "scale"},
    "finite": {"rule", "values"},
}
INNOVATION_KEYS = {"kind", "q"}
SIMULATE_KEYS = {"n_grid", "replicates"}
RATES_KEYS = {"p", "r_list", "n_grid", "replicates", "target", "calibration"}
CONDITIONS_KEYS = {"ids", "p", "n_terms", "s", "alpha_decay", "q_moment",
                   "phi_decay", "mc", "outer"}
VERIFY_KEYS = {"checks", "cases", "perturb_kernel"}
CALIBRATE_KEYS = {"replicates", "r_list", "reps"}
# the allowed 'tolerances' keys are exactly the ones with a default
DEFAULT_TOLERANCES = {"coboundary": 1e-8, "duality": 1e-8, "envelope_slack": 1e-9}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key '{where}.{key}'; allowed: {sorted(allowed)}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key '{where}.{key}'")
    return section[key]


def _check_positive(value, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        raise ConfigError(f"'{where}' must be a positive number")


def load_config(path: str) -> dict:
    """Parse and validate a JSON run configuration.

    Every key is checked against the schema; unknown or missing keys are hard
    errors so a config never silently falls back to defaults it did not name.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _check_keys(raw, TOP_KEYS, "config")
    seed = _require(raw, "seed", "config")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("'config.seed' must be a nonnegative integer")
    if "budget" in raw:
        _check_positive(raw["budget"], "config.budget")
    tol = dict(DEFAULT_TOLERANCES)
    if "tolerances" in raw:
        _check_keys(raw["tolerances"], set(DEFAULT_TOLERANCES), "tolerances")
        for key, val in raw["tolerances"].items():
            _check_positive(val, f"tolerances.{key}")
            tol[key] = float(val)
    raw = dict(raw)
    raw["tolerances"] = tol
    if "process" in raw:
        _validate_process(raw["process"])
    return raw


def _validate_process(section: dict) -> None:
    if not isinstance(section, dict):
        raise ConfigError("'process' must be an object")
    family = _require(section, "family", "process")
    if family not in FAMILIES:
        raise ConfigError(f"unknown 'process.family' {family!r}; allowed: {sorted(FAMILIES)}")
    _check_keys(section, FAMILIES[family][0], "process")
    if family == "davydov":
        _validate_davydov(section)
    if "coeffs" in section:
        _validate_coeffs(section["coeffs"])
    if "innovation" in section:
        _check_keys(section["innovation"], INNOVATION_KEYS, "process.innovation")


def _validate_davydov(section: dict) -> None:
    p = _require(section, "p", "process")
    eps = _require(section, "eps", "process")
    if not (2.0 < p <= 3.0):
        raise ConfigError("'process.p' must lie in (2, 3]")
    if not eps > 0:
        raise ConfigError("'process.eps' must be positive")
    schedule = section.get("schedule")
    if schedule is None:
        return
    # an explicit schedule pins the up-step probabilities the config expects;
    # it must satisfy the drift invariant and match the (p, eps) formula
    if not isinstance(schedule, list) or not schedule:
        raise ConfigError("'process.schedule' must be a nonempty list of probabilities")
    for i, a_n in enumerate(schedule):
        if i == 0:
            if abs(a_n - 0.5) > 1e-12:
                raise ConfigError("'process.schedule[0]' must equal 1/2")
        elif not (0.5 <= a_n < 1.0):
            raise ConfigError(
                f"'process.schedule[{i}]' = {a_n} violates the invariant 1/2 <= a_n < 1"
            )
    for i, a_n in enumerate(schedule):
        want = davydov_schedule(p, eps, i)
        if abs(a_n - want) > 1e-9:
            raise ConfigError(
                f"'process.schedule[{i}]' = {a_n} does not match the drift formula "
                f"value {want:.12g} for the given p and eps"
            )


def _validate_coeffs(section: dict) -> None:
    if not isinstance(section, dict):
        raise ConfigError("'process.coeffs' must be an object")
    rule = _require(section, "rule", "process.coeffs")
    if rule not in COEFF_KEYS:
        raise ConfigError(f"unknown 'process.coeffs.rule' {rule!r}; allowed: {sorted(COEFF_KEYS)}")
    _check_keys(section, COEFF_KEYS[rule], "process.coeffs")
    if rule == "geometric":
        ratio = _require(section, "ratio", "process.coeffs")
        if not (0.0 <= abs(ratio) < 1.0):
            raise ConfigError("'process.coeffs.ratio' must have modulus below 1")
    elif rule == "power":
        expo = _require(section, "exponent", "process.coeffs")
        if expo >= -1.0:
            raise ConfigError("'process.coeffs.exponent' must be below -1 for a summable tail")
    else:
        values = _require(section, "values", "process.coeffs")
        if not isinstance(values, dict) or not values:
            raise ConfigError("'process.coeffs.values' must map lag -> coefficient")
        for lag in values:
            try:
                int(lag)
            except ValueError:
                raise ConfigError(f"'process.coeffs.values' key {lag!r} is not an integer lag")


def build_coeff_rule(section: dict) -> Callable[[int], float]:
    """Coefficient rule a_j from its declarative form; the form is attached
    for round-trip serialization."""
    rule = section["rule"]
    if rule == "geometric":
        ratio = float(section["ratio"])
        scale = float(section.get("scale", 1.0))

        def fn(j: int) -> float:
            return scale * ratio**j if j >= 0 else 0.0

    elif rule == "power":
        expo = float(section["exponent"])
        scale = float(section.get("scale", 1.0))

        def fn(j: int) -> float:
            return scale * float(j) ** expo if j >= 1 else (scale if j == 0 else 0.0)

    else:
        table = {int(k): float(v) for k, v in section["values"].items()}

        def fn(j: int) -> float:
            return table.get(j, 0.0)

    return fn


def build_innovation(section: Optional[dict]) -> InnovationLaw:
    if section is None:
        return InnovationLaw("gaussian")
    try:
        return InnovationLaw(section["kind"], q=section.get("q"))
    except KeyError:
        raise ConfigError("missing required key 'process.innovation.kind'")
    except ProcessError as exc:
        raise ConfigError(f"'process.innovation': {exc}") from exc


def _linear(section: dict) -> LinearProcess:
    return LinearProcess(build_coeff_rule(_require(section, "coeffs", "process")),
                         build_innovation(section.get("innovation")),
                         int(section.get("truncation", 64)))


_LINEAR_KEYS = {"family", "coeffs", "innovation", "truncation"}

# family name -> (allowed 'process' keys, builder of the family from the section)
FAMILIES = {
    "davydov": ({"family", "p", "eps", "functional", "n_max", "schedule"},
                lambda s: DavydovChain(float(s["p"]), float(s["eps"]), s.get("functional", "f1"),
                                       int(s.get("n_max", 400)))),
    "linear": (_LINEAR_KEYS, _linear),
    "function_of_linear": (_LINEAR_KEYS | {"h_rule", "gamma", "alpha", "centering_draws"},
                           lambda s: FunctionOfLinear(_linear(s), s.get("h_rule", "identity"),
                                                      float(s.get("gamma", 1.0)), float(s.get("alpha", 0.0)),
                                                      int(s.get("centering_draws", 10**7)))),
    "expanding_map": ({"family", "kind", "beta", "a", "breakpoints", "slopes", "offsets", "observable"},
                      lambda s: ExpandingMap(_require(s, "kind", "process"), beta=float(s.get("beta", 2.0)),
                                             a=float(s.get("a", 1.0)),
                                             breakpoints=tuple(s.get("breakpoints", ())),
                                             slopes=tuple(s.get("slopes", ())),
                                             offsets=tuple(s.get("offsets", ())),
                                             observable=s.get("observable", "identity"))),
    "iid": ({"family", "innovation"}, lambda s: IIDBaseline(build_innovation(s.get("innovation")))),
}


def build_process(cfg: dict) -> ProcessSpec:
    """ProcessSpec from the validated 'process' section plus the global seed."""
    if "process" not in cfg:
        raise ConfigError("missing required key 'config.process'")
    section = cfg["process"]
    try:
        return ProcessSpec(FAMILIES[section["family"]][1](section), seed=cfg["seed"])
    except ProcessError as exc:
        raise ConfigError(f"'process': {exc}") from exc


def build_plan(cfg: dict) -> ExperimentPlan:
    """ExperimentPlan from the 'rates' section and the shared process."""
    if "rates" not in cfg:
        raise ConfigError("missing required key 'config.rates'")
    section = cfg["rates"]
    _check_keys(section, RATES_KEYS, "rates")
    spec = build_process(cfg)
    p = float(_require(section, "p", "rates"))
    r_list = tuple(float(r) for r in _require(section, "r_list", "rates"))
    if not r_list:
        raise ConfigError("'rates.r_list' must be nonempty")
    n_grid = tuple(int(n) for n in section.get("n_grid", DEFAULT_N_GRID))
    m = int(section.get("replicates", 10**4))
    try:
        return ExperimentPlan(spec, p, r_list, n_grid=n_grid, m=m,
                              target=section.get("target", "sigma2"),
                              seed=cfg["seed"],
                              calibration=bool(section.get("calibration", True)))
    except ExperimentError as exc:
        raise ConfigError(f"'rates': {exc}") from exc


def simulate_params(cfg: dict) -> tuple:
    if "simulate" not in cfg:
        raise ConfigError("missing required key 'config.simulate'")
    section = cfg["simulate"]
    _check_keys(section, SIMULATE_KEYS, "simulate")
    n_grid = tuple(int(n) for n in _require(section, "n_grid", "simulate"))
    m = int(_require(section, "replicates", "simulate"))
    if m < 100:
        raise ConfigError("'simulate.replicates' must be >= 100")
    if not n_grid or sorted(n_grid) != list(n_grid):
        raise ConfigError("'simulate.n_grid' must be a nondecreasing nonempty list")
    return n_grid, m


def canonical_json(cfg: dict) -> str:
    """Deterministic text form of a config used for content digests."""
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))
