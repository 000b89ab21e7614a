"""Structured run configuration: JSON parsing, strict key validation, and
construction of process and experiment objects from declarative sections.
Every config value is read through `read`, which names the offending key."""

from __future__ import annotations

import json
import re
import sys
from functools import partial
from typing import Callable

from .processes import (
    DavydovChain,
    ExpandingMap,
    FunctionOfLinear,
    IIDBaseline,
    InnovationLaw,
    LinearProcess,
    ProcessError,
    ProcessSpec,
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
SIMULATE_KEYS = {"n_grid", "replicates"}
CONDITIONS_KEYS = {"ids", "p", "n_terms", "s", "alpha_decay", "q_moment",
                   "phi_decay", "mc", "outer"}
VERIFY_KEYS = {"checks", "cases"}
# each 'conditions' key but ids, p and n_terms, and each 'verify' key but
# checks, with the ids or checks that read it; a run that requests none of
# them rejects the key
READ_BY = {"conditions.outer": ("C1", "C2", "Cond2cob", "Cond2cobp3"), "conditions.mc": ("Cond1cob", "Condcobp3adap"),
           "conditions.alpha_decay": ("condalpha1",), "conditions.q_moment": ("condalpha1",),
           "conditions.s": ("condphi",), "conditions.phi_decay": ("condphi",),
           "verify.cases": ("covariance-inequality", "envelope-contraction")}
CALIBRATE_KEYS = {"replicates", "r_list", "reps"}
# the allowed 'tolerances' keys are exactly the ones with a default
DEFAULT_TOLERANCES = {"coboundary": 1e-8, "duality": 1e-8, "envelope_slack": 1e-9}

_REQUIRED = object()
_ABSENT = object()  # what read gives for an optional key a section leaves out
_optional = partial(dict, default=_ABSENT)  # read's arguments for a key a section may leave out
_KINDS = {float: "a finite number", int: "an integer", bool: "true or false",
          str: "a string", dict: "an object"}


def read(section: dict, where: str, key: str, default=_REQUIRED, kind=float,
         ok: Callable = None, need: str = None, many: bool = False, distinct: bool = False):
    """section[key], or default when the key is absent, as kind: float takes
    a finite real, int a JSON integer, bool only true or false, str a string
    and dict an object; a bool is never a number. With many the value is a
    nonempty list, read element by element into a tuple, and with distinct
    no element may repeat. ok(value) is the range check and need says what
    it asks for. Raises ConfigError naming where.key."""
    name = f"{where}.{key}"
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key '{name}'")
        return default
    value = section[key]
    if not many:
        return _typed(value, name, kind, ok, need)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{name}' must be a nonempty list, not {value!r}")
    values = tuple(_typed(v, f"{name}[{i}]", kind, ok, need) for i, v in enumerate(value))
    if distinct and len(set(values)) < len(values):
        raise ConfigError(f"'{name}' must list each value once, not {value!r}")
    return values


def _typed(value, name: str, kind, ok, need):
    if isinstance(value, bool) and kind is not bool:
        good = False
    elif kind is float:
        good = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        good = isinstance(value, kind)
    if good:
        typed = float(value) if kind is float else value
        if ok is None or ok(typed):
            return typed
    raise ConfigError(f"'{name}' must be {need or _KINDS[kind]}, not {value!r}")


def _check_keys(section: dict, allowed: set, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key '{where}.{key}'; allowed: {sorted(allowed)}")


def _section(cfg: dict, name: str, allowed: set, default=_REQUIRED) -> dict:
    """The top-level object cfg[name], its keys checked against allowed."""
    section = read(cfg, "config", name, default, dict)
    _check_keys(section, allowed, name)
    return section


def _positive(v) -> bool:
    return v > 0


def load_config(path: str) -> dict:
    """Parse and validate a JSON run configuration.

    Every key is checked against the schema; an unknown key or a missing
    required key is a hard error, and an absent optional key takes its one
    default. The process is built once here, so every process value is
    checked too.
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
    read(raw, "config", "seed", kind=int, ok=lambda v: v >= 0, need="a nonnegative integer")
    read(raw, "config", "budget", None, ok=_positive, need="a positive number")
    read(raw, "config", "out", None, str)
    tol = _section(raw, "tolerances", set(DEFAULT_TOLERANCES), {})
    raw = dict(raw)
    raw["tolerances"] = {key: read(tol, "tolerances", key, val, ok=_positive, need="a positive number")
                         for key, val in DEFAULT_TOLERANCES.items()}
    if "process" in raw:
        build_process(raw)
    return raw


def build_coeff_rule(section: dict) -> Callable[[int], float]:
    """Coefficient rule a_j from its declarative 'process.coeffs' form."""
    get = partial(read, section, "process.coeffs")
    rule = get("rule", kind=str, ok=COEFF_KEYS.__contains__, need=f"one of {sorted(COEFF_KEYS)}")
    _check_keys(section, COEFF_KEYS[rule], "process.coeffs")
    if rule == "geometric":
        ratio = get("ratio", ok=lambda v: abs(v) < 1.0, need="a number of modulus below 1")
        scale = get("scale", 1.0)
        return lambda j: scale * ratio**j if j >= 0 else 0.0
    if rule == "power":
        expo = get("exponent", ok=lambda v: v < -1.0, need="a number below -1 for a summable tail")
        scale = get("scale", 1.0)
        return lambda j: scale * float(j) ** expo if j >= 1 else (scale if j == 0 else 0.0)
    values = get("values", kind=dict, ok=bool, need="an object mapping lag -> coefficient")
    for lag in values:
        if not re.fullmatch(r"-?[0-9]+", lag):
            raise ConfigError(f"'process.coeffs.values' key {lag!r} is not an integer lag")
    table = {int(lag): read(values, "process.coeffs.values", lag) for lag in values}
    return lambda j: table.get(j, 0.0)


def _given(section: dict, where: str, reads: dict) -> dict:
    """{key: value} of every key of reads, each read from section with its
    read arguments, less the optional keys the section leaves out: those
    take the default of the dataclass field they set."""
    values = {key: read(section, where, key, **how) for key, how in reads.items()}
    return {key: value for key, value in values.items() if value is not _ABSENT}


INNOVATION = {"kind": dict(kind=str), "q": _optional()}


def build_innovation(section: dict) -> InnovationLaw:
    """InnovationLaw from a 'process.innovation' object."""
    _check_keys(section, INNOVATION, "process.innovation")
    try:
        return InnovationLaw(**_given(section, "process.innovation", INNOVATION))
    except ProcessError as exc:
        raise ConfigError(f"'process.innovation': {exc}") from exc


def _linear(v: dict) -> LinearProcess:
    if "innovation" in v:
        v["innovation"] = build_innovation(v["innovation"])
    return LinearProcess(build_coeff_rule(v.pop("coeffs")), **v)


def _function_of_linear(v: dict) -> FunctionOfLinear:
    return FunctionOfLinear(_linear({key: v.pop(key) for key in _LINEAR if key in v}), **v)


def _expanding_map(v: dict) -> ExpandingMap:
    _check_keys(v, {"family", "kind", "observable"} | MAP_KEYS[v["kind"]], "process")
    return ExpandingMap(**v)


_LINEAR = {"coeffs": dict(kind=dict), "innovation": _optional(kind=dict),
           "truncation": _optional(kind=int, ok=lambda t: t >= 0, need="a nonnegative integer")}
# map kind -> the 'process' keys it reads besides family, kind and observable
MAP_KEYS = {"beta": {"beta"}, "gauss": set(), "piecewise_affine": {"breakpoints", "slopes", "offsets"}}

# family name -> (its 'process' keys besides family, each with its read
# arguments, and the builder of the family from the values read)
FAMILIES = {
    "davydov": ({"p": dict(ok=lambda v: 2.0 < v <= 3.0, need="a number in (2, 3]"),
                 "eps": dict(ok=_positive, need="a positive number"), "functional": _optional(kind=str),
                 "n_max": _optional(kind=int)}, lambda v: DavydovChain(**v)),
    "linear": (_LINEAR, _linear),
    "function_of_linear": (dict(_LINEAR, h_rule=_optional(kind=str), gamma=_optional(), alpha=_optional(),
                                centering_draws=_optional(kind=int, ok=_positive, need="a positive integer")),
                           _function_of_linear),
    "expanding_map": ({"kind": dict(kind=str, ok=MAP_KEYS.__contains__, need=f"one of {sorted(MAP_KEYS)}"),
                       "observable": _optional(kind=str), "beta": _optional(), "breakpoints": _optional(many=True),
                       "slopes": _optional(many=True), "offsets": _optional(many=True)}, _expanding_map),
    "iid": ({"innovation": _optional(kind=dict)},
            lambda v: IIDBaseline(build_innovation(v["innovation"])) if v else IIDBaseline()),
}
# the 'rates' keys with their read arguments; replicates sets the plan's m
RATES = {"p": {}, "r_list": dict(many=True, distinct=True),
         "n_grid": _optional(kind=int, ok=_positive, need="a positive integer", many=True),
         "replicates": _optional(kind=int, ok=lambda m: m >= 100, need="an integer >= 100"),
         "target": _optional(kind=str), "calibration": _optional(kind=bool)}


def build_process(cfg: dict) -> ProcessSpec:
    """ProcessSpec from the 'process' section plus the global seed."""
    section = read(cfg, "config", "process", kind=dict)
    family = read(section, "process", "family", kind=str, ok=FAMILIES.__contains__,
                  need=f"one of {sorted(FAMILIES)}")
    reads, build = FAMILIES[family]
    _check_keys(section, {"family", *reads}, "process")
    try:
        return ProcessSpec(build(_given(section, "process", reads)), seed=cfg["seed"])
    except ProcessError as exc:
        raise ConfigError(f"'process': {exc}") from exc


def build_plan(cfg: dict) -> ExperimentPlan:
    """ExperimentPlan from the 'rates' section and the shared process."""
    # imported here, so a command that builds no plan loads no experiments
    from .experiments import ExperimentError, ExperimentPlan

    section = _section(cfg, "rates", RATES)
    spec = build_process(cfg)
    values = _given(section, "rates", RATES)
    if "replicates" in values:
        values["m"] = values.pop("replicates")
    try:
        return ExperimentPlan(spec, **values)
    except ExperimentError as exc:
        raise ConfigError(f"'rates': {exc}") from exc


def simulate_params(cfg: dict) -> tuple:
    """(n_grid, replicates) of the 'simulate' section."""
    get = partial(read, _section(cfg, "simulate", SIMULATE_KEYS), "simulate")
    n_grid = get("n_grid", kind=int, ok=_positive, need="a positive integer", many=True)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigError(f"'simulate.n_grid' must be strictly increasing, not {list(n_grid)}")
    return n_grid, get("replicates", kind=int, ok=lambda m: m >= 100, need="an integer >= 100")


def _check_readers(section: dict, where: str, chosen: tuple) -> None:
    """Reject a key of section that READ_BY gives only to ids or checks the
    run does not request (chosen), naming the key and its readers."""
    for key in section:
        readers = READ_BY.get(f"{where}.{key}", chosen)
        if not set(readers) & set(chosen):
            raise ConfigError(f"'{where}.{key}' is read only by {list(readers)}, and this run requests none of them")


def conditions_params(cfg: dict, valid) -> dict:
    """The 'conditions' values by key, defaults filled in; 'ids' are names
    from valid, and a key is set only if one of them reads it."""
    section = _section(cfg, "conditions", CONDITIONS_KEYS)
    get = partial(read, section, "conditions")
    p = get("p", 2.5, ok=_positive, need="a positive number")
    ids = get("ids", kind=str, ok=valid.__contains__, need=f"one of {list(valid)}", many=True)
    _check_readers(section, "conditions", ids)
    return {
        "ids": ids,
        "p": p,
        "n_terms": get("n_terms", 64, int, _positive, "a positive integer"),
        "s": get("s", max(p, 2.5), ok=lambda s: s >= p and s > 1, need="a number above 1 and at least 'conditions.p'"),
        "alpha_decay": get("alpha_decay", 2.0, ok=_positive, need="a positive number"),
        "q_moment": get("q_moment", 4.0, ok=lambda b: b > 2, need="a number above 2"),
        "phi_decay": get("phi_decay", 2.0),
        "mc": get("mc", 10**5, int, _positive, "a positive integer"),
        "outer": get("outer", 1000, int, _positive, "a positive integer"),
    }


def verify_params(cfg: dict, valid) -> dict:
    """The 'verify' values by key, defaults filled in; 'checks' are names
    from valid, all of them by default, and a key is set only if one of
    them reads it."""
    section = _section(cfg, "verify", VERIFY_KEYS, {})
    get = partial(read, section, "verify")
    checks = get("checks", tuple(valid), str, valid.__contains__, f"one of {list(valid)}", many=True)
    _check_readers(section, "verify", checks)
    return {"checks": checks, "cases": get("cases", 25, int, _positive, "a positive integer")}


def calibrate_params(cfg: dict) -> tuple:
    """(replicate counts, r values, reps) of the 'calibrate' section."""
    get = partial(read, _section(cfg, "calibrate", CALIBRATE_KEYS), "calibrate")
    return (get("replicates", (10**3, 10**4), int, lambda m: m >= 100, "an integer >= 100", many=True, distinct=True),
            get("r_list", (1.0, 2.0), ok=_positive, need="a positive number", many=True, distinct=True),
            get("reps", 100, int, lambda n: n >= 2, "an integer >= 2"))


def canonical_json(cfg: dict) -> str:
    """Deterministic text form of a config used for content digests."""
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))
