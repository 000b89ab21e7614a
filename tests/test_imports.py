"""Source hygiene: every name a cltlab module imports is used in it, and
every function in the package runs in a command or in a kept API.

Run as a script, `python tests/test_imports.py OUT_DIR` traces the five
commands on small configs and writes the unreached functions to
OUT_DIR/unreached.json; the reachability test runs it in a fresh interpreter,
so no cache filled by an earlier test hides a function. The same test checks
every artifact the trace writes against the sha256 table tests/digests.json,
which `python tests/test_imports.py OUT_DIR --write-digests` rewrites."""

import argparse
import ast
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import cltlab
from cltlab import cli, config, metrics, processes

SRC = pathlib.Path(cltlab.__file__).parent
DIGESTS = pathlib.Path(__file__).with_name("digests.json")


def _unused_imports(tree: ast.Module) -> list:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_every_imported_name_is_used():
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}


# ---------------------------------------------------------------------------
# parameter census


# Defaulted parameters that no call in the package sets, each with its reason.
# The key is the def's module.qualified name and the parameter's name.
PARAMETERS = {
    "metrics.EmpiricalDistribution.__init__.weights": "weighted samples, which the metric tests build",
    "dependence.an_bn.support": "the coefficient window, which the window tests shrink",
    "rng.streams.tail": "the stream key's tail, which the rng tests vary",
    "rng.first_draws.tail": "the stream key's tail, which the rng tests vary",
    "dependence.CoboundaryDecomposition.identity_check.replicate": "the replicate whose innovations the "
                                                                   "acceptance test sweeps",
    "processes.sample_linear_process.replicate": "the replicate whose path the process tests sample",
    "cli.main.argv": "the arguments of an in-process run; the console script passes none",
    "dependence.phi_coeff.k": "the lag, which the mixing tests vary",
    "dependence.phi_coeff.f": "an observable in place of the chain's, which the mixing tests pass",
    "dependence.phi_coeff.gap_cap": "the widest index gap searched, which the mixing tests shrink",
    "rng._Key.generate_state.dtype": "numpy's Generator protocol, which numpy calls",
}


def _census() -> tuple:
    """(defaulted, calls). defaulted maps a callee name (a class's for its
    __init__) to (module.qualified name, name, position) of each defaulted
    parameter of the defs of that name; the position leaves out a bound
    self and is None for a keyword-only parameter. calls lists (callee's
    last name, positional count, position of the first *args or None,
    keyword names, None among them for a **kwargs) of every call in the
    package."""
    defaulted, calls = {}, []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                bound = int(in_class is not None and not static)
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                params = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
                params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                callee = in_class if child.name == "__init__" else child.name
                where = f"{prefix}{child.name}"
                defaulted.setdefault(callee, []).extend((f"{where}.{name}", name, i) for name, i in params)
                visit(child, f"{where}.", None)
            else:
                visit(child, prefix, in_class)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        visit(tree, f"{path.stem}.", None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                star = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), None)
                calls.append((getattr(node.func, "id", None) or node.func.attr, len(node.args), star,
                              {k.arg for k in node.keywords}))
    return defaulted, calls


def _sets(call: tuple, name: str, position) -> bool:
    """Whether call may set the parameter: by keyword, by position, or
    through *args or **kwargs."""
    _, npos, star, keywords = call
    if name in keywords or None in keywords:
        return True
    return position is not None and (position < npos or (star is not None and position >= star))


def test_every_defaulted_parameter_is_set_by_a_call_or_listed():
    # a default that no call overrides is a knob nothing turns: a constant
    # in the body says the same with less code
    defaulted, calls = _census()
    unset = {qualified for callee, params in defaulted.items() for qualified, name, position in params
             if not any(_sets(call, name, position) for call in calls if call[0] == callee)}
    assert sorted(unset - set(PARAMETERS)) == [], "unset and not listed"
    assert sorted(set(PARAMETERS) - unset) == [], "listed but set by a call, or gone"


# ---------------------------------------------------------------------------
# config-key census


# the 'conditions' and 'verify' keys every run reads; each other key of the
# two sections is read only by the ids or checks config.READ_BY lists for it
BASE_KEYS = {"conditions": {"ids", "p", "n_terms"}, "verify": {"checks"}}


def test_every_key_some_runs_skip_is_tabled_with_its_readers():
    # a key no table lists would be read, or ignored, on every run
    allowed = {"conditions": config.CONDITIONS_KEYS, "verify": config.VERIFY_KEYS}
    keys = {f"{section}.{key}" for section, names in allowed.items() for key in names - BASE_KEYS[section]}
    assert sorted(keys ^ config.READ_BY.keys()) == [], "untabled keys, or tabled keys that are not allowed"
    valid = {"conditions": set(cli.VALID_CONDITIONS), "verify": set(cli.VERIFY_CHECKS)}
    assert {name: readers for name, readers in config.READ_BY.items()
            if not set(readers) <= valid[name.split(".")[0]]} == {}


def test_each_tabled_key_moves_exactly_its_readers(tmp_path, monkeypatch):
    # on a linear process every condition id reads its keys; doubling a key
    # moves the rows (for verify, the detail) of exactly the ids or checks
    # config.READ_BY gives it. The smoothing-lemma grid is shrunk as in _trace
    from_callable = metrics.GridFunction.from_callable
    monkeypatch.setattr(metrics.GridFunction, "from_callable",
                        staticmethod(lambda f, lo, hi, n: from_callable(f, lo, hi, 2**9 + 1)))
    base = {"conditions": {"ids": list(cli.VALID_CONDITIONS), "n_terms": 8, "mc": 100, "outer": 10,
                           "alpha_decay": 2.0, "q_moment": 4.0, "s": 2.5, "phi_decay": 2.0},
            "verify": {"cases": 2}}

    def rows(section: str, key: str = None) -> dict:
        values = dict(base[section], **({key: 2 * base[section][key]} if key else {}))
        name = f"{section}-{key}"
        (tmp_path / f"{name}.json").write_text(json.dumps({"seed": 0, "process": GEOMETRIC, section: values}))
        assert cli.main([section, "--config", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)]) == 0
        found = {}
        for line in (tmp_path / name / f"{section}.csv").read_text().splitlines()[1:]:
            found.setdefault(line.split(",")[0], []).append(line)
        return found

    before = {section: rows(section) for section in base}
    for name, readers in config.READ_BY.items():
        section, key = name.split(".")
        after = rows(section, key)
        assert after.keys() == before[section].keys()
        assert sorted(i for i in after if after[i] != before[section][i]) == sorted(readers), name


def test_dependence_reads_families_only_through_their_methods():
    # a family's conditions come from its own methods: dependence imports no
    # family class, tests for none with isinstance and reads no `.kernel`
    families = {name for name, obj in vars(processes).items()
                if isinstance(obj, type) and obj is not processes.Family and hasattr(obj, "batch_sums")}
    assert families == {"IIDBaseline", "DavydovChain", "LinearProcess", "FunctionOfLinear", "ExpandingMap"}
    found = []
    for node in ast.walk(ast.parse((SRC / "dependence.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, "import", alias.name) for alias in node.names if alias.name in families]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            named = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node.args[1])}
            found += [(node.lineno, "isinstance", name) for name in sorted(named & families)]
        elif isinstance(node, ast.Attribute) and node.attr == "kernel":
            found.append((node.lineno, "attribute", "kernel"))
    assert found == []


# ---------------------------------------------------------------------------
# reachability


def _defs() -> dict:
    """(file, first line) -> module.qualified name of every def in the
    package. The first line is the first decorator's, as in the function's
    code object. A stub whose body is only `...` (a Protocol method) never
    runs and is left out."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                if not _is_stub(child):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found[(str(path), first)] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def _is_stub(fn: ast.FunctionDef) -> bool:
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return (len(body) == 1 and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and body[0].value.value is Ellipsis)


# Kept API that no command calls, each called once by the trace. The key is
# the root, the value its reason and the arguments of its call (given the
# trace's output directory).
ALLOWLIST = {
    "cli.__getattr__": (
        "cltlab.cli.<name> read from outside a command, as a monkeypatch or a tracer hook reads it",
        lambda out: ("write_csv",)),
    "metrics.wasserstein_samples": (
        "W_r between two samples, which the acceptance tests check against a permutation optimum",
        lambda out: (_sample(600), _sample(600), 0.5)),
    "metrics.zolotarev": (
        "ideal distance of order r, checked against W_r by the acceptance tests; to become exact for r = 2, 3",
        lambda out: (metrics.EmpiricalDistribution([-1.0, 1.0]), metrics.GaussianLaw(1.0), 2.5)),
    "metrics.wasserstein": (
        "W_r over every pair of laws, the r <= 1 branch of zolotarev",
        lambda out: (metrics.GaussianLaw(1.0), metrics.GaussianLaw(2.0), 1.0)),
    "metrics.gaussian_panel_integrals": (
        "exact panel integrals, the reference the bootstrap's panels are tested against",
        lambda out: ([0.1, 0.5], [0.5, 0.9], [0.0, 1.0], 1.0, 3)),
    "dependence.alpha1_exact": (
        "exact alpha_1 of a finite chain, for conditions computed from the process",
        lambda out: (_kernel(), 1)),
    "dependence.phi_coeff": (
        "exact phi_1 and phi_2 of a finite chain, for conditions computed from the process",
        lambda out: (_kernel(), 1, 2)),
}


def _sample(size):
    return metrics.EmpiricalDistribution(np.random.default_rng(size).normal(size=size))


def _kernel():
    return processes.DavydovChain(2.5, 0.1, "f1", 4).kernel[0]


DAVYDOV = {"family": "davydov", "p": 2.5, "eps": 0.1, "functional": "f1", "n_max": 8}
GEOMETRIC = {"family": "linear", "coeffs": {"rule": "geometric", "ratio": 0.5}, "truncation": 20}
PROCESSES = {
    "iid": {"family": "iid"},
    "pareto": {"family": "iid", "innovation": {"kind": "symmetric_pareto", "q": 4.5}},
    "davydov-f1": DAVYDOV,
    "davydov-f2": dict(DAVYDOV, functional="f2"),
    "geometric": GEOMETRIC,
    "power": {"family": "linear", "coeffs": {"rule": "power", "exponent": -8.0}, "truncation": 8},
    "finite": {"family": "linear", "coeffs": {"rule": "finite", "values": {"0": 1.0, "1": 0.5}}, "truncation": 2},
    "function-of-linear": dict(GEOMETRIC, family="function_of_linear", h_rule="abs_power", centering_draws=1000),
    "beta-2": {"family": "expanding_map", "kind": "beta", "beta": 2.0},
    "beta-2.5": {"family": "expanding_map", "kind": "beta", "beta": 2.5},
    "gauss": {"family": "expanding_map", "kind": "gauss"},
    "piecewise-affine": {"family": "expanding_map", "kind": "piecewise_affine", "breakpoints": [0.0, 0.4, 1.0],
                         "slopes": [2.5, 5.0 / 3.0], "offsets": [0.0, -2.0 / 3.0]},
}
RATES = {"p": 2.5, "r_list": [1.0], "n_grid": [4, 8], "replicates": 100, "target": "sigma_n2", "calibration": False}


def _runs() -> list:
    """(command, output name, config) of every traced command."""
    runs = []
    for name, process in PROCESSES.items():
        runs.append(("simulate", name, {"process": process, "simulate": {"n_grid": [4, 8], "replicates": 100}}))
        runs.append(("rates", f"rates-{name}", {"process": process, "rates": RATES}))
    every_id = ["C1", "C2", "Cond1cob", "Cond2cob", "Condcobp3adap", "Cond2cobp3", "condalpha1", "condphi"]
    return runs + [
        # a second run into the same directory reads the manifest there
        runs[0],
        ("rates", "rates-calibrated", {"process": PROCESSES["iid"],
                                       "rates": dict(RATES, r_list=[0.5, 1.0], calibration=True)}),
        # p = 1 puts the envelope weight's incomplete gamma at a = 0
        ("conditions", "conditions-davydov", {"process": DAVYDOV,
                                              "conditions": {"ids": every_id, "p": 1.0, "n_terms": 8}}),
        ("conditions", "conditions-linear", {"process": GEOMETRIC, "conditions": {
            "ids": ["C1", "C2", "Cond1cob", "Condcobp3adap"], "n_terms": 8, "mc": 100, "outer": 10}}),
        ("conditions", "conditions-iid", {"process": PROCESSES["iid"], "conditions": {"ids": ["C1", "C2"], "n_terms": 4}}),
        ("verify", "verify", {"verify": {"cases": 2}}),
        ("calibrate", "calibrate", {"calibrate": {"replicates": [100], "r_list": [1.0], "reps": 2}}),
    ]


def _trace(out: pathlib.Path) -> list:
    """Names of the package's defs entered neither by the commands of _runs
    nor by the one call of each ALLOWLIST root. The smoothing-lemma grid is
    shrunk to 513 points: which functions run does not depend on its size."""
    from_callable = metrics.GridFunction.from_callable
    metrics.GridFunction.from_callable = staticmethod(lambda f, lo, hi, n: from_callable(f, lo, hi, 2**9 + 1))
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(record)
    try:
        for command, name, cfg in _runs():
            path = out / f"{name}.json"
            path.write_text(json.dumps(dict(cfg, seed=0)))
            code = cli.main([command, "--config", str(path), "--out", str(out / name)])
            if code != 0:
                raise RuntimeError(f"{command} {name} exited {code}")
        for root, (_, args) in ALLOWLIST.items():
            target = cltlab
            for part in root.split("."):
                target = getattr(target, part)
            target(*args(out))
    finally:
        sys.setprofile(None)
    return sorted(name for key, name in _defs().items() if key not in entered)


def _digests(out: pathlib.Path) -> dict:
    """sha256 of every artifact of the traced runs, by '<run>/<file>'; the
    manifests, which hold the run's times, are left out."""
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("*/*")) if path.name != "manifest.json"}


def test_every_def_is_reached(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert json.loads((tmp_path / "unreached.json").read_text()) == []
    # the determinism contract: the trace's artifacts are the committed bytes
    assert _digests(tmp_path) == json.loads(DIGESTS.read_text())["artifacts"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="trace the commands into OUT_DIR and list the unreached defs")
    parser.add_argument("out_dir", type=pathlib.Path)
    parser.add_argument("--write-digests", action="store_true", help=f"rewrite {DIGESTS.name} from this trace")
    args = parser.parse_args()
    (args.out_dir / "unreached.json").write_text(json.dumps(_trace(args.out_dir)))
    if args.write_digests:
        note = ("sha256 of every artifact, manifests left out, that `python tests/test_imports.py OUT_DIR` writes; "
                "rewrite with --write-digests. The trace shrinks the smoothing-lemma grid to 513 points, so the "
                "verify digests are not those of a default verify run.")
        DIGESTS.write_text(json.dumps({"note": note, "artifacts": _digests(args.out_dir)}, indent=1) + "\n")
