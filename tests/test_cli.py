"""End-to-end tests of the command-line layer: exit codes, artifact formats,
manifests, and reproducibility."""

import dataclasses
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import cltlab
from cltlab.cli import VALID_CONDITIONS, VERIFY_CHECKS, _verify_chain, main
from cltlab.config import (
    FAMILIES,
    build_plan,
    build_process,
    calibrate_params,
    conditions_params,
    load_config,
    simulate_params,
    verify_params,
)
from cltlab.dependence import (
    ConditionReport,
    UnsupportedFamilyError,
    envelope_contraction_check,
    series_C1_C2,
    series_projective,
)
from cltlab.experiments import calibration_floor
from cltlab.io import IOError_, RunManifest, _fmt, config_digest, read_manifest, write_csv
from cltlab import processes
from cltlab import rng as rngmod
from cltlab.processes import (
    DavydovChain,
    ExpandingMap,
    FiniteKernel,
    FunctionOfLinear,
    IIDBaseline,
    InnovationLaw,
    LinearProcess,
    ProcessSpec,
    long_run_variance,
    partial_sums_batch,
)


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "seed": 5,
        "process": {"family": "iid", "innovation": {"kind": "gaussian"}},
        "simulate": {"n_grid": [64, 128], "replicates": 200},
        "rates": {"p": 3.0, "r_list": [1.0], "n_grid": [64, 128, 256], "replicates": 500},
        "conditions": {"ids": ["C1", "condalpha1"], "p": 2.5, "n_terms": 16},
        "calibrate": {"replicates": [200], "r_list": [1.0], "reps": 20},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path), cfg


DAVYDOV = {"family": "davydov", "p": 2.5, "eps": 0.1, "n_max": 24}
LINEAR = {"family": "linear", "coeffs": {"rule": "geometric", "ratio": 0.5}, "truncation": 40}


def _src_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cltlab.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs about a second at every start and is not needed;
    # scipy.special, scipy.integrate, scipy.optimize and scipy.sparse load
    # only in the functions that compute with them
    heavy = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.special", "scipy.sparse", "scipy.linalg")
    code = f"import sys, cltlab.cli; sys.exit(any(m in sys.modules for m in {heavy!r}))"
    assert subprocess.run([sys.executable, "-c", code], env=_src_env()).returncode == 0


def test_cli_import_and_verify_list_load_no_process_pool():
    # run_parts forks its workers itself, so no command loads a process
    # pool's modules (a forking rates or simulate: tests/test_experiments.py)
    pool = ("multiprocessing", "concurrent.futures")
    for call in ("", "cltlab.cli.main(['verify', '--list']); "):
        code = f"import sys, cltlab.cli; {call}sys.exit(any(m in sys.modules for m in {pool!r}))"
        result = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True)
        assert result.returncode == 0, call


def test_simulate_davydov_loads_no_scipy(tmp_path):
    cfg_path, _ = write_cfg(
        tmp_path,
        process={"family": "davydov", "p": 2.5, "eps": 0.1, "functional": "f1", "n_max": 40},
        simulate={"n_grid": [16, 32], "replicates": 100},
    )
    code = (
        "import sys; from cltlab.cli import main; "
        f"code = main(['simulate', '--config', {cfg_path!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "sys.exit(code or 10 * any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code], env=_src_env()).returncode == 0
    assert os.path.exists(tmp_path / "out" / "trajectories.csv")


CHECK_COMMANDS = {
    "conditions": {
        "process": {"family": "davydov", "p": 2.5, "eps": 0.1, "functional": "f1", "n_max": 40},
        "conditions": {"ids": ["C1", "C2", "Cond1cob", "Cond2cob", "Condcobp3adap", "Cond2cobp3",
                               "condalpha1", "condphi"], "p": 2.5, "n_terms": 16},
    },
    "verify": {"verify": {"checks": ["covariance-inequality", "envelope-contraction", "partial-sum-window",
                                     "coboundary-residual", "kernel-duality"], "cases": 3}},
}


@pytest.mark.parametrize("command", sorted(CHECK_COMMANDS))
def test_check_commands_load_no_scipy(tmp_path, command):
    # the envelope weight and the exact kernels need numpy only
    cfg_path, _ = write_cfg(tmp_path, **CHECK_COMMANDS[command])
    code = (
        "import sys; from cltlab.cli import main; "
        f"code = main([{command!r}, '--config', {cfg_path!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "sys.exit(code or 10 * any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True).returncode == 0


# ---------------------------------------------------------------------------
# what each command loads


def _loaded_after(argv: list) -> set:
    """The numpy and cltlab modules a fresh interpreter holds after
    `import cltlab.cli` and, given argv, cltlab.cli.main(argv)."""
    code = (
        "import json, sys, cltlab.cli\n"
        f"argv = {argv!r}\n"
        "try:\n"
        "    code = cltlab.cli.main(argv) if argv else 0\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'cltlab'))))\n"
        "sys.exit(code)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr[-2000:]
    return set(json.loads(result.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv", [[], ["verify", "--list"], ["--version"]], ids=["import", "verify-list", "version"])
def test_entry_loads_no_numpy(argv):
    assert _loaded_after(argv) == {"cltlab", "cltlab.cli"}


def test_simulate_loads_only_its_modules(tmp_path):
    cfg_path, _ = write_cfg(tmp_path, process=DAVYDOV, simulate={"n_grid": [16, 32], "replicates": 100})
    loaded = _loaded_after(["simulate", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert {m for m in loaded if m.startswith("cltlab")} == {
        "cltlab", "cltlab.cli", "cltlab.config", "cltlab.processes", "cltlab.rng", "cltlab.io"}


# np.unique loads numpy.ma; the distinct values come from metrics.distinct instead
@pytest.mark.parametrize("command, absent", [("rates", "cltlab.dependence"), ("conditions", "cltlab.experiments"),
                                             ("verify", "cltlab.experiments"), ("rates", "numpy.ma"),
                                             ("verify", "numpy.ma")])
def test_command_leaves_out_modules_it_does_not_run(tmp_path, command, absent):
    overrides = CHECK_COMMANDS.get(command, {"process": DAVYDOV})
    cfg_path, _ = write_cfg(tmp_path, **overrides)
    loaded = _loaded_after([command, "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert absent not in loaded and "numpy" in loaded


def test_tracer_hooks_resolve_on_a_fresh_import():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # save_batch left the cli with the binary trajectory file; the tracer
    # still lists it
    hooks = [attr for module, attr, _ in tracer.HOOKS if module == "cltlab.cli" and attr != "save_batch"]
    code = f"import cltlab.cli; print([a for a in {hooks!r} if not hasattr(cltlab.cli, a)])"
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True)
    assert len(hooks) > 10 and result.stdout.strip() == "[]", result.stderr[-2000:]


def test_patched_write_csv_receives_the_trajectory_rows(tmp_path, monkeypatch):
    seen = []

    def spy(path, header, rows):
        rows = list(rows)
        seen.append((os.path.basename(path), header, rows))
        write_csv(path, header, rows)

    monkeypatch.setattr("cltlab.cli.write_csv", spy)
    cfg_path, _ = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    [(name, header, rows)] = seen
    assert (name, header, len(rows)) == ("trajectories.csv", ("n", "replicate", "value"), 2)  # one chunk per n
    assert (out / "trajectories.csv").read_text() == "n,replicate,value\n" + "".join(r + "\n" for r in rows)


def test_trajectory_chunks_hold_at_most_replicate_chunk_lines(tmp_path, monkeypatch):
    cfg_path, _ = write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "whole")]) == 0
    seen = []

    def spy(path, header, rows):
        rows = list(rows)
        seen.extend(rows)
        write_csv(path, header, rows)

    monkeypatch.setattr("cltlab.cli.write_csv", spy)
    monkeypatch.setattr("cltlab.cli.REPLICATE_CHUNK", 7)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    # 200 replicates at each of 2 n: 28 full chunks and a 4-line one per n
    assert [chunk.count("\n") + 1 for chunk in seen] == ([7] * 28 + [4]) * 2
    text = (out / "trajectories.csv").read_text()
    assert text == "n,replicate,value\n" + "".join(chunk + "\n" for chunk in seen)
    assert text == (tmp_path / "whole" / "trajectories.csv").read_text()


# ---------------------------------------------------------------------------
# write_csv


def _joined_csv(header, rows) -> str:
    """The file text of the whole-file writer streaming replaced: every line
    joined, then one newline."""
    lines = [",".join(header)] + [row if isinstance(row, str) else ",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [
    [(1, 0.1, None, "a,b"), (2, -3.5e-300, 'say "x"', "two\nlines"), (3, float("nan"), "", 7)],
    ["1,0,0.10000000000000001", "2,1,-1"],
    ["64,0,1.5\n64,1,-2.25", "128,0,3\n128,1,4"],
    [],
], ids=["tuples", "lines", "chunks", "no-rows"])
def test_write_csv_matches_the_joined_text(tmp_path, rows):
    path = tmp_path / "t.csv"
    write_csv(str(path), ("n", "x", "y", "z"), iter(rows))  # a one-pass iterator, as simulate passes
    assert path.read_bytes() == _joined_csv(("n", "x", "y", "z"), rows).encode("utf-8")


# ---------------------------------------------------------------------------
# simulate


def read_trajectories(out: str) -> dict:
    """trajectories.csv as n -> replicate values; the rows of each n are in
    replicate order."""
    lines = open(os.path.join(out, "trajectories.csv")).read().splitlines()
    assert lines[0] == "n,replicate,value"
    sums = {}
    for line in lines[1:]:
        n, rep, value = line.split(",")
        assert int(rep) == len(sums.setdefault(int(n), []))
        sums[int(n)].append(float(value))
    return {n: np.array(v) for n, v in sums.items()}


def test_simulate_writes_cache_csv_and_manifest(tmp_path):
    cfg_path, cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
    sums = read_trajectories(out)
    direct = partial_sums_batch(ProcessSpec(IIDBaseline(InnovationLaw("gaussian")), seed=5), [64, 128], 200)
    assert sorted(sums) == [64, 128]
    for n in (64, 128):
        # .17g text reads back to the same double, bit for bit
        np.testing.assert_array_equal(sums[n], direct.values(n))
    manifest = read_manifest(out)
    assert manifest.seed == 5
    manifest.check(out)
    assert set(manifest.outputs) == {"trajectories.csv"}


def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg_path, _ = write_cfg(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg_path, "--out", out1]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", out2]) == 0
    b1 = open(os.path.join(out1, "trajectories.csv"), "rb").read()
    b2 = open(os.path.join(out2, "trajectories.csv"), "rb").read()
    assert b1 == b2


def test_seed_flag_overrides_config(tmp_path):
    cfg_path, _ = write_cfg(tmp_path)
    cfg9_path, _ = write_cfg(tmp_path, name="cfg9.json", seed=9)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg_path, "--out", out1, "--seed", "9"]) == 0
    assert main(["simulate", "--config", cfg9_path, "--out", out2]) == 0
    assert (open(os.path.join(out1, "trajectories.csv"), "rb").read()
            == open(os.path.join(out2, "trajectories.csv"), "rb").read())


def test_digest_mismatch_refused(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", out, "--seed", "9"]) == 2
    assert "digest" in capsys.readouterr().err


def test_budget_violation_exit_3(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path, budget=1000)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert "budget" in capsys.readouterr().err


def test_rates_budget_violation_exit_3(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path, budget=1000)
    assert main(["rates", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert "exceeds the budget of 1000 replicate-steps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, key",
    [({"budget": value}, "config.budget") for value in ("abc", True, 0, -5, None)]
    + [({"tolerances": {"duality": True}}, "tolerances.duality")],
)
def test_value_must_be_a_positive_number(tmp_path, capsys, override, key):
    cfg_path, _ = write_cfg(tmp_path, **override)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert f"'{key}' must be a positive number" in capsys.readouterr().err


def test_over_budget_rates_computes_no_floor(tmp_path, monkeypatch):
    # the budget check comes before any calibration work
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return calibration_floor(*args, **kwargs)

    monkeypatch.setattr("cltlab.cli.calibration_floor", spy)
    monkeypatch.setattr("cltlab.experiments.calibration_floor", spy)
    cfg_path, _ = write_cfg(tmp_path, budget=1000)
    assert main(["rates", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert calls == []


@pytest.mark.parametrize("command", ["simulate", "rates", "conditions", "verify", "calibrate"])
def test_threads_flag_is_rejected(tmp_path, command):
    cfg_path, _ = write_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg_path, "--out", str(tmp_path / "o"), "--threads", "2"])
    assert exc.value.code == 2


# each command writes one fixed set of artifacts, and the manifest lists exactly it
ARTIFACTS = {
    "simulate": {"trajectories.csv"},
    "rates": {"rates.csv", "rates.json", "rates.svg"},
    "conditions": {"conditions.csv", "conditions.json"},
    "verify": {"verify.csv", "verify.json"},
    "calibrate": {"calibration.csv", "calibration.json"},
}


@pytest.mark.parametrize("command", sorted(ARTIFACTS))
def test_manifest_lists_the_fixed_artifact_set(tmp_path, command):
    cfg_path, _ = write_cfg(tmp_path, verify={"checks": ["partial-sum-window"]})
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
    manifest = read_manifest(str(out))
    assert sorted(manifest.outputs) == sorted(ARTIFACTS[command])
    assert {path.name for path in out.iterdir()} == ARTIFACTS[command] | {"manifest.json"}


@pytest.mark.parametrize("command", sorted(ARTIFACTS))
def test_format_flag_is_rejected(tmp_path, command):
    cfg_path, _ = write_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg_path, "--out", str(tmp_path / "o"), "--format", "csv"])
    assert exc.value.code == 2


def test_simulate_passes_config_budget_down(tmp_path, monkeypatch):
    # the config budget reaches the batch, with no lower cap of its own
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs.get("budget"))
        return partial_sums_batch(*args, **kwargs)

    monkeypatch.setattr("cltlab.cli.partial_sums_batch", spy)
    cfg_path, _ = write_cfg(tmp_path, budget=3_000_000_000)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    assert seen == [3_000_000_000]


@pytest.mark.parametrize(
    "override, key",
    [
        ({"process": {"family": "expanding_map", "kind": "beta", "burn_in": 1000}}, "process.burn_in"),
        ({"tolerances": {"smoothing_slack": 1e-3}}, "tolerances.smoothing_slack"),
        ({"tolerances": {"covariance_slack": 1e-9}}, "tolerances.covariance_slack"),
    ],
)
def test_removed_keys_exit_2(tmp_path, capsys, override, key):
    cfg_path, _ = write_cfg(tmp_path, **override)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform"])
def test_tail_index_for_a_kind_without_one_exits_2(tmp_path, capsys, kind):
    # only symmetric_pareto reads q; any other kind used to drop it silently
    cfg_path, _ = write_cfg(tmp_path, process={"family": "iid", "innovation": {"kind": kind, "q": 4.5}})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "process.innovation" in err
    assert not out.exists()


def test_slow_coefficient_tail_is_a_config_error(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path, process={"family": "linear",
                                               "coeffs": {"rule": "power", "exponent": -1.01}})
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "coefficient tail" in capsys.readouterr().err


# a minimal 'process' section for every registered family
FAMILY_SECTIONS = {
    "davydov": {"p": 2.5, "eps": 0.1, "n_max": 24},
    "linear": {"coeffs": {"rule": "geometric", "ratio": 0.5}, "truncation": 40},
    "function_of_linear": {"coeffs": {"rule": "finite", "values": {"0": 1.0, "1": 0.5}},
                           "truncation": 2, "h_rule": "abs_power", "centering_draws": 10**4},
    "expanding_map": {"kind": "beta", "beta": 2.5},
    "iid": {},
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_registered_family_simulates(tmp_path, family):
    cfg_path, _ = write_cfg(tmp_path, process={"family": family, **FAMILY_SECTIONS[family]},
                            simulate={"n_grid": [4, 16], "replicates": 100})
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
    sums = read_trajectories(out)
    direct = partial_sums_batch(build_process(load_config(cfg_path)), [4, 16], 100)
    for n in (4, 16):
        np.testing.assert_array_equal(sums[n], direct.values(n))
    lrv = long_run_variance(build_process(load_config(cfg_path)))
    assert np.isfinite(lrv["sigma2"]) and lrv["sigma2"] > 0


# the families that have each condition method; every other family raises
# UnsupportedFamilyError naming its class
CONDITION_FAMILIES = {"second_moment_laws": {"davydov", "linear", "iid"}, "projective_terms": {"davydov", "linear"}}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_registered_family_has_each_condition_series_or_says_why_not(tmp_path, family):
    cfg_path, _ = write_cfg(tmp_path, process={"family": family, **FAMILY_SECTIONS[family]})
    spec = build_process(load_config(cfg_path))
    projective = lambda cid: {cid: series_projective(spec, cid, 2.5, 8, mc=200)}
    calls = [("second_moment_laws", ("C1", "C2"), lambda: series_C1_C2(spec, 2.5, 8, outer=50)),
             ("projective_terms", ("Cond1cob",), lambda: projective("Cond1cob")),
             ("projective_terms", ("Condcobp3adap",), lambda: projective("Condcobp3adap"))]
    for method, ids, call in calls:
        if family in CONDITION_FAMILIES[method]:
            reports = call()
            assert list(reports) == list(ids)
            for cid, rep in reports.items():
                assert isinstance(rep, ConditionReport) and rep.condition_id == cid and len(rep.terms) == 8
        else:
            with pytest.raises(UnsupportedFamilyError, match=type(spec.family).__name__):
                call()


GEOMETRIC_HALF = lambda j: 0.5**j if j >= 0 else 0.0
# each family's required 'process' keys, and its dataclass given only the
# required arguments
REQUIRED_ONLY = {
    "davydov": ({"p": 2.5, "eps": 0.1}, lambda: DavydovChain(2.5, 0.1)),
    "linear": ({"coeffs": {"rule": "geometric", "ratio": 0.5}}, lambda: LinearProcess(GEOMETRIC_HALF)),
    "function_of_linear": ({"coeffs": {"rule": "geometric", "ratio": 0.5}},
                           lambda: FunctionOfLinear(LinearProcess(GEOMETRIC_HALF))),
    "expanding_map": ({"kind": "beta"}, lambda: ExpandingMap("beta")),
    "iid": ({}, IIDBaseline),
}


def _fields(family) -> dict:
    """A family's fields by name; a linear process, whose coefficient rule is
    a new closure per build, by its innovation, truncation and coefficients."""
    if isinstance(family, LinearProcess):
        return {"innovation": family.innovation, "truncation": family.truncation,
                "coefficients": family.coefficients().tolist()}
    return {field.name: _fields(value) if isinstance(value := getattr(family, field.name), LinearProcess) else value
            for field in dataclasses.fields(family)}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_absent_optional_keys_take_the_dataclass_defaults(family):
    section, direct = REQUIRED_ONLY[family]
    built = build_process({"seed": 0, "process": {"family": family, **section}}).family
    assert type(built) is type(direct()) and _fields(built) == _fields(direct())


# ---------------------------------------------------------------------------
# config errors


def test_unknown_top_level_key_names_it(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path, extra_section={"x": 1})
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "extra_section" in capsys.readouterr().err


def test_missing_seed_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"process": {"family": "iid"}}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err


def test_davydov_schedule_is_an_unknown_key(tmp_path, capsys):
    # the chain's up-step probabilities follow from p and eps alone; a
    # schedule key could only restate them
    cfg_path, _ = write_cfg(tmp_path, process={"family": "davydov", "p": 2.5, "eps": 0.1, "schedule": [0.5, 0.5]})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert "unknown key 'process.schedule'" in capsys.readouterr().err
    assert not out.exists()


def test_r_above_2_with_limit_variance_exit_2(tmp_path, capsys):
    cfg_path, _ = write_cfg(
        tmp_path,
        rates={"p": 3.0, "r_list": [3.0], "target": "sigma2",
               "replicates": 500, "n_grid": [64, 128, 256]},
    )
    assert main(["rates", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "sigma_n2" in capsys.readouterr().err


def test_unknown_target_named_before_the_r_check(tmp_path, capsys):
    # r = 2.5 asks for sigma_n2 too, but the target that is not one is the error
    cfg_path, _ = write_cfg(
        tmp_path,
        rates={"p": 3.0, "r_list": [2.5], "target": "sigma",
               "replicates": 500, "n_grid": [64, 128, 256]},
    )
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg_path, "--out", str(out)]) == 2
    assert "unknown target: sigma" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# rates


def test_rates_outputs_and_reproducibility(tmp_path):
    cfg_path, _ = write_cfg(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["rates", "--config", cfg_path, "--out", out1]) == 0
    assert main(["rates", "--config", cfg_path, "--out", out2]) == 0
    csv1 = open(os.path.join(out1, "rates.csv"), "rb").read()
    assert csv1 == open(os.path.join(out2, "rates.csv"), "rb").read()
    assert csv1.decode().splitlines()[0] == "n,r,value,mc_stderr,floor,kolmogorov,sigma"
    payload = json.load(open(os.path.join(out1, "rates.json")))
    assert payload["schema_version"] == 1
    assert "1.0" in payload["fits"]
    svg = open(os.path.join(out1, "rates.svg")).read()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "href" not in svg  # no external references
    read_manifest(out1).check(out1)


def test_rates_says_why_a_slope_is_missing(tmp_path, capsys):
    # three grid points can never give the four a fit needs
    cfg_path, _ = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["rates", "--config", cfg_path, "--out", out]) == 0
    fit = json.load(open(os.path.join(out, "rates.json")))["fits"]["1.0"]
    assert fit["slope"] is None
    line = capsys.readouterr().out.strip()
    assert line.startswith("r = 1: slope = None, verdict = ")
    assert line.endswith(f"; n_used = {fit['n_used']} of 3 points above 3 x floor; a fit needs 4")


# ---------------------------------------------------------------------------
# conditions


def test_conditions_table(tmp_path):
    cfg_path, _ = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["conditions", "--config", cfg_path, "--out", out]) == 0
    lines = open(os.path.join(out, "conditions.csv")).read().splitlines()
    assert lines[0] == "id,component,verdict,n_terms,last_term,partial_sum"
    ids = {line.split(",")[0] for line in lines[1:]}
    assert ids == {"C1", "condalpha1"}
    verdicts = {line.split(",")[2] for line in lines[1:]}
    assert verdicts <= {"converged", "diverging", "inconclusive"}


def test_unknown_condition_id_lists_valid(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path, conditions={"ids": ["nope"]})
    assert main(["conditions", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "nope" in err and "Cond1cob" in err and "condphi" in err


def test_empty_condition_list_exit_2(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path, conditions={"ids": []})
    assert main(["conditions", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "nonempty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, names",
    [
        ({"process": {"family": "expanding_map", "kind": "beta", "beta": 2.0},
          "conditions": {"ids": ["C1"], "n_terms": 8}}, ("'C1'", "'expanding_map'")),
        ({"conditions": {"ids": ["Cond1cob"], "n_terms": 8}}, ("'Cond1cob'", "'iid'")),
        ({"process": {"family": "function_of_linear", **FAMILY_SECTIONS["function_of_linear"]},
          "conditions": {"ids": ["Cond2cob"], "n_terms": 8}}, ("'Cond2cob'", "'function_of_linear'")),
        ({"conditions": {"ids": ["condphi"], "p": 2.5, "s": 2.2, "n_terms": 8}}, ("'conditions.s'",)),
    ],
)
def test_condition_without_algorithm_exit_2(tmp_path, capsys, override, names):
    # the exit code comes from the error type: no series for the family is a config error
    cfg_path, _ = write_cfg(tmp_path, **override)
    assert main(["conditions", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and all(name in err for name in names)


DAVYDOV_CONDITIONS = {
    "seed": 0,
    "process": {"family": "davydov", "p": 2.5, "eps": 0.1, "functional": "f1", "n_max": 400},
    "conditions": {"ids": ["C1", "C2", "Cond1cob", "Cond2cob", "Condcobp3adap", "Cond2cobp3",
                           "condalpha1", "condphi"], "p": 2.5, "n_terms": 256},
}


LINEAR_CONDITIONS = {
    "seed": 3,
    "process": {"family": "linear", "coeffs": {"rule": "geometric", "ratio": 0.7}, "truncation": 64},
    "conditions": {"ids": ["C1", "C2", "Cond1cob", "Cond2cob", "Condcobp3adap"], "n_terms": 64},
}


def _conditions_subprocess(tmp_path, name: str, blas_threads: str, cfg: dict = DAVYDOV_CONDITIONS) -> bytes:
    """conditions.csv of a fresh interpreter running cfg, by default all
    eight ids on the n_max = 400 Davydov chain; the exit code also fails
    when the run loaded scipy.integrate."""
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / name)
    code = (
        "import sys; from cltlab.cli import main; "
        f"code = main(['conditions', '--config', {str(cfg_path)!r}, '--out', {out!r}]); "
        "sys.exit(code or 10 * ('scipy.integrate' in sys.modules))"
    )
    env = dict(_src_env(), OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads)
    assert subprocess.run([sys.executable, "-c", code], env=env, capture_output=True).returncode == 0
    return open(os.path.join(out, "conditions.csv"), "rb").read()


def test_conditions_csv_independent_of_blas_threads(tmp_path):
    # the kernel apply and the stationary law go through no BLAS call whose
    # summation order depends on the thread count
    assert _conditions_subprocess(tmp_path, "one", "1") == _conditions_subprocess(tmp_path, "two", "2")


def test_linear_conditions_csv_independent_of_blas_threads(tmp_path):
    # the Monte Carlo pasts meet the coefficient windows in BLAS matrix-vector
    # products (past @ c[:t], eps @ w), which must not split a sum by thread
    runs = [_conditions_subprocess(tmp_path, name, threads, LINEAR_CONDITIONS)
            for name, threads in (("one", "1"), ("two", "2"))]
    assert runs[0] == runs[1] and runs[0].count(b"\n") == 6


def test_law_norms_independent_of_blas_threads():
    # on 2 * 10^5-point laws a BLAS dot splits its sum by thread; the norms
    # of conditions are numpy reductions, the same under any thread count
    code = (
        "import numpy as np; from cltlab.processes import lp_norm_discrete; "
        "from cltlab.metrics import envelope_norm_discrete; rng = np.random.default_rng(7); "
        "laws = [(rng.normal(size=200000), rng.dirichlet(np.ones(200000))) for _ in range(6)]; "
        "print([(lp_norm_discrete(v, w, 1.25 + 0.25 * k), envelope_norm_discrete(v, w, 2.5)) "
        "for k, (v, w) in enumerate(laws)])"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(_src_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


# seeded cases of the two verify routines whose BLAS products OpenBLAS splits
# by thread, on the verify chain; prints every lhs, phi, rhs form and envelope
# side as float.hex, one case a line
VERIFY_BLAS_CASES = """
import numpy as np
from cltlab.cli import _verify_chain
from cltlab.dependence import check_covariance_inequality, envelope_contraction_check
kernel, _ = _verify_chain()
gen = np.random.default_rng(17)
rows = []
for _ in range(20):
    k = int(gen.integers(2, 4))
    f_list = [gen.normal(size=kernel.size) for _ in range(k)]
    res = check_covariance_inequality(kernel, f_list, sorted(gen.choice(np.arange(1, 13), size=k, replace=False)))
    rows.append([res["lhs"], *res["phis"], *(res["rhs_forms"][key] for key in sorted(res["rhs_forms"]))])
for _ in range(20):
    g = gen.normal(size=(kernel.size, kernel.size))
    res = envelope_contraction_check(kernel, g, float(gen.uniform(2.0, 3.0)), 1e-9)
    rows.append([res["lhs"], res["rhs"]])
for row in rows:
    print(*(float(x).hex() for x in row))
"""


def test_verify_checks_independent_of_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        env = dict(_src_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", VERIFY_BLAS_CASES], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert len(outputs[0].splitlines()) == 40 and outputs[0] == outputs[1]


@pytest.mark.skipif(not os.path.exists("/proc/self/status") or processes.available_cpus() < 2,
                    reason="needs /proc and two CPUs to tell one BLAS thread from several")
def test_cli_import_runs_blas_on_one_thread_unless_set():
    # OpenBLAS adds its worker threads to the process when numpy loads
    # cltlab.cli loads no numpy itself, so numpy is imported after it
    code = "import cltlab.cli, numpy; print(open('/proc/self/status').read().split('Threads:')[1].split()[0])"
    unset = {k: v for k, v in _src_env().items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    threads = [subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True).stdout.strip()
               for env in (unset, dict(unset, OPENBLAS_NUM_THREADS="2"))]
    assert threads == ["1", "2"]


def test_cli_import_after_numpy_leaves_the_environment_alone():
    # numpy's BLAS already has its threads; a pin written now would reach
    # only the importing process's children
    code = "import numpy, os, cltlab.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    unset = {k: v for k, v in _src_env().items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    run = subprocess.run([sys.executable, "-c", code], env=unset, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "None"


def test_conditions_makes_no_dense_kernel(tmp_path, monkeypatch):
    # every kernel operation of conditions is a row apply; a class property
    # sees the read even of a matrix cached on an earlier kernel
    reads = []
    monkeypatch.setattr(processes.FiniteKernel, "matrix", property(lambda self: reads.append(self.size)))
    cfg = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench", "configs", "conditions.json")
    assert main(["conditions", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert reads == []


def test_conditions_runs_the_second_moment_recursion_once(tmp_path, monkeypatch):
    # C1, C2, Cond2cob and Cond2cobp3 all read one pass of E(S_n^2 | Y_0)
    calls = []
    recursion = processes.second_moments
    monkeypatch.setattr(processes, "second_moments", lambda apply, f, n: calls.append(n) or recursion(apply, f, n))
    cfg_path, _ = write_cfg(tmp_path, **CHECK_COMMANDS["conditions"])
    assert main(["conditions", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert calls == [16]


def test_linear_conditions_draw_the_projective_pasts_once(tmp_path, monkeypatch):
    # Cond1cob and Condcobp3adap read one draw of the Monte Carlo pasts, and
    # each id's row is the one it gets in a run of its own
    keys = []
    stream = rngmod.stream
    monkeypatch.setattr(rngmod, "stream", lambda seed, *key: keys.append(key) or stream(seed, *key))
    rows = {}
    for ids in (["Cond1cob", "Condcobp3adap"], ["Cond1cob"], ["Condcobp3adap"]):
        cfg_path, _ = write_cfg(tmp_path, process=LINEAR, conditions={"ids": ids, "n_terms": 8, "mc": 500})
        out = tmp_path / "-".join(ids)
        keys.clear()
        assert main(["conditions", "--config", cfg_path, "--out", str(out)]) == 0
        assert keys.count((rngmod.ROLE_CALIBRATION, 1, 0)) == 1, ids
        rows[tuple(ids)] = (out / "conditions.csv").read_text().splitlines()[1:]
    assert rows["Cond1cob", "Condcobp3adap"] == rows["Cond1cob",] + rows["Condcobp3adap",]


def test_linear_conditions_report_cond2cob(tmp_path):
    cfg_path, _ = write_cfg(tmp_path, process=LINEAR, conditions={
        "ids": ["C1", "C2", "Cond2cob", "Cond2cobp3"], "n_terms": 8, "outer": 50})
    out = tmp_path / "out"
    assert main(["conditions", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "conditions.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == ["C1", "C2", "Cond2cob", "Cond2cobp3"]
    assert all(float(line.split(",")[4]) > 0.0 for line in lines)


@pytest.mark.parametrize("process", [
    {"family": "davydov", "p": 2.5, "eps": 0.1, "functional": "f1", "n_max": 60},
    {"family": "davydov", "p": 2.7, "eps": 0.3, "functional": "f2", "n_max": 60},
], ids=["f1", "f2"])
def test_davydov_rates_builds_its_chain_once(tmp_path, monkeypatch, process):
    # the simulation and the long-run variance read the one kernel of the
    # run's chain object
    calls = []
    build = processes.renewal_kernel
    monkeypatch.setattr(processes, "renewal_kernel", lambda a, kind: calls.append(a.size) or build(a, kind))
    cfg_path, _ = write_cfg(tmp_path, process=process, rates={
        "p": 2.5, "r_list": [1.0], "n_grid": [8, 16, 32, 64], "replicates": 200, "calibration": False})
    assert main(["rates", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert calls == [60]


def test_linear_trajectories_independent_of_blas_threads(tmp_path):
    # the window sums are numpy reductions, never a BLAS product
    cfg_path, _ = write_cfg(tmp_path, process=dict(LINEAR, truncation=64),
                            simulate={"n_grid": [256, 1024], "replicates": 300})
    code = "import sys; from cltlab.cli import main; sys.exit(main(sys.argv[1:]))"
    files = []
    for threads in ("1", "2"):
        out = str(tmp_path / threads)
        env = dict(_src_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        argv = [sys.executable, "-c", code, "simulate", "--config", cfg_path, "--out", out]
        assert subprocess.run(argv, env=env, capture_output=True).returncode == 0
        files.append(open(os.path.join(out, "trajectories.csv"), "rb").read())
    assert files[0] == files[1]


# ---------------------------------------------------------------------------
# verify


def test_verify_default_suite_passes(tmp_path):
    cfg_path, _ = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg_path, "--out", out]) == 0
    lines = open(os.path.join(out, "verify.csv")).read().splitlines()
    assert len(lines) == 7  # header + six checks
    assert all(line.split(",")[1] == "pass" for line in lines[1:])


def test_verify_list_enumerates_checks(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("covariance-inequality", "envelope-contraction", "smoothing-lemma",
                 "partial-sum-window", "coboundary-residual", "kernel-duality"):
        assert name in out


def test_verify_corrupted_kernel_fails_naming_invariant(tmp_path, capsys, monkeypatch):
    def corrupted():
        # row 0, the boundary state -24, drops to 0 by its second slot; its
        # first slot (weight 0) becomes a loop: K(-24, -24) = 0.2
        kernel, f = _verify_chain()
        cols, weights = kernel.cols.copy(), kernel.weights.copy()
        cols[0, 0], weights[0, 0] = 0, 0.2
        return FiniteKernel(kernel.states, cols, weights, kernel.stationary), f

    monkeypatch.setattr("cltlab.cli._verify_chain", corrupted)
    cfg_path, _ = write_cfg(tmp_path, verify={"checks": ["covariance-inequality"]})
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    assert "rows must sum to 1" in capsys.readouterr().out


UNREAD = [
    ("conditions", {"conditions": {"ids": ["C1"], "alpha_decay": 5}}, "conditions.alpha_decay", "condalpha1"),
    ("conditions", {"conditions": {"ids": ["condalpha1", "condphi"], "mc": 100}}, "conditions.mc", "Cond1cob"),
    ("conditions", {"conditions": {"ids": ["Cond1cob"], "outer": 10}}, "conditions.outer", "Cond2cobp3"),
    ("conditions", {"conditions": {"ids": ["condalpha1"], "s": 3.0}}, "conditions.s", "condphi"),
    ("verify", {"verify": {"checks": ["partial-sum-window"], "cases": 3}}, "verify.cases", "envelope-contraction"),
]


@pytest.mark.parametrize("command, override, key, reader", UNREAD, ids=[case[2] for case in UNREAD])
def test_key_no_requested_id_reads_exit_2_naming_its_readers(tmp_path, capsys, command, override, key, reader):
    # a key that changes nothing in this run is an error, not a silent default
    cfg_path, _ = write_cfg(tmp_path, **override)
    out = tmp_path / "o"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"'{key}' is read only by" in err and f"'{reader}'" in err
    assert not out.exists()


def _committed_configs() -> dict:
    """name -> config of each bench config and of README's CLI example."""
    root = pathlib.Path(__file__).resolve().parents[1]
    found = {path.name: json.loads(path.read_text()) for path in sorted((root / "bench" / "configs").glob("*.json"))}
    readme = (root / "README.md").read_text().split("## CLI example", 1)[1]
    found["README"] = json.loads(readme.split("```json", 1)[1].split("```", 1)[0])
    return found


COMMITTED = _committed_configs()
READERS = {"simulate": simulate_params, "rates": build_plan,
           "conditions": lambda cfg: conditions_params(cfg, VALID_CONDITIONS),
           "verify": lambda cfg: verify_params(cfg, VERIFY_CHECKS), "calibrate": calibrate_params}


@pytest.mark.parametrize("name", sorted(COMMITTED))
def test_committed_config_reads_cleanly(tmp_path, name):
    # the benchmark's configs and README's example hold only keys their runs read
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(COMMITTED[name]))
    cfg = load_config(str(path))
    assert {"simulate", "rates", "conditions", "verify"} & cfg.keys()
    for section in READERS.keys() & cfg.keys():
        READERS[section](cfg)
    if name == "README":  # its `cltlab verify` runs every check with the defaults
        assert verify_params(cfg, VERIFY_CHECKS) == {"checks": tuple(VERIFY_CHECKS), "cases": 25}


def test_verify_perturb_kernel_is_an_unknown_key(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path, verify={"checks": ["covariance-inequality"], "perturb_kernel": 0.2})
    out = tmp_path / "o"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 2
    assert "unknown key 'verify.perturb_kernel'" in capsys.readouterr().err
    assert not out.exists()


def test_verify_tolerances_come_from_the_config(tmp_path, capsys):
    # the coboundary residual (about 1e-15) fails a 1e-30 tolerance; the
    # envelope check's last case, a g of Y_0 alone, contracts with equality,
    # and at seed 4 its rounded lhs lies above its rhs: a slack of 1e-300
    # fails it and the default 1e-9 passes it
    checks = {"checks": ["coboundary-residual", "envelope-contraction"], "cases": 5}
    statuses = []
    for name, tolerances, code in (("tight", {"coboundary": 1e-30, "envelope_slack": 1e-300}, 1),
                                   ("default", {}, 0)):
        cfg_path, _ = write_cfg(tmp_path, name=f"{name}.json", seed=4, verify=checks, tolerances=tolerances)
        assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / name)]) == code
        rows = open(tmp_path / name / "verify.csv").read().splitlines()[1:]
        statuses.append([row.split(",")[:2] for row in rows])
    assert statuses == [[["coboundary-residual", "fail"], ["envelope-contraction", "fail"]],
                        [["coboundary-residual", "pass"], ["envelope-contraction", "pass"]]]
    assert "above 1e-30" in open(tmp_path / "tight" / "verify.csv").read()


def test_envelope_case_measurable_in_y0_holds_with_equality():
    # for g(y0, y1) = u(y0), E(X | Y_0) = X: lhs and rhs are the norm of one
    # law, weighted by pi and by the joint law, equal up to rounding
    kernel, _ = _verify_chain()
    gen = np.random.default_rng(3)
    for _ in range(8):
        g = np.broadcast_to(gen.normal(size=(kernel.size, 1)), (kernel.size, kernel.size))
        res = envelope_contraction_check(kernel, g, float(gen.uniform(2.0, 3.0)), 1e-9)
        assert abs(res["lhs"] / res["rhs"] - 1.0) <= 1e-14, res


def test_verify_unknown_check_exit_2(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path, verify={"checks": ["nope"]})
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "kernel-duality" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_matches_direct_call(tmp_path):
    cfg_path, _ = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["calibrate", "--config", cfg_path, "--out", out]) == 0
    row = open(os.path.join(out, "calibration.csv")).read().splitlines()[1].split(",")
    direct = calibration_floor(200, 1.0, reps=20)
    assert float(row[2]) == direct["mean"]
    assert float(row[3]) == direct["stderr"]


def test_calibrate_csv_independent_of_blas_threads(tmp_path):
    # the panel sums are BLAS matrix-vector products; at m = 10^4 two
    # OpenBLAS threads split them, and no output bit may depend on that
    cfg_path, _ = write_cfg(tmp_path, calibrate={"replicates": [1000, 10000], "r_list": [1.0, 2.0], "reps": 5})
    code = "import sys; from cltlab.cli import main; sys.exit(main(sys.argv[1:]))"
    files = []
    for threads in ("1", "2"):
        out = str(tmp_path / threads)
        env = dict(_src_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        argv = [sys.executable, "-c", code, "calibrate", "--config", cfg_path, "--out", out]
        assert subprocess.run(argv, env=env, capture_output=True).returncode == 0
        files.append(open(os.path.join(out, "calibration.csv"), "rb").read())
    assert len(files[0].splitlines()) == 5
    assert files[0] == files[1]


# ---------------------------------------------------------------------------
# manifests


def test_manifest_detects_tampered_config(tmp_path):
    cfg_path, cfg_dict = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
    manifest = read_manifest(out)
    tampered = dict(manifest.config)
    tampered["seed"] = 999
    bad = RunManifest(manifest.config_digest, tampered, manifest.version, 999,
                      manifest.started, manifest.finished, manifest.tolerances,
                      manifest.outputs)
    with pytest.raises(IOError_):
        bad.check(out)


def test_manifest_detects_missing_output(tmp_path):
    cfg_path, _ = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
    os.remove(os.path.join(out, "trajectories.csv"))
    with pytest.raises(IOError_):
        read_manifest(out).check(out)


def test_no_writes_outside_out_dir(tmp_path, monkeypatch):
    cfg_path, _ = write_cfg(tmp_path)
    cwd = tmp_path / "work"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
    assert list(cwd.iterdir()) == []


def test_digest_is_content_hash():
    cfg = {"seed": 1, "a": [1, 2]}
    assert config_digest(cfg) == config_digest({"a": [1, 2], "seed": 1})
    assert config_digest(cfg) != config_digest({"seed": 2, "a": [1, 2]})


# ---------------------------------------------------------------------------
# malformed values: each is a config error naming its key, before any output

MALFORMED = [
    ("simulate", {"process": dict(DAVYDOV, p="2.5")}, "process.p"),
    ("simulate", {"process": dict(DAVYDOV, eps="x")}, "process.eps"),
    ("simulate", {"process": dict(DAVYDOV, n_max=2)}, "n_max"),
    ("simulate", {"process": dict(DAVYDOV, functional="f9")}, "functional"),
    ("simulate", {"process": dict(LINEAR, coeffs={"rule": "geometric", "ratio": "0.5"})}, "process.coeffs.ratio"),
    ("simulate", {"process": dict(LINEAR, coeffs={"rule": "power", "exponent": "x"})}, "process.coeffs.exponent"),
    ("simulate", {"process": dict(LINEAR, coeffs={"rule": "finite", "values": {"0": "abc"}})},
     "process.coeffs.values.0"),
    ("simulate", {"process": dict(LINEAR, truncation=-1)}, "process.truncation"),
    ("simulate", {"process": dict(LINEAR, family="function_of_linear", gamma="x")}, "process.gamma"),
    ("simulate", {"process": {"family": "expanding_map", "kind": "beta", "beta": "x"}}, "process.beta"),
    ("simulate", {"process": {"family": "expanding_map", "kind": "beta", "observable": "square"}}, "observable"),
    ("simulate", {"process": {"family": "iid", "innovation": {"kind": "symmetric_pareto", "q": "x"}}},
     "process.innovation.q"),
    ("simulate", {"simulate": {"n_grid": [4, 4], "replicates": 200}}, "simulate.n_grid"),
    ("simulate", {"simulate": {"n_grid": [64, 128], "replicates": 150.7}}, "simulate.replicates"),
    ("rates", {"rates": {"p": 3.0, "r_list": ["a"], "n_grid": [64, 128, 256], "replicates": 500}}, "rates.r_list"),
    ("rates", {"rates": {"p": 3.0, "r_list": [1.0], "n_grid": [64, 128, 256], "replicates": "x"}},
     "rates.replicates"),
    ("rates", {"rates": {"p": 3.0, "r_list": [1.0], "n_grid": [64, 128, 256], "replicates": 500,
                         "calibration": "false"}}, "rates.calibration"),
    ("conditions", {"conditions": {"ids": ["C1"], "n_terms": "x"}}, "conditions.n_terms"),
    ("conditions", {"conditions": {"ids": ["C1"], "p": "x", "n_terms": 8}}, "conditions.p"),
    ("conditions", {"conditions": {"ids": ["C1"], "outer": "x", "n_terms": 8}}, "conditions.outer"),
    ("conditions", {"conditions": {"ids": ["condphi"], "p": 0.5, "s": 1, "n_terms": 8}}, "conditions.s"),
    ("simulate", {"budget": 10**400}, "config.budget"),
    ("verify", {"verify": {"checks": ["partial-sum-window"], "cases": "x"}}, "verify.cases"),
    ("verify", {"verify": {"checks": ["covariance-inequality"], "cases": 1, "perturb_kernel": "x"}},
     "verify.perturb_kernel"),
    ("calibrate", {"calibrate": {"replicates": [200], "r_list": [1.0], "reps": "x"}}, "calibrate.reps"),
    ("calibrate", {"calibrate": {"replicates": ["x"], "r_list": [1.0], "reps": 20}}, "calibrate.replicates"),
]


REPEATED = [
    ("rates", {"rates": {"p": 3.0, "r_list": [1.0, 1.0], "n_grid": [64, 128, 256], "replicates": 500}},
     "rates.r_list"),
    ("calibrate", {"calibrate": {"replicates": [200], "r_list": [1.0, 2.0, 1.0], "reps": 20}}, "calibrate.r_list"),
    ("calibrate", {"calibrate": {"replicates": [200, 200], "r_list": [1.0], "reps": 20}}, "calibrate.replicates"),
]


@pytest.mark.parametrize("command, override, key", REPEATED, ids=[case[2] for case in REPEATED])
def test_repeated_list_value_exit_2_naming_key(tmp_path, capsys, command, override, key):
    # a repeated r or sample size would write its rows twice and fit each
    # point twice; rates then failed in the plot step with no manifest
    cfg_path, _ = write_cfg(tmp_path, **override)
    out = tmp_path / "o"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{key}' must list each value once" in err
    assert not out.exists()


@pytest.mark.parametrize("command, override, key", MALFORMED, ids=[case[2] for case in MALFORMED])
def test_malformed_value_exit_2_naming_key(tmp_path, capsys, command, override, key):
    cfg_path, _ = write_cfg(tmp_path, **override)
    out = tmp_path / "o"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# expanding-map keys: each kind takes only the keys it reads


MAPS = {
    "beta": {"family": "expanding_map", "kind": "beta", "beta": 2.5},
    "gauss": {"family": "expanding_map", "kind": "gauss"},
    "piecewise_affine": {"family": "expanding_map", "kind": "piecewise_affine", "breakpoints": [0.0, 0.4, 1.0],
                         "slopes": [2.5, 5.0 / 3.0], "offsets": [0.0, -2.0 / 3.0]},
}
STRAY = {"beta": 2.5, "a": 1.0, "breakpoints": [0.0, 1.0], "slopes": [2.0], "offsets": [0.0]}
STRAY_CASES = [(kind, key) for kind in MAPS for key in STRAY if key not in MAPS[kind]]


@pytest.mark.parametrize("kind, key", STRAY_CASES, ids=[f"{kind}-{key}" for kind, key in STRAY_CASES])
def test_map_key_the_kind_does_not_read_exits_2(tmp_path, capsys, kind, key):
    cfg_path, _ = write_cfg(tmp_path, process=dict(MAPS[kind], **{key: STRAY[key]}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"process.{key}" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(MAPS))
def test_map_kind_with_its_own_keys_runs(tmp_path, kind):
    cfg_path, _ = write_cfg(tmp_path, process=dict(MAPS[kind], observable="identity"),
                            simulate={"n_grid": [4, 8], "replicates": 100})
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
