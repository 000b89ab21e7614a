"""Self-tests of the benchmark harness, outside the package's test suite:

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys

import pytest

import run
import tracer

sys.path.insert(0, str(run.SRC))


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 5]; root > c [7, 9]
    spans = [["root", 0.0, 10.0, -1, None], ["a", 1.0, 6.0, 0, None],
             ["b", 2.0, 5.0, 1, None], ["c", 7.0, 9.0, 0, None]]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 2.0])
    agg = run.aggregate(spans)
    assert agg["root"] == {"calls": 1, "self_s": pytest.approx(3.0), "incl_s": pytest.approx(10.0)}
    # the self times of a whole trace add up to the root's duration
    assert sum(tracer.self_times(spans)) == pytest.approx(10.0)


def test_aggregate_splits_distance_by_parent_and_batch_by_family():
    spans = [["experiments.bootstrap", 0.0, 4.0, -1, None],
             ["metrics.wasserstein_vs_gaussian", 1.0, 2.0, 0, None],
             ["metrics.wasserstein_vs_gaussian", 2.0, 3.5, 0, None],
             ["processes.partial_sums_batch", 5.0, 7.0, -1, {"family": "davydov", "steps": 40}],
             ["io.write_csv", 7.0, 7.5, -1, {"bytes": 123}]]
    agg = run.aggregate(spans)
    split = agg["metrics.wasserstein_vs_gaussian.bootstrap"]
    assert split["calls"] == 2 and split["self_s"] == pytest.approx(2.5)
    assert agg["experiments.bootstrap"]["self_s"] == pytest.approx(1.5)
    assert agg["processes.partial_sums_batch.davydov"]["incl_s"] == pytest.approx(2.0)
    assert agg["counters"] == {"steps": 40, "steps.davydov": 40, "bytes": 123}
    # a split is missing when either its own hook or its parent's hook is
    assert run._needs("metrics.wasserstein_vs_gaussian.bootstrap") == {
        "metrics.wasserstein_vs_gaussian", "experiments.bootstrap"}
    assert run._needs("processes.partial_sums_batch.davydov") == {"processes.partial_sums_batch"}


def test_wrappers_are_installed_and_restored():
    import cltlab.cli
    import cltlab.dependence
    import cltlab.rng

    before = {(m, a): tracer._resolve(m, a) for m, a, _ in tracer.HOOKS}
    originals = {key: getattr(*found) for key, found in before.items()}
    recorder = tracer.Recorder()
    hooks = tracer.HOOKS + (("cltlab.experiments", "no_such_function", "gone"),)
    restore, missing = tracer.install(recorder, hooks)
    try:
        assert missing == ["cltlab.experiments.no_such_function"]
        assert cltlab.rng.stream.__wrapped__ is originals[("cltlab.rng", "stream")]
        cls = cltlab.dependence.CoboundaryDecomposition
        assert cls.identity_check.__wrapped__ is originals[
            ("cltlab.dependence", "CoboundaryDecomposition.identity_check")]
        cltlab.rng.stream(1, 2, 3).random()
        assert [s[0] for s in recorder.spans] == ["rng.stream"]
        assert recorder.spans[0][2] >= recorder.spans[0][1]
    finally:
        tracer.uninstall(restore)
    for key, found in before.items():
        assert getattr(*found) is originals[key]
    assert not hasattr(cltlab.cli.write_csv, "__wrapped__")


def test_bad_config_counts_as_failed_operation():
    seq_dir = run.WORK / "selftest" / "bad-config"
    shutil.rmtree(seq_dir, ignore_errors=True)
    seq_dir.mkdir(parents=True)
    bad = seq_dir / "bad.json"
    bad.write_text(json.dumps({"seed": 1, "process": {"family": "expanding_map", "kind": "beta"},
                               "rates": {"p": 3.0, "r_list": [1.0], "bogus": 1}}))
    step = seq_dir / "rates"
    result = run.run_command(run.cli_argv(["rates", "--config", str(bad), "--out",
                                           str(step / "out"), "--seed", "1"]), step)
    assert result["code"] == 2
    assert result["wall_s"] > 0 and result["cpu_s"] > 0 and result["rss_mb"] > 0
    golden = json.loads((run.BENCH / "golden.json").read_text())
    seq = {"commands": {"rates": result}, "digests": run.digests("rates-readme", seq_dir)}
    ops = run.check_sequence("rates-readme", seq, run.observe("rates-readme", seq_dir),
                             golden, 1, None)
    shutil.rmtree(seq_dir, ignore_errors=True)
    assert [(name, status) for name, status, _ in ops] == [("command:rates", "wrong")]


def test_failed_verify_check_is_failed_not_wrong():
    golden = json.loads((run.BENCH / "golden.json").read_text())
    checks = golden["reference"]["checks"]["verify"]["checks"]
    status = {c: "pass" for c in checks}
    status["envelope-contraction"] = "fail"
    ops = []
    assert run._check_verify({"status": status}, {"checks": checks}, ops) == []
    assert [s for _, s, _ in ops].count("failed") == 1


def test_manifest_metrics_are_the_ones_run_reports():
    manifest = json.loads(run.MANIFEST.read_text())
    for metric in manifest["per_layer"]:
        assert run.PER_LAYER_UNITS[metric["name"]] == metric["unit"]
    assert [m["name"] for m in manifest["end_to_end"]] == ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]
