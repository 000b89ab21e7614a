"""cltlab benchmark: drives the public CLI on a fixed workload and prints one
JSON result line.

    python3 bench/run.py --workload rates-readme --seed 1 --seconds 30 --trace 0

Each command runs in its own interpreter with a fresh --out and the workload
seed passed through --seed, exactly as a user would run it. With --trace 0
the result holds the end-to-end metrics (medians over the command sequences
run in the time budget); with --trace 1 it holds per-layer metrics from spans
recorded by bench/tracer.py, after one untraced sequence that serves as the
byte-identity reference and the tracing-overhead baseline.

Every run checks its outputs against bench/golden.json. The last line of
stdout is {"correct", "attempted", "failed", "metrics"}; a full run record
with every raw sample is written to .bench-work/records/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench-work"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())
MANIFEST = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # a command still running this long after the run started is killed
REL_TOL = 1e-9  # numeric CSV cells against the committed reference
STAT_TOL = 0.1  # simulated std against the exact sqrt(Var S_n / n), about 10 standard errors at M = 10^4
FLOOR_FACTOR = 3.0  # cltlab.experiments: points above this multiple of the floor enter the fit
MIN_FIT_POINTS = 4  # cltlab.experiments: fewer usable points leave the slope empty
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# ---------------------------------------------------------------------------
# running commands


def _child_env() -> dict:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_command(argv: list, log_dir: Path, deadline: float = math.inf) -> dict:
    """Run one process to completion, or kill it at the perf_counter
    deadline; wall time, CPU time and peak RSS come from wait4 on that child
    alone."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        killer = threading.Timer(min(max(deadline - start, 0.0), 3600.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def cli_argv(cli_args: list, spans: Path | None = None) -> list:
    if spans is None:
        return [sys.executable, "-m", "cltlab.cli", *cli_args]
    return [sys.executable, "-X", "importtime", str(BENCH / "tracer.py"),
            "--spans", str(spans), "--", *cli_args]


def run_sequence(workload: str, seed: int, seq_dir: Path, traced: bool,
                 deadline: float = math.inf) -> dict:
    """One pass over the workload's commands, each with a fresh --out."""
    results = {}
    start = time.perf_counter()
    for step in WORKLOADS[workload]["steps"]:
        step_dir = seq_dir / step["name"]
        cli_args = [step["command"], "--config", str(BENCH / "configs" / step["config"]),
                    "--out", str(step_dir / "out"), "--seed", str(seed)]
        spans = step_dir / "spans.json" if traced else None
        results[step["name"]] = run_command(cli_argv(cli_args, spans), step_dir, deadline)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "cpu_s": sum(r["cpu_s"] for r in results.values()),
            "peak_rss_mb": max(r["rss_mb"] for r in results.values()), "commands": results}


# ---------------------------------------------------------------------------
# outputs and their correctness


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(workload: str, seq_dir: Path) -> dict:
    """sha256 of every artifact; manifests carry timestamps and are left out."""
    out = {}
    for step in WORKLOADS[workload]["steps"]:
        out_dir = seq_dir / step["name"] / "out"
        if out_dir.is_dir():
            for path in sorted(out_dir.iterdir()):
                if path.name != "manifest.json":
                    out[f"{step['name']}/{path.name}"] = _sha256(path)
    return out


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _all_close(got, want) -> bool:
    return len(got) == len(want) and all(_close(a, b) for a, b in zip(got, want))


def _moments(values: list) -> tuple:
    mean = math.fsum(values) / len(values)
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))


def observe(workload: str, seq_dir: Path) -> dict:
    """Values the correctness check and the golden file compare, per step."""
    obs = {}
    for step in WORKLOADS[workload]["steps"]:
        out = seq_dir / step["name"] / "out"
        cmd = step["command"]
        try:
            if cmd == "rates":
                rows = _read_csv(out / "rates.csv")
                fits = json.loads((out / "rates.json").read_text())["fits"]
                obs[step["name"]] = {
                    **{col: [float(row[col]) for row in rows]
                       for col in ("n", "r", "value", "mc_stderr", "floor", "kolmogorov", "sigma")},
                    "fits": {r: {"verdict": f["verdict"], "n_used": f["n_used"],
                                 "slope_is_none": f["slope"] is None} for r, f in fits.items()}}
            elif cmd == "simulate":
                by_n: dict = {}
                for row in _read_csv(out / "trajectories.csv"):
                    by_n.setdefault(int(row["n"]), []).append(float(row["value"]))
                obs[step["name"]] = {
                    "n": sorted(by_n), "count": [len(by_n[n]) for n in sorted(by_n)],
                    "mean": [_moments(by_n[n])[0] for n in sorted(by_n)],
                    "std": [_moments(by_n[n])[1] for n in sorted(by_n)]}
            elif cmd == "conditions":
                obs[step["name"]] = {"rows": [
                    [r["id"], r["component"], r["verdict"], int(r["n_terms"]),
                     float(r["last_term"]), float(r["partial_sum"])]
                    for r in _read_csv(out / "conditions.csv")]}
            elif cmd == "verify":
                obs[step["name"]] = {"status": {r["check"]: r["status"]
                                                for r in _read_csv(out / "verify.csv")}}
        except (OSError, KeyError, ValueError) as exc:
            obs[step["name"]] = {"error": f"{type(exc).__name__}: {exc}"}
    return obs


def check_sequence(workload: str, seq: dict, obs: dict, golden: dict, seed: int,
                   first_digests: dict | None) -> list:
    """Operations of one sequence as (name, status, note): status is "ok",
    "failed" (the program reported a failure: a verify check that fails and
    the exit code 1 it causes) or "wrong" (an output that is missing,
    inconsistent or off the reference). Both of the latter count as failed;
    "wrong" also makes the run incorrect."""
    ref = golden["reference"][workload]
    gold = golden["seeds"].get(str(seed), {}).get(workload)
    ops = []
    for step in WORKLOADS[workload]["steps"]:
        name, cmd = step["name"], step["command"]
        code = seq["commands"][name]["code"]
        got = obs.get(name, {"error": "no output"})
        problems = []
        if "error" in got:
            problems.append(got["error"])
        elif cmd == "rates":
            problems += _check_rates(got, ref[name], gold[name] if gold else None)
        elif cmd == "simulate":
            problems += _check_simulate(got, ref[name], gold[name] if gold else None)
        elif cmd == "conditions":
            problems += _check_conditions(got, ref[name], ops)
        elif cmd == "verify":
            problems += _check_verify(got, ref[name], ops)
        if first_digests is not None:
            here = {k: v for k, v in seq["digests"].items() if k.startswith(name + "/")}
            there = {k: v for k, v in first_digests.items() if k.startswith(name + "/")}
            if here != there:
                problems.append("artifacts differ from the first sequence of this run")
        reported_fail = cmd == "verify" and code == 1 and "error" not in got and \
            "fail" in got["status"].values()
        if problems:
            ops.append((f"command:{name}", "wrong", "; ".join(problems)))
        elif code == 0:
            ops.append((f"command:{name}", "ok", ""))
        elif reported_fail:
            ops.append((f"command:{name}", "failed", "exit 1: a verify check failed"))
        else:
            ops.append((f"command:{name}", "wrong", f"exit code {code}"))
    return ops


def _check_rates(got: dict, ref: dict, gold: dict | None) -> list:
    problems = []
    for col in ("n", "r", "floor", "sigma"):  # independent of the seed
        if not _all_close(got[col], ref[col]):
            problems.append(f"rates.csv column {col} off the reference")
    for r, fit in got["fits"].items():
        pts = [(v, fl) for v, fl, rr in zip(got["value"], got["floor"], got["r"]) if rr == float(r)]
        usable = sum(v > FLOOR_FACTOR * fl for v, fl in pts)
        if fit["n_used"] != usable or fit["slope_is_none"] != (usable < MIN_FIT_POINTS):
            problems.append(f"fit r = {r} inconsistent with rates.csv")
    if gold is not None:
        for col in ("value", "mc_stderr", "kolmogorov"):
            if not _all_close(got[col], gold[col]):
                problems.append(f"rates.csv column {col} off the golden values")
        if got["fits"] != gold["fits"]:
            problems.append("fits differ from the golden verdict, n_used or slope")
    return problems


def _check_simulate(got: dict, ref: dict, gold: dict | None) -> list:
    problems = []
    if got["n"] != ref["n"] or any(c != ref["replicates"] for c in got["count"]):
        problems.append("trajectories.csv does not hold replicates x n_grid rows")
        return problems
    for n, mean, std, sigma in zip(got["n"], got["mean"], got["std"], ref["sigma_n"]):
        if not (math.isfinite(mean) and math.isfinite(std)):
            problems.append(f"non-finite values at n = {n}")
        elif abs(std / sigma - 1.0) > STAT_TOL or abs(mean) > STAT_TOL * sigma:
            problems.append(f"n = {n}: mean {mean:.4g}, std {std:.4g} against sigma_n {sigma:.4g}")
    if gold is not None and not (_all_close(got["mean"], gold["mean"])
                                 and _all_close(got["std"], gold["std"])):
        problems.append("trajectory moments off the golden values")
    return problems


def _check_conditions(got: dict, ref: dict, ops: list) -> list:
    rows, want = got["rows"], ref["rows"]
    if [r[:2] for r in rows] != [w[:2] for w in want]:
        return ["conditions.csv rows differ from the reference ids"]
    for row, w in zip(rows, want):
        ok = row[2:4] == w[2:4] and _all_close(row[4:], w[4:])
        label = row[0] + (f".{row[1]}" if row[1] else "")
        ops.append((f"conditions:{label}", "ok" if ok else "wrong",
                    "" if ok else f"got {row[2:]}, reference {w[2:]}"))
    return []


def _check_verify(got: dict, ref: dict, ops: list) -> list:
    if sorted(got["status"]) != sorted(ref["checks"]):
        return ["verify.csv does not list the configured checks"]
    for check in ref["checks"]:
        status = got["status"][check]
        ops.append((f"verify:{check}", "ok" if status == "pass" else "failed",
                    "" if status == "pass" else "check reported fail"))
    return []


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _importtimes(stderr: Path) -> dict:
    """Cumulative import seconds per module from `python -X importtime`."""
    out = {}
    for line in stderr.read_text(errors="replace").splitlines():
        if line.startswith("import time:") and "|" in line:
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if parts[1].isdigit():
                out.setdefault(parts[2], int(parts[1]) / 1e6)
    return out


_SPLITS = {"experiments.bootstrap": "bootstrap", "experiments.calibration_floor": "calibration",
           "experiments.run_experiment": "point"}


def aggregate(spans: list) -> dict:
    """calls, self seconds and inclusive seconds per span key. Keys are span
    names, plus the per-family split of partial_sums_batch and the by-parent
    split of wasserstein_vs_gaussian; counters go under "steps" and "bytes"."""
    own = tracer.self_times(spans)
    agg: dict = {}

    def add(key, i, span):
        a = agg.setdefault(key, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        a["calls"] += 1
        a["self_s"] += own[i]
        a["incl_s"] += span[2] - span[1]

    counters = {"steps": 0, "bytes": 0}
    for i, span in enumerate(spans):
        name, _, _, parent, tag = span
        add(name, i, span)
        if name == "metrics.wasserstein_vs_gaussian" and parent >= 0:
            add(f"{name}.{_SPLITS.get(spans[parent][0], 'other')}", i, span)
        if tag:
            if "family" in tag:
                add(f"{name}.{tag['family']}", i, span)
                counters["steps"] += tag["steps"]
                counters[f"steps.{tag['family']}"] = counters.get(f"steps.{tag['family']}", 0) + tag["steps"]
            counters["bytes"] += tag.get("bytes", 0)
    agg["counters"] = counters
    return agg


# (metric, unit, span key, field); a metric is not measured when a hook it reads is missing
LAYER_METRICS = (
    ("cli.self_s", "s", "cli.main", "self_s"),
    ("config.load_s", "s", "config.load", "self_s"),
    ("processes.partial_sums_batch_s", "s", "processes.partial_sums_batch", "self_s"),
    ("processes.partial_sums_batch.beta_map_s", "s", "processes.partial_sums_batch.beta_map", "self_s"),
    ("processes.partial_sums_batch.davydov_s", "s", "processes.partial_sums_batch.davydov", "self_s"),
    ("processes.partial_sums_batch.linear_s", "s", "processes.partial_sums_batch.linear", "self_s"),
    ("processes.partial_sums_batch.doubling_map_s", "s", "processes.partial_sums_batch.doubling_map", "self_s"),
    ("processes.long_run_variance_s", "s", "processes.long_run_variance", "self_s"),
    ("processes.transfer_duality_residual_s", "s", "processes.transfer_duality_residual", "self_s"),
    ("rng.stream_calls", "count", "rng.stream", "calls"),
    ("rng.stream_s", "s", "rng.stream", "self_s"),
    ("metrics.wasserstein_vs_gaussian_calls", "count", "metrics.wasserstein_vs_gaussian", "calls"),
    ("metrics.wasserstein_vs_gaussian_s", "s", "metrics.wasserstein_vs_gaussian", "self_s"),
    ("metrics.wasserstein_vs_gaussian.bootstrap_calls", "count", "metrics.wasserstein_vs_gaussian.bootstrap", "calls"),
    ("metrics.wasserstein_vs_gaussian.bootstrap_s", "s", "metrics.wasserstein_vs_gaussian.bootstrap", "self_s"),
    ("metrics.wasserstein_vs_gaussian.calibration_calls", "count", "metrics.wasserstein_vs_gaussian.calibration", "calls"),
    ("metrics.wasserstein_vs_gaussian.calibration_s", "s", "metrics.wasserstein_vs_gaussian.calibration", "self_s"),
    ("metrics.wasserstein_vs_gaussian.point_calls", "count", "metrics.wasserstein_vs_gaussian.point", "calls"),
    ("metrics.wasserstein_vs_gaussian.point_s", "s", "metrics.wasserstein_vs_gaussian.point", "self_s"),
    ("metrics.kolmogorov_s", "s", "metrics.kolmogorov", "self_s"),
    ("metrics.smoothing_lemma_check_calls", "count", "metrics.smoothing_lemma_check", "calls"),
    ("metrics.smoothing_lemma_check_s", "s", "metrics.smoothing_lemma_check", "self_s"),
    ("metrics.envelope_norm_discrete_calls", "count", "metrics.envelope_norm_discrete", "calls"),
    ("metrics.envelope_norm_discrete_s", "s", "metrics.envelope_norm_discrete", "self_s"),
    ("experiments.bootstrap_s", "s", "experiments.bootstrap", "self_s"),
    ("experiments.bootstrap_resamples", "count", "metrics.wasserstein_vs_gaussian.bootstrap", "calls"),
    ("experiments.calibration_floor_s", "s", "experiments.calibration_floor", "self_s"),
    ("experiments.run_experiment.self_s", "s", "experiments.run_experiment", "self_s"),
    ("dependence.check_covariance_inequality_calls", "count", "dependence.check_covariance_inequality", "calls"),
    ("dependence.check_covariance_inequality_s", "s", "dependence.check_covariance_inequality", "self_s"),
    ("dependence.conditions_s", "s", "dependence.conditions", "self_s"),
    ("dependence.coboundary_identity_check_s", "s", "dependence.coboundary_identity_check", "self_s"),
    ("dependence.envelope_contraction_check_s", "s", "dependence.envelope_contraction_check", "self_s"),
    ("dependence.an_bn_s", "s", "dependence.an_bn", "self_s"),
    ("io.write_csv_s", "s", "io.write_csv", "self_s"),
    ("io.save_batch_s", "s", "io.save_batch", "self_s"),
    ("io.write_json_s", "s", "io.write_json", "self_s"),
    ("io.svg_rate_plot_s", "s", "io.svg_rate_plot", "self_s"),
)
# metrics computed below from several spans or from outside the spans
DERIVED_METRICS = (
    ("cli.import_s", "s"), ("cli.import.scipy_stats_s", "s"),
    ("processes.replicate_steps", "count"), ("processes.ns_per_replicate_step", "ns"),
    ("experiments.bootstrap_s_per_point", "s"), ("io.bytes_written", "bytes"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
)
PER_LAYER_UNITS = {name: unit for name, unit, *_ in LAYER_METRICS + DERIVED_METRICS}


def _needs(key: str) -> set:
    """Span names whose hooks a span key depends on."""
    for base in ("processes.partial_sums_batch", "metrics.wasserstein_vs_gaussian"):
        if key.startswith(base + "."):
            split = key[len(base) + 1:]
            return {base} | {parent for parent, s in _SPLITS.items() if s == split}
    return {key}


def layer_metrics(workload: str, seq_dir: Path, seq: dict) -> dict:
    """Per-layer metrics of one traced sequence: totals over its commands,
    except the import times, which are per command (median). Also returns
    the missing hooks and the span totals and counters behind the metrics."""
    total: dict = {}
    counters = {"steps": 0, "bytes": 0}
    missing: set = set()
    imports = {"cltlab.cli": [], "scipy.stats": []}
    for step in WORKLOADS[workload]["steps"]:
        step_dir = seq_dir / step["name"]
        data = json.loads((step_dir / "spans.json").read_text())
        missing.update(data["missing"])
        agg = aggregate(data["spans"])
        for key, value in agg.pop("counters").items():
            counters[key] = counters.get(key, 0) + value
        for key, a in agg.items():
            t = total.setdefault(key, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            for field in t:
                t[field] += a[field]
        times = _importtimes(step_dir / "stderr.txt")
        for module in imports:
            imports[module].append(times.get(module, 0.0))
    missing_spans = {name for module, attr, name in tracer.HOOKS if f"{module}.{attr}" in missing}
    zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    metrics = {}
    for name, _, key, field in LAYER_METRICS:
        if not _needs(key) & missing_spans:
            metrics[name] = total.get(key, zero)[field]
    metrics["cli.import_s"] = statistics.median(imports["cltlab.cli"])
    metrics["cli.import.scipy_stats_s"] = statistics.median(imports["scipy.stats"])
    psb = total.get("processes.partial_sums_batch", zero)
    if "processes.partial_sums_batch" not in missing_spans:
        metrics["processes.replicate_steps"] = counters["steps"]
        if counters["steps"]:
            metrics["processes.ns_per_replicate_step"] = psb["incl_s"] / counters["steps"] * 1e9
    boot = total.get("experiments.bootstrap", zero)
    if boot["calls"] and "experiments.bootstrap" not in missing_spans:
        metrics["experiments.bootstrap_s_per_point"] = boot["incl_s"] / boot["calls"]
    metrics["io.bytes_written"] = counters["bytes"]
    metrics["trace.wall_s"] = seq["wall_s"]
    return {"metrics": metrics, "missing": sorted(missing), "spans": total, "counters": counters}


# ---------------------------------------------------------------------------
# the run


def machine_record() -> dict:
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "python": platform.python_version(), **versions,
            "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ}}


def measure(workload: str, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    run_dir = WORK / "runs" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_record(), "loadavg_before": os.getloadavg()}
    setup = [run_command(cli_argv(["verify", "--list"]), run_dir / f"setup{i}", deadline)
             for i in range(SETUP_REPEATS if not trace else 1)]
    record["setup"] = setup
    sequences, ops, first = [], [], None
    start = time.perf_counter()
    while True:
        k = len(sequences)
        traced = trace and k > 0
        seq_dir = run_dir / f"seq{k}"
        seq = run_sequence(workload, seed, seq_dir, traced, deadline)
        seq["traced"] = traced
        seq["digests"] = digests(workload, seq_dir)
        seq["ops"] = check_sequence(workload, seq, observe(workload, seq_dir), golden, seed, first)
        if traced:
            seq["layers"] = layer_metrics(workload, seq_dir, seq)
        first = first if first is not None else seq["digests"]
        ops += seq["ops"]
        sequences.append(seq)
        shutil.rmtree(seq_dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        walls = [s["wall_s"] for s in sequences if s["traced"] == traced]
        if elapsed + statistics.median(walls) > seconds and (not trace or k > 0):
            break
    shutil.rmtree(run_dir, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()
    record["sequences"] = sequences
    gold = golden["seeds"].get(str(seed), {}).get(workload)
    record["digests_changed"] = None if gold is None else sum(
        first.get(k) != v for k, v in gold["digests"].items()) + len(set(first) - set(gold["digests"]))
    untraced = [s for s in sequences if not s["traced"]]
    if trace:
        traced_seqs = [s for s in sequences if s["traced"]]
        layers = [s["layers"]["metrics"] for s in traced_seqs]
        overhead = statistics.median([layer["trace.wall_s"] for layer in layers]) - \
            statistics.median([s["wall_s"] for s in untraced])
        layers = [dict(layer, **{"trace.overhead_s": overhead}) for layer in layers]
        # every per-layer metric is reported; one no sequence measured (its
        # hook is missing, or a ratio over zero calls) reads 0 and is listed
        record["unmeasured"] = [m for m in PER_LAYER_UNITS if not any(m in layer for layer in layers)]
        metrics = {m: (statistics.median([layer[m] for layer in layers if m in layer])
                       if m not in record["unmeasured"] else 0, unit)
                   for m, unit in PER_LAYER_UNITS.items()}
        record["missing"] = sorted({h for s in traced_seqs for h in s["layers"]["missing"]})
    else:
        metrics = {
            "wall_s": (statistics.median([s["wall_s"] for s in untraced]), "s"),
            "cpu_s": (statistics.median([s["cpu_s"] for s in untraced]), "s"),
            "peak_rss_mb": (statistics.median([s["peak_rss_mb"] for s in untraced]), "MB"),
            "setup_s": (statistics.median([r["wall_s"] for r in setup]), "s"),
        }
    setup_wrong = [r["code"] for r in setup if r["code"] != 0]
    if setup_wrong:
        ops.append(("command:verify --list", "wrong", f"exit codes {setup_wrong}"))
    record["samples"] = {"sequences": len(untraced), "traced_sequences": len(sequences) - len(untraced),
                         "setup": len(setup)}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    manifest = json.loads(MANIFEST.read_text())
    record["result"] = {m["name"]: record["metrics"][m["name"]]
                        for m in manifest["per_layer" if trace else "end_to_end"]}
    record["attempted"] = len(ops)
    record["failed"] = sum(status != "ok" for _, status, _ in ops)
    record["correct"] = all(status != "wrong" for _, status, _ in ops)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cltlab benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cltlab" / "cli.py").is_file():
        print(f"error: no cltlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    golden = json.loads((BENCH / "golden.json").read_text())
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=list) + "\n")
    for name, status, note in (op for s in record["sequences"] for op in s["ops"]):
        if status != "ok":
            print(f"{status}: {name}: {note}")
    if record.get("missing"):
        print(f"missing hooks: {', '.join(record['missing'])}")
    if record.get("unmeasured"):
        print(f"not measured, reported as 0: {', '.join(record['unmeasured'])}")
    print(f"record: {path.relative_to(ROOT)}; samples {record['samples']}; "
          f"digests_changed {record['digests_changed']}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["result"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
