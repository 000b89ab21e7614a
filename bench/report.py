"""Run every workload and print its metrics by name, with units and sample counts.

    python3 bench/report.py                # end-to-end metrics of all workloads
    python3 bench/report.py --trace        # every per-layer metric, the tracing
                                           # overhead (trace.overhead_s: traced minus
                                           # untraced wall_s) and the baseline cross-check

Each workload is one `bench/run.py` process; the numbers come from the run
records it writes under .bench-work/records/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run

# ROADMAP baseline rows (2 cores, single runs, read as +-20%). Per-family
# simulation rows were taken at M = 10^4, n <= 16384 and are compared per
# replicate-step.
BASELINE_STEPS = 10**4 * 16384
BASELINE = (
    ("rates-readme", "bootstrap per (n, r) point", "experiments.bootstrap_s_per_point", 1.34, "s"),
    ("rates-readme", "calibration_floor, m = 10^4, r = 1", "calibration_floor", 1.11, "s"),
    ("rates-readme", "import cltlab.cli", "cli.import_s", 1.28, "s"),
    ("rates-readme", "of which scipy.stats", "cli.import.scipy_stats_s", 1.04, "s"),
    ("rates-readme", "doubling map simulation", "ns.doubling_map", 6.0e9 / BASELINE_STEPS, "ns/step"),
    ("simulate-families", "beta = 2.5 map simulation", "ns.beta_map", 80.4e9 / BASELINE_STEPS, "ns/step"),
    ("simulate-families", "Davydov chain simulation", "ns.davydov", 11.9e9 / BASELINE_STEPS, "ns/step"),
    ("simulate-families", "linear geometric(0.5) simulation", "ns.linear", 9.5e9 / BASELINE_STEPS, "ns/step"),
)
BASELINE_BAND = 0.2

# self-time metrics of whole layers (not their per-family or per-caller
# splits), for naming the largest layer
SELF_TIME_METRICS = [name for name, unit, _, field in run.LAYER_METRICS
                     if field == "self_s" and not name.startswith(
                         ("processes.partial_sums_batch.", "metrics.wasserstein_vs_gaussian."))]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    path = run.WORK / "records" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def end_to_end(records: dict) -> None:
    print(f"{'workload':<18} {'metric':<12} {'median':>10} {'unit':<5} samples  raw")
    for workload, rec in records.items():
        n_seq, n_setup = rec["samples"]["sequences"], rec["samples"]["setup"]
        raws = {"wall_s": [s["wall_s"] for s in rec["sequences"]],
                "cpu_s": [s["cpu_s"] for s in rec["sequences"]],
                "peak_rss_mb": [s["peak_rss_mb"] for s in rec["sequences"]],
                "setup_s": [r["wall_s"] for r in rec["setup"]]}
        for name, m in rec["metrics"].items():
            samples = n_setup if name == "setup_s" else n_seq
            raw = ", ".join(_fmt(v) for v in raws[name])
            print(f"{workload:<18} {name:<12} {_fmt(m['value']):>10} {m['unit']:<5} {samples:>7}  [{raw}]")
        frac = rec["failed"] / rec["attempted"]
        print(f"{workload:<18} {'failed_frac':<12} {_fmt(frac):>10} {'1':<5} {rec['attempted']:>7}  "
              f"({rec['failed']} of {rec['attempted']} operations)")
        print(f"{workload:<18} correct = {rec['correct']}, digests_changed = {rec['digests_changed']}, "
              f"load {rec['loadavg_before'][0]:.2f} -> {rec['loadavg_after'][0]:.2f}")


def per_layer(records: dict) -> None:
    names = [name for name, *_ in run.LAYER_METRICS] + [name for name, _ in run.DERIVED_METRICS]
    for workload, rec in records.items():
        traced = [s for s in rec["sequences"] if s["traced"]]
        print(f"\n== {workload}: {len(traced)} traced sequence(s); missing hooks: "
              f"{', '.join(rec['missing']) or 'none'}")
        for name in names:
            m = rec["metrics"][name]
            text = f"{_fmt(m['value'])} {m['unit']}" if name not in rec["unmeasured"] else (
                "missing" if rec["missing"] else "n/a (no calls)")
            print(f"  {name:<48} {text}")
        selfs = {n: rec["metrics"][n]["value"] for n in SELF_TIME_METRICS if n not in rec["unmeasured"]}
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:3]
        print("  largest self times: " + ", ".join(f"{n} {v:.3g} s" for n, v in top))
        spans = traced[0]["layers"]["spans"]
        boot = spans.get("experiments.bootstrap")
        if boot:
            print(f"  experiments.bootstrap inclusive (bootstrap and its distance calls): "
                  f"{boot['incl_s']:.3g} s")


def baseline(records: dict) -> None:
    print(f"\n== baseline cross-check (ROADMAP rows, flagged outside +-{BASELINE_BAND:.0%})")
    for workload, label, key, want, unit in BASELINE:
        rec = records.get(workload)
        if rec is None:
            continue
        seq = [s for s in rec["sequences"] if s["traced"]][0]["layers"]
        if key.startswith("ns."):
            fam = key[3:]
            steps = seq["counters"].get(f"steps.{fam}", 0)
            span = seq["spans"].get(f"processes.partial_sums_batch.{fam}")
            got = span["incl_s"] / steps * 1e9 if steps and span else None
        elif key == "calibration_floor":
            span = seq["spans"].get("experiments.calibration_floor")
            got = span["incl_s"] if span else None
        else:
            got = rec["metrics"][key]["value"] if key not in rec["unmeasured"] else None
        if got is None:
            print(f"  {label:<36} baseline {want:.3g} {unit}, measured: missing")
            continue
        flag = "" if abs(got / want - 1) <= BASELINE_BAND else "  <-- outside band"
        print(f"  {label:<36} baseline {want:.3g} {unit}, measured {got:.3g} {unit} "
              f"({got / want - 1:+.0%}){flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="print the per-layer metrics")
    args = parser.parse_args(argv)
    records = {w: run_workload(w, args.seed, args.seconds, int(args.trace)) for w in run.WORKLOADS}
    if args.trace:
        per_layer(records)
        baseline(records)
    else:
        end_to_end(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
