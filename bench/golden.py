"""Regenerate bench/golden.json from the current sources.

    python3 bench/golden.py --seeds 0-10

For every seed it runs each workload's command sequence once, untraced, and
stores the sha256 of every artifact plus the seed-dependent numbers the
benchmark compares (rates values and fits, trajectory moments). The
seed-independent reference (rates floor and sigma columns, the conditions
table, the exact sqrt(Var S_n / n) of each simulated family, the verify
check list) must agree across all seeds. A change that moves numbers on
purpose regenerates this file in its own step and says so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys

import run


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _sigma_n(config: str, n_grid: list) -> list:
    """sqrt(Var S_n / n) from cltlab's exact long-run variance of the family."""
    sys.path.insert(0, str(run.SRC))
    from cltlab.config import build_process, load_config
    from cltlab.processes import long_run_variance

    lrv = long_run_variance(build_process(load_config(str(run.BENCH / "configs" / config))))
    return [math.sqrt(lrv["sigma_n2"](n)) for n in n_grid]


def reference_of(workload: str, obs: dict) -> dict:
    ref = {}
    for step in run.WORKLOADS[workload]["steps"]:
        got, cmd = obs[step["name"]], step["command"]
        if cmd == "rates":
            ref[step["name"]] = {col: got[col] for col in ("n", "r", "floor", "sigma")}
        elif cmd == "simulate":
            cfg = json.loads((run.BENCH / "configs" / step["config"]).read_text())
            ref[step["name"]] = {"n": got["n"], "replicates": cfg["simulate"]["replicates"],
                                 "sigma_n": _sigma_n(step["config"], got["n"])}
        elif cmd == "conditions":
            ref[step["name"]] = {"rows": got["rows"]}
        elif cmd == "verify":
            ref[step["name"]] = {"checks": sorted(got["status"])}
    return ref


def golden_of(workload: str, obs: dict, digests: dict) -> dict:
    gold = {"digests": digests}
    for step in run.WORKLOADS[workload]["steps"]:
        got, cmd = obs[step["name"]], step["command"]
        if cmd == "rates":
            gold[step["name"]] = {k: got[k] for k in ("value", "mc_stderr", "kolmogorov", "fits")}
        elif cmd == "simulate":
            gold[step["name"]] = {k: got[k] for k in ("mean", "std")}
    return gold


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-10", help="inclusive range, e.g. 0-10")
    args = parser.parse_args(argv)
    golden = {"reference": {}, "seeds": {}}
    for seed in _seeds(args.seeds):
        for workload in run.WORKLOADS:
            seq_dir = run.WORK / "golden" / f"{workload}-seed{seed}"
            shutil.rmtree(seq_dir, ignore_errors=True)
            seq = run.run_sequence(workload, seed, seq_dir, traced=False)
            codes = {k: v["code"] for k, v in seq["commands"].items()}
            obs = run.observe(workload, seq_dir)
            errors = {k: v["error"] for k, v in obs.items() if "error" in v}
            if errors or any(codes[k] not in (0, 1) for k in codes):
                raise SystemExit(f"{workload} seed {seed}: exit codes {codes}, {errors}")
            ref = reference_of(workload, obs)
            known = golden["reference"].setdefault(workload, ref)
            if known != ref:
                raise SystemExit(f"{workload}: seed-independent outputs differ at seed {seed}")
            golden["seeds"].setdefault(str(seed), {})[workload] = golden_of(
                workload, obs, run.digests(workload, seq_dir))
            shutil.rmtree(seq_dir, ignore_errors=True)
            print(f"seed {seed} {workload}: {seq['wall_s']:.1f} s, exit codes {codes}", flush=True)
    (run.BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
