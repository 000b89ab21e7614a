"""Span tracing of one cltlab CLI command, installed from outside the package.

Run as a launcher, in a fresh interpreter per command:

    PYTHONPATH=src python3 -X importtime bench/tracer.py --spans spans.json -- rates --config ...

It imports `cltlab.cli`, replaces the caller-side names listed in HOOKS with
span-recording wrappers, calls `cltlab.cli.main`, restores the names and
writes the spans as JSON when the command ends. Nothing under `src/` changes.
A hook whose name has disappeared is listed under "missing" instead of
failing the run.

Each span is [name, start, end, parent, tag]: times are perf_counter seconds,
parent is the index of the enclosing span (-1 for the root) and tag is a
small dict of annotations (family, replicate-steps, bytes written).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import threading
import time

# (module, caller-side attribute, span name). The attribute is the name the
# calling module looks up at call time, so wrapping it times the call site.
HOOKS = (
    ("cltlab.cli", "load_config", "config.load"),
    ("cltlab.cli", "build_plan", "config.load"),
    ("cltlab.cli", "build_process", "config.load"),
    ("cltlab.cli", "partial_sums_batch", "processes.partial_sums_batch"),
    ("cltlab.experiments", "partial_sums_batch", "processes.partial_sums_batch"),
    ("cltlab.experiments", "long_run_variance", "processes.long_run_variance"),
    ("cltlab.cli", "transfer_duality_residual", "processes.transfer_duality_residual"),
    ("cltlab.rng", "stream", "rng.stream"),
    ("cltlab.experiments", "wasserstein_vs_gaussian", "metrics.wasserstein_vs_gaussian"),
    ("cltlab.experiments", "kolmogorov", "metrics.kolmogorov"),
    ("cltlab.cli", "smoothing_lemma_check", "metrics.smoothing_lemma_check"),
    ("cltlab.dependence", "envelope_norm_discrete", "metrics.envelope_norm_discrete"),
    ("cltlab.experiments", "_bootstrap_stderr", "experiments.bootstrap"),
    ("cltlab.cli", "calibration_floor", "experiments.calibration_floor"),
    ("cltlab.experiments", "calibration_floor", "experiments.calibration_floor"),
    ("cltlab.cli", "run_experiment", "experiments.run_experiment"),
    ("cltlab.cli", "check_covariance_inequality", "dependence.check_covariance_inequality"),
    ("cltlab.cli", "series_C1_C2", "dependence.conditions"),
    ("cltlab.cli", "series_projective", "dependence.conditions"),
    ("cltlab.cli", "series_condalpha1", "dependence.conditions"),
    ("cltlab.cli", "series_condphi", "dependence.conditions"),
    ("cltlab.dependence", "CoboundaryDecomposition.identity_check",
     "dependence.coboundary_identity_check"),
    ("cltlab.cli", "envelope_contraction_check", "dependence.envelope_contraction_check"),
    ("cltlab.cli", "an_bn", "dependence.an_bn"),
    ("cltlab.cli", "write_csv", "io.write_csv"),
    ("cltlab.cli", "save_batch", "io.save_batch"),
    ("cltlab.cli", "write_json", "io.write_json"),
    ("cltlab.cli", "svg_rate_plot", "io.svg_rate_plot"),
)

ROOT_SPAN = "cli.main"


def _family_tag(args, kwargs, result) -> dict:
    """Family label and replicate-steps of a partial_sums_batch call."""
    spec, n_grid, m = args[0], args[1], args[2]
    fam = spec.family
    name = type(fam).__name__
    if name == "ExpandingMap" and fam.kind == "beta":
        label = "doubling_map" if fam.beta == 2.0 else "beta_map"
    else:
        label = {"DavydovChain": "davydov", "LinearProcess": "linear"}.get(name, name.lower())
    return {"family": label, "steps": int(m) * int(max(n_grid))}


def _bytes_tag(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


TAGGERS = {"processes.partial_sums_batch": _family_tag, "io.write_csv": _bytes_tag,
           "io.save_batch": _bytes_tag, "io.write_json": _bytes_tag,
           "io.svg_rate_plot": _bytes_tag}


class Recorder:
    """Spans kept in memory; each thread nests its own spans."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, None])
        stack.append(index)
        return index

    def close(self, index: int, tag=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = tag
        self._stack().pop()

    def wrap(self, fn, name: str):
        tagger = TAGGERS.get(name)

        def wrapper(*args, **kwargs):
            index = self.open(name)
            tag = None
            try:
                result = fn(*args, **kwargs)
                if tagger is not None:
                    tag = tagger(args, kwargs, result)
                return result
            finally:
                self.close(index, tag)

        wrapper.__wrapped__ = fn
        return wrapper


def _resolve(module: str, attr: str):
    """(owner object, attribute name) of a dotted caller-side name, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, leaf) if hasattr(owner, leaf) else None


def install(recorder: Recorder, hooks=HOOKS):
    """Wrap every hook that resolves. Returns (restore list, missing names)."""
    restore, missing = [], []
    for module, attr, name in hooks:
        found = _resolve(module, attr)
        if found is None:
            missing.append(f"{module}.{attr}")
            continue
        owner, leaf = found
        original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        restore.append((owner, leaf, original))
        setattr(owner, leaf, recorder.wrap(getattr(owner, leaf), name))
    return restore, missing


def uninstall(restore) -> None:
    for owner, leaf, original in reversed(restore):
        setattr(owner, leaf, original)


def self_times(spans) -> list:
    """Self time of each span: its duration minus the time its direct
    children cover. Children of one thread never overlap each other."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans as JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for cltlab, after --")
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args
    import cltlab.cli

    recorder = Recorder()
    restore, missing = install(recorder)
    root = recorder.open(ROOT_SPAN)
    try:
        code = cltlab.cli.main(cli_args)
    finally:
        recorder.close(root)
        uninstall(restore)
        with open(opts.spans, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "missing": missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
