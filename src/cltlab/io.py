"""Run artifacts: manifests, deterministic CSV/JSON writers, and
self-contained SVG rate plots."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .config import canonical_json

SCHEMA_VERSION = 1


class IOError_(RuntimeError):
    pass


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every command's outputs."""

    config_digest: str
    config: dict
    version: str
    seed: int
    started: str
    finished: str
    tolerances: dict
    outputs: tuple

    def check(self, out_dir: str) -> None:
        if config_digest(self.config) != self.config_digest:
            raise IOError_("manifest digest does not match its stored config")
        for name in self.outputs:
            if not os.path.exists(os.path.join(out_dir, name)):
                raise IOError_(f"manifest references missing output file {name!r}")


def write_manifest(out_dir: str, manifest: RunManifest) -> None:
    manifest.check(out_dir)
    write_json(os.path.join(out_dir, "manifest.json"), asdict(manifest))


def read_manifest(out_dir: str) -> RunManifest:
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.pop("schema_version", None)
    payload["outputs"] = tuple(payload["outputs"])
    return RunManifest(**payload)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: str, header, rows) -> None:
    """Fixed column order and 17-significant-digit float text (".17g", so
    0.1 is written 0.10000000000000001), so a rerun with the same seed
    reproduces the file byte for byte.  A row is a tuple of cells, or a str
    of one or more lines the caller already formatted the same way. Each
    row is written as rows yields it, so a generator of chunks never has
    the whole file in memory."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(row if isinstance(row, str) else ",".join(map(_fmt, row)))
            fh.write("\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, **payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# SVG rate plot


_PALETTE = ("#1b6ca8", "#c0392b", "#27804f", "#8e44ad", "#b07d12")


def _ticks(lo: float, hi: float):
    lo_e, hi_e = int(np.floor(np.log10(lo))), int(np.ceil(np.log10(hi)))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def svg_rate_plot(path: str, curves: dict, guides: dict, title: str) -> None:
    """Log-log decay plot with dashed theoretical-slope guides; pure SVG text
    with no external references, so any viewer renders it as-is.

    curves: label -> (n array, value array); guides: label -> (n array,
    value array) drawn dashed.
    """
    width, height, margin = 640, 440, 60
    xs = np.concatenate([np.asarray(c[0], dtype=float) for c in curves.values()])
    ys = np.concatenate([np.asarray(c[1], dtype=float) for c in list(curves.values()) + list(guides.values())])
    ys = ys[ys > 0]
    if ys.size == 0 or np.any(xs <= 0):
        raise IOError_("log-log plot needs positive data")
    x_lo, x_hi = xs.min(), xs.max()
    y_lo, y_hi = ys.min(), ys.max()
    if x_hi == x_lo:
        x_hi = x_lo * 2
    if y_hi == y_lo:
        y_hi = y_lo * 2

    def px(x):
        return margin + (np.log(x) - np.log(x_lo)) / (np.log(x_hi) - np.log(x_lo)) * (width - 2 * margin)

    def py(y):
        return height - margin - (np.log(y) - np.log(y_lo)) / (np.log(y_hi) - np.log(y_lo)) * (height - 2 * margin)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="13">{title}</text>',
           f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
           f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>']
    for t in _ticks(x_lo, x_hi):
        if x_lo <= t <= x_hi:
            x = px(t)
            out.append(f'<line x1="{x:.1f}" y1="{height - margin}" x2="{x:.1f}" y2="{height - margin + 5}" stroke="black"/>')
            out.append(f'<text x="{x:.1f}" y="{height - margin + 18}" text-anchor="middle">1e{int(np.log10(t))}</text>')
    for t in _ticks(y_lo, y_hi):
        if y_lo <= t <= y_hi:
            y = py(t)
            out.append(f'<line x1="{margin - 5}" y1="{y:.1f}" x2="{margin}" y2="{y:.1f}" stroke="black"/>')
            out.append(f'<text x="{margin - 8}" y="{y + 4:.1f}" text-anchor="end">1e{int(np.log10(t))}</text>')
    out.append(f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle">n</text>')
    # the curves, solid with a dot per point, then the guides, dashed; one legend line each
    lines = [(label, xy, False) for label, xy in sorted(curves.items())]
    lines += [(label, xy, True) for label, xy in sorted(guides.items())]
    for i, (label, (lx, ly), guide) in enumerate(lines):
        color = _PALETTE[i % len(_PALETTE)]
        lx, ly = np.asarray(lx, dtype=float), np.asarray(ly, dtype=float)
        kept = [(px(a), py(b)) for a, b in zip(lx[ly > 0], ly[ly > 0])]
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in kept)
        stroke = 'stroke-width="1" stroke-dasharray="5,4"' if guide else 'stroke-width="1.5"'
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" {stroke}/>')
        if not guide:
            out += [f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2.5" fill="{color}"/>' for a, b in kept]
        out.append(f'<text x="{width - margin - 150}" y="{margin + 14 * i:.1f}" fill="{color}">'
                   f'{label}{" (guide)" if guide else ""}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
