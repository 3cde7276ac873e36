"""Config files, trajectory CSVs, run manifests, and SVG line charts.

Config files are flat JSON objects with dotted keys:

    {
      "model.mu":    [0.6567, 0.1, ...],   target-domain class mean
      "model.sigma": 0.78,                 noise scale, >= 0
      "model.dim":   10,                   must equal len(model.mu)
      "loss.rule":   "hard" | "conj",
      "loss.family": "square" | "logistic" | "exp",
      "run.mode":    "stochastic" | "population",
      "run.eta":     1.0,                  step size, > 0
      "run.batch":   32,                   mini-batch size (optional, default 32)
      "run.horizon": 500,
      "run.seed":    0,
      "init.w":      [1.0, 0.0, ...]       initial predictor
    }

Trajectory CSVs carry the exact header `t,a,b,r,cos,loss01`, then one comment
block (lines starting with `#`) holding the serialized config and run
metadata, then the data rows.  Floats are written with shortest round-trip
repr; infinities serialize as literal `inf` / `-inf`.  Identical configs
produce byte-identical CSVs.

SVG charts are plain polyline drawings built only from values that are also
in the CSVs, so every chart can be regenerated from its CSV alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import ExperimentConfig, Mode, Trajectory
from .losses import make_loss
from .model import GaussianModel

__all__ = ["ConfigError", "parse_config_file", "RunManifest"]

TRAJECTORY_HEADER = "t,a,b,r,cos,loss01"
PRNG_ID = "numpy-pcg64-seedsequence"


class ConfigError(ValueError):
    """Invalid or incomplete run configuration; message names the field."""


# config_flat's keys, in its order; run.batch is the one optional key
_KEYS = (
    "model.mu", "model.sigma", "model.dim",
    "loss.rule", "loss.family",
    "run.mode", "run.eta", "run.batch", "run.horizon", "run.seed",
    "init.w",
)


def parse_config_file(path: str | Path) -> ExperimentConfig:
    """Parse and validate a flat JSON config into an ExperimentConfig."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a flat JSON object")

    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    missing = [k for k in _KEYS if k not in raw and k != "run.batch"]
    if missing:
        raise ConfigError(f"missing config key(s): {', '.join(missing)}")

    mu = _vector(raw, "model.mu")
    sigma = _number(raw, "model.sigma")
    dim = _integer(raw, "model.dim")
    if dim != mu.size:
        raise ConfigError(f"model.dim: is {dim} but model.mu has length {mu.size}")
    try:
        model = GaussianModel(mu=mu, sigma=sigma)
    except ValueError as exc:
        raise ConfigError(_name_config_field(str(exc))) from None

    try:
        loss = make_loss(str(raw["loss.rule"]), str(raw["loss.family"]))
    except ValueError:
        raise ConfigError(
            f"loss.rule/loss.family: unknown combination "
            f"({raw['loss.rule']!r}, {raw['loss.family']!r})"
        ) from None

    mode_text = str(raw["run.mode"]).lower()
    try:
        mode = Mode(mode_text)
    except ValueError:
        raise ConfigError(f"run.mode: must be 'stochastic' or 'population', got {mode_text!r}") from None

    w_init = _vector(raw, "init.w")
    batch = {"batch_size": _integer(raw, "run.batch")} if "run.batch" in raw else {}

    try:
        return ExperimentConfig(
            model=model,
            loss=loss,
            eta=_number(raw, "run.eta"),
            mode=mode,
            horizon=_integer(raw, "run.horizon"),
            seed=_integer(raw, "run.seed"),
            w_init=w_init,
            **batch,
        )
    except ValueError as exc:
        raise ConfigError(_name_config_field(str(exc))) from None


def _name_config_field(message: str) -> str:
    """message prefixed with the key whose last part starts it ("eta ..." names run.eta)."""
    for key in _KEYS:
        if message.startswith(key.rpartition(".")[2] + " "):
            return f"{key}: {message}"
    return message


def _vector(raw: dict, key: str) -> np.ndarray:
    value = raw[key]
    if (not isinstance(value, list) or not value
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ConfigError(f"{key}: must be a non-empty list of numbers")
    return np.array([_float(key, v) for v in value])


def _number(raw: dict, key: str) -> float:
    value = raw[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{key}: must be a number")
    return _float(key, value)


def _float(key: str, value: int | float) -> float:
    try:
        return float(value)
    except OverflowError:  # a JSON integer past float max
        raise ConfigError(f"{key}: is an integer too large for a float") from None


def _integer(raw: dict, key: str) -> int:
    value = raw[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key}: must be an integer")
    return int(value)


def config_flat(config: ExperimentConfig) -> dict:
    """Canonical flat-key serialization of a config (key order fixed)."""
    return {
        "model.mu": [float(v) for v in config.model.mu],
        "model.sigma": config.model.sigma,
        "model.dim": config.model.d,
        "loss.rule": config.loss.rule.value,
        "loss.family": config.loss.family.value,
        "run.mode": config.mode.value,
        "run.eta": config.eta,
        "run.batch": config.batch_size,
        "run.horizon": config.horizon,
        "run.seed": config.seed,
        "init.w": [float(v) for v in config.w_init],
    }


# the types format_value writes as true/false; neither can be subclassed
_BOOL_TYPES = (bool, np.bool_)


def format_value(value) -> str:
    """A CSV cell: true/false for a bool (NumPy's too), else str, which for a
    float (NumPy's too) is its shortest round-trip repr, inf, -inf or nan."""
    if isinstance(value, _BOOL_TYPES):
        return "true" if value else "false"
    return str(value)


def csv_with_meta_text(header: str, rows, meta: dict) -> str:
    """CSV layout shared by all emitters: header, `#` metadata block, rows
    (any iterable of cell sequences, each as wide as the header).

    The cells are formatted a column at a time: by format_value in a column
    that holds a bool (NumPy's too), else by str, which format_value is for
    every other cell, so each cell's text is format_value's.  A row whose
    cell count is not the header's raises ValueError.
    """
    rows = list(rows)
    width = header.count(",") + 1
    if set(map(len, rows)) - {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise ValueError(f"row {i} has {len(rows[i])} cells, the header has {width}")
    columns = [map(str if set(map(type, column)).isdisjoint(_BOOL_TYPES) else format_value, column)
               for column in zip(*rows)]
    lines = [header]
    for key, value in meta.items():
        lines.append(f"# {key} = {json.dumps(value)}")
    lines.append(f"# prng = {json.dumps(PRNG_ID)}")
    lines.append(f"# code_version = {json.dumps(__version__)}")
    lines += map(",".join, zip(*columns))
    return "\n".join(lines) + "\n"


def trajectory_csv_text(run: Trajectory, meta: dict) -> str:
    """Render a trajectory as CSV: header, `#` metadata block with overflow
    (whether the run stopped), then one row per point, read from the columns."""
    meta = {**meta, "overflow": bool(run.stop)}
    columns = (range(1, len(run) + 1), *(column.tolist() for column in run.columns))
    return csv_with_meta_text(TRAJECTORY_HEADER, zip(*columns), meta)


def read_csv_with_meta(path: str | Path) -> tuple[list[str], list[list], dict]:
    """Read back a CSV with a leading header and one `#` metadata block.

    Returns (column names, rows, metadata dict); numeric cells come back as
    floats, anything else as the raw string.  A data line is parsed as floats
    in one pass and cell by cell (_cell) only when one of its cells is not a
    number.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    columns = lines[0].split(",")
    meta: dict = {}
    rows: list[list] = []
    for line in lines[1:]:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = json.loads(value.strip())
        elif line:
            cells = line.split(",")
            try:  # an all-number line, the common one, in one call
                rows.append(list(map(float, cells)))
            except ValueError:
                rows.append(list(map(_cell, cells)))
    return columns, rows, meta


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


@dataclass(frozen=True)
class RunManifest:
    """Provenance record for one run: config, code version, seed, outputs."""

    config: dict
    code_version: str
    root_seed: int
    prng: str
    created_utc: str
    outputs: tuple[str, ...]
    notes: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def write_manifest(path: str | Path, config: ExperimentConfig,
                   outputs: list[str | Path], notes: dict | None = None) -> RunManifest:
    """Write a run's manifest to path, each output relative to path's directory."""
    path = Path(path)
    manifest = RunManifest(
        config=config_flat(config),
        code_version=__version__,
        root_seed=config.seed,
        prng=PRNG_ID,
        created_utc=datetime.now(timezone.utc).isoformat(),
        outputs=tuple(os.path.relpath(p, path.parent) for p in outputs),
        notes=dict(notes or {}),
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(manifest.to_json(), encoding="utf-8")
    return manifest


# --- SVG ------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#2ca02c", "#d62728", "#ff7f0e", "#9467bd", "#8c564b")
_CANVAS_W, _CANVAS_H = 720, 460
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 40, 56


def svg_line_chart(series: list[tuple[str, list[float], list[float]]],
                   title: str, xlabel: str, ylabel: str,
                   hlines: list[tuple[str, float]] | None = None) -> str:
    """Axis-labelled polyline chart; no plotting dependency.

    series is a list of (label, xs, ys).  hlines draws dashed horizontal
    reference lines at finite heights.  Non-finite points are dropped from the
    polylines.  Bounds and pixel coordinates are computed on arrays; a flat x
    or y range (one point, or a constant series) is widened to lo + 1.0 before
    the y range is padded by 5 %.  Every <text> element is written by _text and
    every <line> element by _line; each caller formats its own coordinates.
    """
    hlines = hlines or []
    for label, y in hlines:
        if not math.isfinite(y):
            raise ValueError(f"hline {label!r} is at {y}, not a finite height")
    points = []  # (xs, ys) of each series' finite points, as float arrays
    for _, xs, ys in series:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        finite = np.isfinite(xs) & np.isfinite(ys)
        points.append((xs[finite], ys[finite]))
    xs_all = np.concatenate([*(xs for xs, _ in points), []])
    ys_all = np.concatenate([*(ys for _, ys in points), [y for _, y in hlines]])
    if not xs_all.size:
        raise ValueError("no finite data to plot")

    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _CANVAS_W - _MARGIN_L - _MARGIN_R
    plot_h = _CANVAS_H - _MARGIN_T - _MARGIN_B
    bottom = _MARGIN_T + plot_h

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS_W}" '
        f'height="{_CANVAS_H}" viewBox="0 0 {_CANVAS_W} {_CANVAS_H}">',
        f'<rect width="{_CANVAS_W}" height="{_CANVAS_H}" fill="white"/>',
        _text(f"{_CANVAS_W / 2:.1f}", 24, 15, title, "middle"),
        # axes box and ticks
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        x, y = f"{px(fx):.1f}", f"{py(fy):.1f}"
        parts.append(_line(x, bottom, x, bottom + 5, "#333")
                     + _text(x, bottom + 20, 11, f"{fx:.4g}", "middle"))
        parts.append(_line(_MARGIN_L - 5, y, _MARGIN_L, y, "#333")
                     + _text(_MARGIN_L - 8, f"{py(fy) + 4:.1f}", 11, f"{fy:.4g}", "end"))
    mid_y = f"{_MARGIN_T + plot_h / 2:.1f}"
    parts.append(_text(f"{_MARGIN_L + plot_w / 2:.1f}", _CANVAS_H - 14, 13, xlabel, "middle"))
    parts.append(_text(18, mid_y, 13, ylabel, "middle", f' transform="rotate(-90 18 {mid_y})"'))

    for label, y in hlines:
        hy = f"{py(y):.1f}"
        parts.append(_line(_MARGIN_L, hy, _MARGIN_L + plot_w, hy, "#777",
                           ' stroke-dasharray="6,4"')
                     + _text(_MARGIN_L + plot_w - 4, f"{py(y) - 5:.1f}", 11, label, "end",
                             ' fill="#555"'))

    for k, ((label, _, _), (xs, ys)) in enumerate(zip(series, points)):
        color = _PALETTE[k % len(_PALETTE)]
        coords = " ".join(map("%.2f,%.2f".__mod__, zip(px(xs).tolist(), py(ys).tolist())))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        ly = _MARGIN_T + 16 + 16 * k
        parts.append(_line(_MARGIN_L + 10, ly - 4, _MARGIN_L + 34, ly - 4, color,
                           ' stroke-width="2"')
                     + _text(_MARGIN_L + 40, ly, 12, label))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _text(x, y, size, body, anchor: str = "", extra: str = "") -> str:
    """One <text> element: body escaped, text-anchor only when anchor is given,
    extra attributes after the font size."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{_esc(body)}</text>')


def _line(x1, y1, x2, y2, stroke: str, extra: str = "") -> str:
    """One <line> element, extra attributes after the stroke."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}"{extra}/>'


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
