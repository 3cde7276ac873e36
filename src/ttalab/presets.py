"""Benchmark construction and figure presets.

The benchmark target domain is built so that the source predictor w = e_1
starts from a known operating point: the target mean has first coordinate
0.6567, unit norm, and noise scale sigma = 0.6567 / 0.8416, which places the
initial expected 0-1 loss at Phi(0.8416) = 0.2 and the best achievable error
at Phi(0.8416 / 0.6567) = 0.1.  The remaining mean coordinates are random, so
nothing downstream may assume the mean is axis-aligned.

Each figure is one entry of the table _FIGURES = {fig_id: (emit, render)}:
emit(fig_id, out, **inputs) builds its configs, runs them, writes its CSVs and
returns (csv_paths, summary); render(fig_id, out) returns the SVG text built
from those CSVs alone, never from values held only in memory.  A figure's
inputs are emit's parameters among seed, d, batch and horizon, and
reproduce_figure rejects any other one given a non-default value.  The entries:

    fig1a / fig1b   square-family losses on the noiseless +-mu stream (one
                    sample per step), eta = 1 and eta = 100, plus a frozen
                    no-adaptation baseline, scored by the noisy domain's 0-1 loss
    fig2            the four tail-bounded losses psi(u) on a margin grid
    fig3            their pointwise tail exponents L(z)
    fig4-exp /      noisy mini-batch adaptation, hard vs conjugate labels,
    fig4-logistic   step size searched over ETA_GRID, _FIG4_SEED_COUNT
                    repeat seeds, mean curves against the best-error line;
                    both CSVs carry the base config in their `#` block
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import tail_rate_curve
from .dynamics import ExperimentConfig, Mode, stochastic_sweep, trajectory
from .harness import step_size_sweep
from .losses import make_loss, parse_loss_id
from .model import GaussianModel, check_count, gauss_upper_tail, split_ab
from .serialize import (
    config_flat,
    csv_with_meta_text,
    read_csv_with_meta,
    svg_line_chart,
    trajectory_csv_text,
)

__all__ = [
    "ETA_GRID",
    "FIGURE_IDS",
    "FigureResult",
    "build_benchmark_domains",
    "reproduce_figure",
    "render_figure_svg",
]

# Step-size search grid for the noisy benchmark: 11 values spanning 1e-3..1e2.
ETA_GRID = (1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1e0, 5e0, 1e1, 5e1, 1e2)

# First coordinate of the target mean and the normal quantile with 20% upper
# tail; together they pin the 0.2 initial / 0.1 best error operating point.
_TARGET_MEAN_FIRST = 0.6567
_Z_TWENTY_PCT = 0.8416

_FIG4_SEED_COUNT = 10


def build_benchmark_domains(d: int, seed: int = 0):
    """Source/target pair for the benchmark figures.

    Returns (mu_source, mu_target, sigma_target, w_init) with mu_source = e_1
    = w_init, mu_target[0] = 0.6567, the remaining coordinates standard
    normal rescaled so that ||mu_target|| = 1 (the first coordinate is
    preserved), and sigma_target = 0.6567 / 0.8416.
    """
    d = check_count("d", d, 2)
    seed = check_count("seed", seed, 0)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB)))
    mu_source = np.zeros(d)
    mu_source[0] = 1.0
    tail = rng.standard_normal(d - 1)
    tail *= math.sqrt(1.0 - _TARGET_MEAN_FIRST**2) / float(np.linalg.norm(tail))
    mu_target = np.concatenate(([_TARGET_MEAN_FIRST], tail))
    sigma_target = _TARGET_MEAN_FIRST / _Z_TWENTY_PCT
    w_init = mu_source.copy()
    return mu_source, mu_target, sigma_target, w_init


def best_achievable_error(model: GaussianModel) -> float:
    """Minimum expected 0-1 loss over all linear predictors."""
    return gauss_upper_tail(model.mu_norm / model.sigma) if model.sigma > 0 else 0.0


@dataclass(frozen=True)
class FigureResult:
    id: str
    csv_paths: tuple
    svg_path: Path
    summary: dict


def reproduce_figure(fig_id: str, seed: int = 0, d: int = 10, batch: int = 32,
                     horizon: int | None = None,
                     out_dir: str | Path = "figures") -> FigureResult:
    """Run one figure preset and write its CSV(s) and SVG to out_dir.

    d, batch and horizon keep their defaults unless the figure reads them;
    horizon=None is the figure's own default horizon.  Every figure checks
    seed, read or not, and each input it reads, by its emitter's rule (d >= 2,
    batch and horizon >= 1), before out_dir is created."""
    emit, _ = _figure(fig_id)
    reads = inspect.signature(emit).parameters
    defaults = inspect.signature(reproduce_figure).parameters
    lowest = {"seed": 0, "d": 2, "batch": 1, "horizon": 1}
    given = {"seed": seed, "d": d, "batch": batch, "horizon": horizon}
    for name, value in given.items():
        if name == "seed" or (name in reads and value is not None):
            given[name] = check_count(name, value, lowest[name])
        elif value != defaults[name].default:
            raise ValueError(f"{name} = {value!r} is not an input of {fig_id}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_paths, summary = emit(fig_id, out, **{name: value for name, value in given.items()
                                              if name in reads and value is not None})
    svg_path = render_figure_svg(fig_id, out)
    return FigureResult(id=fig_id, csv_paths=tuple(csv_paths), svg_path=svg_path,
                        summary=summary)


def render_figure_svg(fig_id: str, out_dir: str | Path) -> Path:
    """Build the figure's SVG from its CSV file(s) alone."""
    _, render = _figure(fig_id)
    out = Path(out_dir)
    svg_path = out / f"{fig_id}.svg"
    svg_path.write_text(render(fig_id, out), encoding="utf-8")
    return svg_path


def _figure(fig_id: str):
    try:
        return _FIGURES[fig_id]
    except KeyError:
        raise ValueError(f"unknown figure id {fig_id!r}; choose from {FIGURE_IDS}") from None


# --- figure emitters: build the configs, run them, write the CSVs ----------------


def _benchmark_configs(family: str, eta: float, seed: int, d: int, batch: int,
                       horizon: int) -> list[ExperimentConfig]:
    """[hard, conj]: the hard- and conjugate-label runs of one loss family on
    the benchmark target domain."""
    _, mu_t, sigma_t, w_init = build_benchmark_domains(d, seed)
    model = GaussianModel(mu=mu_t, sigma=sigma_t)
    return [ExperimentConfig(model=model, loss=make_loss(rule, family), eta=eta,
                             mode=Mode.STOCHASTIC, horizon=horizon, seed=seed,
                             w_init=w_init, batch_size=batch)
            for rule in ("hard", "conj")]


def _emit_fig1(fig_id, out, *, seed, d, horizon=200, eta):
    configs = _benchmark_configs("square", eta, seed, d, 1, horizon)
    first = configs[0]
    csv_paths = []
    summary: dict = {"best_error": best_achievable_error(first.model)}
    # both rules step on the noiseless domain, as two lone runs would; a step
    # never reads a sample's sign (psi is even), so they are the alternating
    # +-mu stream's iterates, bit for bit, the stream the CSVs name
    noiseless = replace(first, model=GaussianModel(mu=first.model.mu, sigma=0.0))
    ab, stopped = stochastic_sweep(noiseless, [config.loss for config in configs],
                                   [first.eta], [first.seed])
    for r, config in enumerate(configs):
        name = config.loss.name
        run = trajectory(ab[:, r, 0, 0], config.model, stop=int(stopped[r, 0, 0]))
        path = out / f"{fig_id}_{name.replace('+', '_')}.csv"
        meta = {**config_flat(config), "stream": "alternating-pm-mu"}
        path.write_text(trajectory_csv_text(run, meta), encoding="utf-8")
        csv_paths.append(path)
        summary[name] = {"final_loss01": float(run.loss01[-1]), "overflow": bool(run.stop)}

    baseline = trajectory([split_ab(first.w_init, first.model)] * (first.horizon + 1),
                          first.model)
    base_path = out / f"{fig_id}_no_adaptation.csv"
    meta = {**config_flat(first), "stream": "alternating-pm-mu"}
    meta.pop("loss.rule")
    meta.pop("loss.family")
    meta["run.mode"] = "none"
    base_path.write_text(trajectory_csv_text(baseline, meta), encoding="utf-8")
    csv_paths.append(base_path)
    summary["no-adaptation"] = {"final_loss01": float(baseline.loss01[-1])}
    return csv_paths, summary


_FIG2_LOSSES = ("hard+exp", "conj+exp", "hard+logistic", "conj+logistic")


def _emit_loss_columns(fig_id, out, *, x, grid, column, content):
    """One column per _FIG2_LOSSES loss, column(loss, grid), beside the grid."""
    header = f"{x}," + ",".join(name.replace("+", "_") for name in _FIG2_LOSSES)
    rows = zip(grid.tolist(),
               *(column(parse_loss_id(name), grid).tolist() for name in _FIG2_LOSSES))
    path = out / f"{fig_id}.csv"
    path.write_text(csv_with_meta_text(header, rows, {"content": content}), encoding="utf-8")
    return [path], {"losses": list(_FIG2_LOSSES)}


def _tail_rate(loss, z):
    curve = tail_rate_curve(loss, z)
    if curve.skipped.size:
        raise RuntimeError(f"unexpected skipped tail points for {loss.name}")
    return curve.rate


def _emit_fig4(fig_id, out, *, seed, d, batch, horizon=500, family):
    configs = _benchmark_configs(family, 1.0, seed, d, batch, horizon)
    base = configs[0]
    # the base config minus the two fields the rows vary
    meta = config_flat(base)
    del meta["loss.rule"], meta["run.eta"]
    grid_rows = []
    curves = []
    summary: dict = {"best_error": best_achievable_error(base.model)}
    sweeps = step_size_sweep(base, [config.loss for config in configs], ETA_GRID,
                             _FIG4_SEED_COUNT)
    for config, (best, rows) in zip(configs, sweeps):
        grid_rows += [[config.loss.rule.value, p.eta, p.mean_final_loss01,
                       p.std_final_loss01, p.n_overflow] for p in rows]
        curves.append(best.curve)
        summary[config.loss.name] = {"best_eta": best.eta,
                                     "mean_final_loss01": best.mean_final_loss01,
                                     "std_final_loss01": best.std_final_loss01}

    grid_path = out / f"{fig_id}_grid.csv"
    grid_path.write_text(
        csv_with_meta_text("rule,eta,mean_final_loss01,std_final_loss01,n_overflow",
                           grid_rows,
                           {**meta, "seeds": _FIG4_SEED_COUNT, "figure": fig_id}),
        encoding="utf-8")

    names = [config.loss.name for config in configs]
    curve_rows = zip(range(1, base.horizon + 2), *curves)
    header = "t," + ",".join(f"{n.replace('+', '_')}_mean_loss01" for n in names)
    curves_path = out / f"{fig_id}_curves.csv"
    curves_path.write_text(
        csv_with_meta_text(header, curve_rows,
                           {**meta, "figure": fig_id, "best_error": summary["best_error"],
                            "best_eta": {n: summary[n]["best_eta"] for n in names}}),
        encoding="utf-8")
    return [grid_path, curves_path], summary


# --- SVG renderers: the SVG text, strictly from the CSVs --------------------------


def _render_fig1(fig_id, out):
    series = []
    for name in ("hard+square", "conj+square", "no-adaptation"):  # fig1's summary keys
        stem = name.replace("+", "_").replace("-", "_")
        cols, rows, _ = read_csv_with_meta(out / f"{fig_id}_{stem}.csv")
        columns = dict(zip(cols, zip(*rows)))
        series.append((name, columns["t"], columns["loss01"]))
    return svg_line_chart(series, title=f"{fig_id}: expected 0-1 loss vs iteration",
                          xlabel="iteration t", ylabel="expected 0-1 loss")


def _render_columns(fig_id, out, *, stem="", title, xlabel, ylabel):
    """The first column of <fig_id><stem>.csv against each other one, plus the
    dashed best-achievable line when its `#` block has best_error."""
    cols, rows, meta = read_csv_with_meta(out / f"{fig_id}{stem}.csv")
    xs, *columns = zip(*rows)
    series = [(name.removesuffix("_mean_loss01").replace("_", "+"), xs, ys)
              for name, ys in zip(cols[1:], columns)]
    hlines = [("best achievable", float(meta["best_error"]))] if "best_error" in meta else []
    return svg_line_chart(series, title=title.format(fig_id=fig_id), xlabel=xlabel,
                          ylabel=ylabel, hlines=hlines)


_render_fig4 = partial(_render_columns, stem="_curves",
                       title="{fig_id}: mean 0-1 loss at best step size",
                       xlabel="iteration t", ylabel="expected 0-1 loss")

# figure id -> (emit, render); the one place a figure id is given its meaning
_FIGURES = {
    "fig1a": (partial(_emit_fig1, eta=1.0), _render_fig1),
    "fig1b": (partial(_emit_fig1, eta=100.0), _render_fig1),
    "fig2": (partial(_emit_loss_columns, x="u", grid=np.round(np.arange(-600, 601) * 0.01, 2),
                     column=lambda loss, u: loss.psi(u), content="loss values psi(u)"),
             partial(_render_columns, title="self-training losses psi(u)",
                     xlabel="margin u", ylabel="psi(u)")),
    "fig3": (partial(_emit_loss_columns, x="z", grid=np.round(np.arange(1, 201) * 0.05, 2),
                     column=_tail_rate, content="tail exponent -log(-psi'(z))/z"),
             partial(_render_columns, title="tail exponent of -psi'",
                     xlabel="z", ylabel="-log(-psi'(z)) / z")),
    "fig4-exp": (partial(_emit_fig4, family="exp"), _render_fig4),
    "fig4-logistic": (partial(_emit_fig4, family="logistic"), _render_fig4),
}

FIGURE_IDS = tuple(_FIGURES)
