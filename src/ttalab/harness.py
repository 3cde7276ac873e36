"""Config-driven runs and step-size search.

run_experiment parses a flat JSON config, dispatches on run.mode, and writes
the trajectory CSV next to a JSON manifest recording config, code version,
seed and output paths.  Rerunning the same config produces byte-identical
CSV output (the manifest differs only in its wall-clock stamp).

step_size_sweep runs a base config at every step size on one list of seed
streams (a stochastic base as one dynamics.stochastic_sweep).  Every step
size reads the same streams (common random numbers), so a step size's row
does not depend on the rest of the grid.  Overflowing step sizes rank last,
then the lowest mean final expected 0-1 loss wins, ties going to the smaller
step.  grid_search is the sweep on one stream; the fig4 presets run it on ten.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dynamics import (ExperimentConfig, Mode, TrajectoryPoint, run_population, run_stochastic,
                       stochastic_sweep)
from .model import ab_metrics, derive_stream_seed
from .serialize import RunManifest, config_flat, parse_config_file, trajectory_csv_text, write_manifest

__all__ = ["GridPoint", "run_config", "run_experiment", "step_size_sweep", "grid_search"]


@dataclass(frozen=True)
class GridPoint:
    """Outcome of one step size over a sweep's seed streams.

    mean_final_loss01 is the mean final expected 0-1 loss; it is inf, and its
    std NaN, when any run overflowed.  The std is also NaN for a single
    stream.  curve is the mean 0-1 loss at each t over the runs that did not
    overflow (all NaN when none did); it takes no part in ==.
    """

    eta: float
    mean_final_loss01: float
    std_final_loss01: float
    n_overflow: int
    curve: np.ndarray = field(compare=False, repr=False)

    @property
    def overflow(self) -> bool:
        return self.n_overflow > 0


def run_config(config: ExperimentConfig) -> list[TrajectoryPoint]:
    """Dispatch a config to its runner."""
    if config.mode is Mode.STOCHASTIC:
        return run_stochastic(config)
    return run_population(config)


def run_experiment(config_path: str | Path, out_dir: str | Path = ".") -> RunManifest:
    """Run the experiment described by a config file; write CSV + manifest."""
    config_path = Path(config_path)
    config = parse_config_file(config_path)
    points = run_config(config)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = config_path.stem
    csv_path = out / f"{stem}.trajectory.csv"
    manifest_path = out / f"{stem}.manifest.json"
    csv_path.write_text(trajectory_csv_text(points, config_flat(config)), encoding="utf-8")
    return write_manifest(manifest_path, config, outputs=[csv_path],
                          notes={"points": len(points),
                                 "overflow": points[-1].overflow})


def step_size_sweep(base: ExperimentConfig, eta_grid,
                    stream_seeds) -> tuple[GridPoint, list[GridPoint]]:
    """Run base at every step size on every seed stream; return (best, rows).

    Rows come in ascending step-size order, duplicates merged.  Only the
    final losses and one mean curve per step size are kept, not the
    trajectories.
    """
    etas = sorted(set(float(e) for e in eta_grid))
    if not etas:
        raise ValueError("eta grid must be non-empty")
    seeds = list(stream_seeds)
    if not seeds:
        raise ValueError("at least one seed stream is needed")
    if base.mode is Mode.STOCHASTIC:
        ab, stopped = stochastic_sweep(base, etas, seeds)
        loss01 = ab_metrics(ab[..., 0], ab[..., 1], base.model)[2]
    rows: list[GridPoint] = []
    for k, eta in enumerate(etas):
        if base.mode is Mode.STOCHASTIC:
            curves = [loss01[:, s, k] for s in range(len(seeds)) if not stopped[s, k]]
        else:
            runs = [run_population(replace(base, eta=eta, seed=seed)) for seed in seeds]
            curves = [[p.loss01 for p in points] for points in runs if not points[-1].overflow]
        finals = [curve[-1] for curve in curves]
        n_overflow = len(seeds) - len(finals)
        if n_overflow == 0:
            mean = float(np.mean(finals))
            std = float(np.std(finals, ddof=1)) if len(finals) > 1 else math.nan
        else:
            mean, std = math.inf, math.nan
        curve = (np.mean(np.asarray(curves), axis=0) if curves
                 else np.full(base.horizon + 1, math.nan))
        rows.append(GridPoint(eta=eta, mean_final_loss01=mean, std_final_loss01=std,
                              n_overflow=n_overflow, curve=curve))
    best = min(rows, key=lambda p: (p.overflow, p.mean_final_loss01, p.eta))
    return best, rows


def grid_search(base_config: ExperimentConfig,
                eta_grid: list[float]) -> tuple[float, list[GridPoint]]:
    """Run base_config once per step size and select the best one.

    Every step size reads the same seed stream, derive_stream_seed(seed, 0),
    so the rows do not depend on the order or the other members of the grid.
    """
    best, rows = step_size_sweep(base_config, eta_grid,
                                 [derive_stream_seed(base_config.seed, 0)])
    return best.eta, rows
