"""Config-driven runs and step-size search.

run_experiment parses a flat JSON config, dispatches on run.mode, and writes
the trajectory CSV next to a JSON manifest recording config, code version,
seed and output paths (relative to the manifest's directory).  Rerunning the
same config produces byte-identical CSV output (the manifest differs only in
its wall-clock stamp), wherever out_dir points.

step_size_sweep runs a base config with every loss at every step size on
`streams` seed streams, stream k seeded with derive_stream_seed(base.seed, k):
a stochastic base as one dynamics.stochastic_sweep call, which draws each
batch once for all the losses, and one ab_metrics scoring pass; a population
base as one run per (loss, step size), which reads no seed and so stands for
every stream.  Every loss and step size reads the same streams (common random
numbers), so a loss's rows do not depend on the other losses, nor a row on
the rest of the grid.  Per loss, overflowing step sizes rank last, then the
lowest mean final expected 0-1 loss wins, ties going to the smaller step.
`ttalab grid` runs the base config's own loss on one stream; the fig4 presets
run hard and conjugate labels on ten.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dynamics import ExperimentConfig, Mode, run_population, run_stochastic, stochastic_sweep
from .model import ab_metrics, check_count, check_non_empty, derive_stream_seed
from .serialize import RunManifest, config_flat, parse_config_file, trajectory_csv_text, write_manifest

__all__ = ["GridPoint", "run_experiment", "step_size_sweep"]


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


def run_experiment(config_path: str | Path, out_dir: str | Path = ".") -> RunManifest:
    """Run the experiment described by a config file; write CSV + manifest."""
    config_path = Path(config_path)
    config = parse_config_file(config_path)
    run = (run_stochastic if config.mode is Mode.STOCHASTIC else run_population)(config)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = config_path.stem
    csv_path = out / f"{stem}.trajectory.csv"
    manifest_path = out / f"{stem}.manifest.json"
    csv_path.write_text(trajectory_csv_text(run, config_flat(config)), encoding="utf-8")
    return write_manifest(manifest_path, config, outputs=[csv_path],
                          notes={"points": len(run), "overflow": bool(run.stop)})


def step_size_sweep(base: ExperimentConfig, losses, eta_grid,
                    streams: int) -> list[tuple[GridPoint, list[GridPoint]]]:
    """Run base with every loss in losses at every step size on each of
    `streams` seed streams, stream k seeded with derive_stream_seed(base.seed, k);
    return one (best, rows) per loss, in the order of losses.

    A stochastic base makes one stochastic_sweep call and one ab_metrics
    scoring pass; a population base makes one run per (loss, step size), and
    that run, which reads no seed, stands for every stream.  Rows come in
    ascending step-size order, duplicates merged.  Only the final losses and
    one mean curve per step size are kept, not the trajectories.
    """
    losses = check_non_empty("loss list", losses)
    etas = sorted(set(float(e) for e in check_non_empty("eta grid", eta_grid)))
    streams = check_count("streams", streams, 1)
    if base.mode is Mode.STOCHASTIC:
        seeds = [derive_stream_seed(base.seed, s) for s in range(streams)]
        ab, stopped = stochastic_sweep(base, losses, etas, seeds)
        loss01 = ab_metrics(ab[..., 0], ab[..., 1], base.model)[2]
        curves = [[[loss01[:, r, s, k] for s in range(streams) if not stopped[r, s, k]]
                   for k in range(len(etas))] for r in range(len(losses))]
    else:
        curves = [[[] if (run := run_population(replace(base, loss=loss, eta=eta))).stop
                   else [run.loss01] * streams for eta in etas] for loss in losses]
    sweeps = [[_grid_point(eta, c, streams, base.horizon) for eta, c in zip(etas, loss_curves)]
              for loss_curves in curves]
    return [(min(rows, key=lambda p: (p.overflow, p.mean_final_loss01, p.eta)), rows)
            for rows in sweeps]


def _grid_point(eta: float, curves, streams: int, horizon: int) -> GridPoint:
    """The row of one step size from the 0-1 loss curves of its runs that did
    not overflow, out of `streams` runs."""
    finals = [curve[-1] for curve in curves]
    n_overflow = streams - len(finals)
    if n_overflow == 0:
        mean = float(np.mean(finals))
        std = float(np.std(finals, ddof=1)) if len(finals) > 1 else math.nan
    else:
        mean, std = math.inf, math.nan
    curve = np.mean(np.asarray(curves), axis=0) if curves else np.full(horizon + 1, math.nan)
    return GridPoint(eta=eta, mean_final_loss01=mean, std_final_loss01=std,
                     n_overflow=n_overflow, curve=curve)
