"""Stored golden trajectories and loss values: refactors must reproduce them.

Each trajectory file under tests/golden/ holds the trajectories of one small
base config run with several losses, one row per (loss, t).  The numbers are
compared at rtol = atol = 1e-12 (not as bytes), so a change that only
reorders a BLAS sum still passes; the `#` metadata block is skipped.

tests/golden/losses.csv holds psi, psi' and psi'' of all six losses on a
fixed margin grid, one row per (loss, u), each value written with repr.  No
sum is involved, so it is compared as text: every value keeps its bits.

tests/golden/figures.sha256 holds the SHA-256 of figure outputs written at
seed 0, one `<hex>  <file>` line each: fig2.csv and fig3.csv without their `#`
lines (psi and the tail exponent on a grid, no sum involved, so every value
keeps its bits) and the fig1a, fig2 and fig3 SVGs (coordinates at 2 decimals).
CHART_CALLS below holds the SHA-256 of the full text of svg_line_chart calls
that none of those figures makes: a dashed reference line with its label,
text to escape, and a single point, whose flat x and y ranges are widened.

Regenerate deliberately, never to make a failing comparison pass:

    PYTHONPATH=src python tests/test_golden.py

It rewrites a trajectory file only when test_trajectories_match_golden's own
comparison fails for it (a one-ulp change that passes at 1e-12 leaves the file
as it is), so a deliberate change to one file is regenerated alone.  losses.csv
and figures.sha256 are exact comparisons and are always rewritten; on an
unchanged tree they come out byte for byte as stored.  The CHART_CALLS digests
are not regenerated: a deliberate chart change edits them by hand.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ttalab import (
    ExperimentConfig,
    GaussianModel,
    Mode,
    build_benchmark_domains,
    parse_loss_id,
    reproduce_figure,
    run_population,
    run_stochastic,
)
from ttalab.dynamics import _HALF_WIDTH, _MARGIN_CUT, stochastic_sweep, trajectory
from ttalab.serialize import config_flat, csv_with_meta_text, svg_line_chart

GOLDEN_DIR = Path(__file__).parent / "golden"
HEADER = "loss,t,a,b,r,cos,loss01,overflow"
ALL_LOSSES = ("hard+square", "hard+logistic", "hard+exp",
              "conj+square", "conj+logistic", "conj+exp")
CONJ_LOSSES = ("conj+square", "conj+logistic", "conj+exp")

_MU = np.array([0.8, -0.3, 0.5])
_W0 = np.array([1.0, 0.4, -0.2])


def _benchmark_base():
    _, mu, sigma, w_init = build_benchmark_domains(10, seed=1)
    return dict(mu=mu, sigma=sigma, w_init=w_init)


# name -> (base fields, losses, stream)
GOLDEN = {
    "stochastic_noisy": (
        dict(mu=_MU, sigma=0.7, w_init=_W0, mode=Mode.STOCHASTIC, eta=0.5,
             horizon=12, seed=11, batch_size=4),
        ALL_LOSSES, "sampled"),
    "stochastic_benchmark": (
        dict(**_benchmark_base(), mode=Mode.STOCHASTIC, eta=1.0, horizon=20,
             seed=3, batch_size=32),
        ("hard+exp", "conj+exp", "hard+logistic", "conj+logistic"), "sampled"),
    "stochastic_overflow": (
        dict(mu=_MU, sigma=0.7, w_init=_W0, mode=Mode.STOCHASTIC, eta=20.0,
             horizon=200, seed=5, batch_size=4),
        ("conj+square",), "sampled"),
    "alternating": (
        dict(mu=_MU, sigma=0.5, w_init=_W0, mode=Mode.STOCHASTIC, eta=1.0,
             horizon=20, seed=0, batch_size=1),
        ("hard+square", "conj+square"), "alternating-pm-mu"),
    "population_noisy": (
        dict(mu=_MU, sigma=0.6, w_init=_W0, mode=Mode.POPULATION, eta=0.5,
             horizon=15, seed=0),
        CONJ_LOSSES, "population"),
    "population_noiseless": (
        dict(mu=_MU, sigma=0.0, w_init=_W0, mode=Mode.POPULATION, eta=0.5,
             horizon=15, seed=0),
        ALL_LOSSES, "population"),
    "population_benchmark": (
        dict(**_benchmark_base(), mode=Mode.POPULATION, eta=1.0, horizon=80, seed=0),
        ("conj+logistic", "conj+exp"), "population"),
}


def _configs(name):
    fields, losses, stream = GOLDEN[name]
    fields = dict(fields)
    model = GaussianModel(mu=fields.pop("mu"), sigma=fields.pop("sigma"))
    return [ExperimentConfig(model=model, loss=parse_loss_id(loss), **fields)
            for loss in losses], stream


def golden_rows(name):
    configs, stream = _configs(name)
    rows = []
    for config in configs:
        if stream == "population":
            run = run_population(config)
        elif stream == "alternating-pm-mu":  # as fig1 runs it: the noiseless domain's
            # batches, which a step reads as that stream, scored by the noisy 0-1 loss
            noiseless = replace(config, model=GaussianModel(mu=config.model.mu, sigma=0.0))
            ab, stopped = stochastic_sweep(noiseless, [config.loss], [config.eta], [config.seed])
            run = trajectory(ab[:, 0, 0, 0], config.model, stop=int(stopped[0, 0, 0]))
        else:
            run = run_stochastic(config)
        n = len(run)
        overflow = [False] * n
        overflow[-1] = run.stop > 0
        rows += zip([config.loss.name] * n, range(1, n + 1),
                    *(column.tolist() for column in run.columns), overflow)
    return rows


def golden_text(name):
    configs, stream = _configs(name)
    meta = config_flat(configs[0])
    meta.pop("loss.rule")
    meta.pop("loss.family")
    meta["losses"] = [c.loss.name for c in configs]
    meta["stream"] = stream
    return csv_with_meta_text(HEADER, golden_rows(name), meta)


# 0 and -0, a tiny 1e-300, the origin's neighbourhood, the quadrature's
# cut at 36 and the stable primitives' range edge at 700, with both signs
LOSS_GRID = (0.0, -0.0, 1e-300, -1e-300, 1e-8, -1e-8, 0.5, -0.5, 1.0, -1.0, 2.5, -2.5,
             18.5, -18.5, 36.0, -36.0, 100.0, -100.0, 700.0, -700.0)
LOSS_HEADER = "loss,u,psi,dpsi,ddpsi"


def loss_golden_text():
    grid = np.array(LOSS_GRID)
    lines = [LOSS_HEADER]
    for name in ALL_LOSSES:
        loss = parse_loss_id(name)
        columns = zip(grid, loss.psi(grid), loss.dpsi(grid), loss.ddpsi(grid))
        lines += [",".join([name] + [repr(float(v)) for v in row]) for row in columns]
    return "\n".join(lines) + "\n"


def test_losses_match_golden_exactly():
    stored = (GOLDEN_DIR / "losses.csv").read_text(encoding="utf-8").splitlines()
    assert loss_golden_text().splitlines() == stored


def _rows(text):
    lines = text.splitlines()
    assert lines[0] == HEADER
    return [line.split(",") for line in lines[1:] if line and not line.startswith("#")]


def _stored_rows(name):
    return _rows((GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8"))


def assert_trajectories_match(name, text):
    """text, a golden_text(name), has the stored file's (loss, t, overflow) keys and
    its numbers at rtol = atol = 1e-12."""
    stored = _stored_rows(name)
    fresh = _rows(text)
    assert [(r[0], r[1], r[7]) for r in fresh] == [(r[0], r[1], r[7]) for r in stored]
    got = np.array([[float(v) for v in r[2:7]] for r in fresh])
    want = np.array([[float(v) for v in r[2:7]] for r in stored])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, equal_nan=True)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trajectories_match_golden(name):
    assert_trajectories_match(name, golden_text(name))


def test_golden_set_covers_an_overflow():
    rows = _stored_rows("stochastic_overflow")
    assert rows[-1][7] == "true"


def test_population_golden_covers_both_quadrature_windows():
    """Each loss of population_benchmark takes >= 10 steps whose window
    [a - 14 s, a + 14 s] the margin cut clips on both sides, and >= 10 others.
    Every one has s >= 4 h and reads the fixed grid [-36, 36]; a window of its
    own (s < 4 h) is pinned by test_dynamics' quadrature tests, not here."""
    (config, *_), _ = _configs("population_benchmark")
    sigma, mu_norm = config.model.sigma, config.model.mu_norm
    for loss in GOLDEN["population_benchmark"][1]:
        # every point but the last is the (a, b) one step starts from
        steps = [r for r in _stored_rows("population_benchmark") if r[0] == loss][:-1]
        a, b = np.array([[float(r[2]), float(r[3])] for r in steps]).T
        s = sigma * np.hypot(a / mu_norm, b)
        cut = (a - _HALF_WIDTH * s <= -_MARGIN_CUT) & (a + _HALF_WIDTH * s >= _MARGIN_CUT)
        assert cut.sum() >= 10 and (~cut).sum() >= 10, (loss, cut.sum(), (~cut).sum())


# figure -> the files of its output directory that figures.sha256 pins
FIGURE_FILES = {"fig1a": ("fig1a.svg",), "fig2": ("fig2.csv", "fig2.svg"),
                "fig3": ("fig3.csv", "fig3.svg")}


def figure_digests(out_dir):
    """{file: SHA-256 hex} of the pinned figure outputs, written at seed 0 into out_dir;
    a CSV is hashed without its `#` lines."""
    digests = {}
    for fig_id, names in FIGURE_FILES.items():
        reproduce_figure(fig_id, seed=0, out_dir=out_dir)
        for name in names:
            lines = (Path(out_dir) / name).read_text(encoding="utf-8").splitlines(keepends=True)
            if name.endswith(".csv"):
                lines = [line for line in lines if not line.startswith("#")]
            digests[name] = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
    return digests


def test_figures_match_golden_bytes(tmp_path):
    """fig2.csv, fig3.csv (data lines) and the fig1a, fig2 and fig3 SVGs at seed 0
    hash as in tests/golden/figures.sha256.  Regenerate deliberately, never to make
    a failing comparison pass: `PYTHONPATH=src python tests/test_golden.py`."""
    stored = dict(line.split()[::-1] for line in
                  (GOLDEN_DIR / "figures.sha256").read_text(encoding="utf-8").splitlines())
    fresh = figure_digests(tmp_path)
    assert sorted(fresh) == sorted(stored)
    differ = [name for name in fresh if fresh[name] != stored[name]]
    assert not differ, f"figure output differs from tests/golden/figures.sha256: {differ}"


# name -> (svg_line_chart arguments, SHA-256 of the SVG text it returns)
CHART_CALLS = {
    # two series (one with a NaN point), a dashed reference line and its label,
    # and text that has to be escaped
    "two_series_and_hline": (
        dict(series=[("hard <rule>", [0.0, 1.0, 2.0, 3.0], [0.5, 0.3, 0.2, 0.15]),
                     ("conj & rule", [0.0, 1.0, 2.0, 3.0], [0.45, float("nan"), 0.1, 0.05])],
             title="0-1 loss < 0.5 & falling", xlabel="step t", ylabel="loss <0-1> & more",
             hlines=[("best & achievable", 0.08)]),
        "c02bd374091f5ddf28b550ce978da18ece0b31d1cd486eeb1274ba2d37e05ed5"),
    # one point: both flat ranges are widened by 1.0
    "one_point": (
        dict(series=[("only", [2.0], [3.0])], title="t", xlabel="x", ylabel="y"),
        "51419811479fc8ce7ee4048dde769c4aa198fb026f377c4d38fd44e406995114"),
}


@pytest.mark.parametrize("name", sorted(CHART_CALLS))
def test_chart_text_matches_golden_bytes(name):
    """The full text of svg_line_chart on calls that no figure in figures.sha256
    makes: a reference line with its label, escaped text, and one point."""
    kwargs, digest = CHART_CALLS[name]
    assert hashlib.sha256(svg_line_chart(**kwargs).encode("utf-8")).hexdigest() == digest


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for golden_name in GOLDEN:
        text = golden_text(golden_name)
        try:
            assert_trajectories_match(golden_name, text)
        except (AssertionError, OSError):  # different or missing: only then rewrite it
            (GOLDEN_DIR / f"{golden_name}.csv").write_text(text, encoding="utf-8")
            print(GOLDEN_DIR / f"{golden_name}.csv")
    (GOLDEN_DIR / "losses.csv").write_text(loss_golden_text(), encoding="utf-8")
    print(GOLDEN_DIR / "losses.csv")
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN_DIR / "figures.sha256").write_text(
            "".join(f"{digest}  {name}\n" for name, digest in figure_digests(tmp).items()),
            encoding="utf-8")
    print(GOLDEN_DIR / "figures.sha256")
