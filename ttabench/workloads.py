"""The four benchmark workloads: inputs, timed calls and output digests.

A workload has three steps.  `build` makes the inputs (domains, configs,
config files) from the variant; `run` is the timed region and calls only
public ttalab functions; `digest` turns what `run` returned, and the files it
wrote, into plain JSON data keyed by operation.  An operation is one figure,
one run, one grid search or one certificate.  `check` compares a digest with
the stored reference, operation by operation.

The reference (reference.json) holds the digests the tree produced when the
benchmark was defined, for VARIANTS input variants; a seed selects variant
seed % VARIANTS, so every seed is checked against stored outputs.  Numbers
are compared parsed, with a tolerance, never as bytes, and the `#` metadata
block of each CSV is skipped.  Where a planned change is allowed to move an
output (the step-size search moving onto common random numbers), the digest
stores properties instead of values: every step size has a row, and the
reported best step size is in the grid and minimal under the documented
ranking.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

VARIANTS = 8

# Absolute part of every numeric comparison.
ATOL = 1e-12

# Sampled (mini-batch) trajectories at the largest step sizes amplify a
# one-ulp change of w_init to ~1e-6 relative after 40 steps, so a refactor
# that only reorders sums moves them that far; deterministic outputs
# (population runs, certificates, loss curves) are held to 1e-9.
RTOL_SAMPLED = 1e-5
RTOL_EXACT = 1e-9

# Columns up to this many rows are stored whole; longer ones as a fingerprint.
FULL_COLUMN_ROWS = 64
FINGERPRINT_POINTS = 5


def load_package():
    """Import ttalab from this checkout's src/ (never an installed copy)."""
    if not (SRC / "ttalab" / "__init__.py").is_file():
        raise SystemExit(f"ttabench: no ttalab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ttalab
    import ttalab.cli  # noqa: F401  (the figures-io workload drives the CLI)

    if Path(ttalab.__file__).resolve().parent != (SRC / "ttalab").resolve():
        raise SystemExit(f"ttabench: imported ttalab from {ttalab.__file__}, not {SRC}")
    return ttalab


# --- digest helpers -------------------------------------------------------------


def num(value):
    """JSON-safe number: floats stay floats, non-finite ones become strings."""
    if value is None or isinstance(value, (int, str)):  # bool is an int
        return value
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def plain_record(report) -> dict:
    """Scalar fields of a report dataclass, JSON-safe (array fields skipped)."""
    return {f.name: num(getattr(report, f.name)) for f in dataclasses.fields(report)
            if getattr(getattr(report, f.name), "ndim", 0) == 0}


def _cell(text: str):
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(path) -> dict:
    """Columns of a CSV by header name, skipping `#` metadata lines."""
    lines = [line for line in Path(path).read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [[_cell(cell) for cell in line.split(",")] for line in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def column_digest(values: list):
    """Whole column when short or non-numeric, else a positional fingerprint:
    row count, evenly spaced rows, extremes of the finite values and the
    number of non-finite ones."""
    if len(values) <= FULL_COLUMN_ROWS or not all(
            isinstance(v, float) for v in values):
        return [num(v) for v in values]
    n = len(values)
    picks = sorted({round(k * (n - 1) / (FINGERPRINT_POINTS - 1))
                    for k in range(FINGERPRINT_POINTS)})
    finite = [v for v in values if math.isfinite(v)]
    return {"n": n, "at": [num(values[i]) for i in picks],
            "min": num(min(finite, default=math.nan)), "max": num(max(finite, default=math.nan)),
            "nonfinite": n - len(finite)}


def csv_digest(path) -> dict:
    return {name: column_digest(col) for name, col in parse_csv(path).items()}


def svg_digest(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    return {"is_svg": text.lstrip().startswith("<svg"), "polylines": text.count("<polyline")}


def best_is_minimal(etas, finals, overflows, best_eta) -> bool:
    """best_eta is in the grid and ranks first: no overflow, then the lowest
    final loss, ties toward the smaller step size."""
    ranked = min(zip(etas, finals, overflows),
                 key=lambda row: (bool(row[2]), _as_float(row[1]), row[0]))
    return best_eta in etas and ranked[0] == best_eta


def _as_float(value) -> float:
    value = float(value)
    return math.inf if math.isnan(value) else value


# --- comparison -----------------------------------------------------------------


def compare(got, want, rtol: float, where: str = ""):
    """First mismatch between a digest and its reference as text, or None.

    Keys present only in `got` are ignored, so outputs may gain fields.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{where}: expected a mapping, got {got!r}"
        for key, value in want.items():
            if key not in got:
                return f"{where}/{key}: missing"
            found = compare(got[key], value, rtol, f"{where}/{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: expected {len(want)} values, got {got!r:.80}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = compare(g, w, rtol, f"{where}[{i}]")
            if found:
                return found
        return None
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - want) <= ATOL + rtol * max(abs(got), abs(want)):
            return None
        return f"{where}: {got!r} differs from reference {want!r}"
    if got == want and type(got) is type(want):
        return None
    return f"{where}: {got!r} differs from reference {want!r}"


# --- workloads ------------------------------------------------------------------


class Fig4Sweep:
    """fig4-exp at its preset shape (2 rules x 11 step sizes x 10 seeds, d=10,
    batch 32) on a shortened horizon: the sampled engine and its sweep."""

    name = "fig4-sweep"
    rtol = RTOL_SAMPLED
    horizon = 40

    def build(self, tt, variant: int, out: Path):
        return variant, out

    def run(self, tt, inputs):
        seed, out = inputs
        return tt.reproduce_figure("fig4-exp", seed=seed, d=10, batch=32,
                                   horizon=self.horizon, out_dir=out)

    def digest(self, result) -> dict:
        files = {Path(p).name: csv_digest(p) for p in result.csv_paths}
        grid = files["fig4-exp_grid.csv"]
        record = {"best_error": num(result.summary["best_error"])}
        for rule in ("hard+exp", "conj+exp"):
            summary = result.summary[rule]
            rows = [i for i, r in enumerate(grid["rule"]) if r == rule.split("+")[0]]
            record[rule] = {key: num(value) for key, value in summary.items()}
            record[rule]["best_is_minimal"] = best_is_minimal(
                [grid["eta"][i] for i in rows],
                [grid["mean_final_loss01"][i] for i in rows],
                [grid["n_overflow"][i] for i in rows], summary["best_eta"])
        record["files"] = files
        record["svg"] = svg_digest(result.svg_path)
        return {"figure:fig4-exp": record}


class Population:
    """Population dynamics (quadrature, no sampling) for conj+{square,
    logistic, exp} x 4 step sizes, horizon 2000; conj+square overflows by
    design and the smooth losses fire the quadrature refinement warning."""

    name = "population"
    rtol = RTOL_EXACT
    families = ("square", "logistic", "exp")
    etas = (0.1, 0.5, 1.0, 5.0)
    horizon = 2000

    def build(self, tt, variant: int, out: Path):
        _, mu, sigma, w_init = tt.build_benchmark_domains(10, variant)
        model = tt.GaussianModel(mu=mu, sigma=sigma)
        return {
            f"run:conj+{family}@{eta:g}": tt.ExperimentConfig(
                model=model, loss=tt.make_loss("conj", family), eta=eta,
                mode=tt.Mode.POPULATION, horizon=self.horizon, seed=variant,
                w_init=w_init)
            for family in self.families for eta in self.etas
        }

    def run(self, tt, configs):
        return {op: tt.run_population(config) for op, config in configs.items()}

    def digest(self, runs) -> dict:
        return {op: {"points": len(points), "overflow": bool(points[-1].overflow),
                     "a": column_digest([float(p.a) for p in points]),
                     "b": column_digest([float(p.b) for p in points]),
                     "loss01": num(points[-1].loss01)}
                for op, points in runs.items()}


class FiguresIO:
    """fig1a/fig1b/fig2/fig3 over several seeds plus `ttalab run` (one sampled,
    one population config) and `ttalab grid`: CSV/SVG writing and read-back,
    the sampler hook at batch 1, the harness and the CLI."""

    name = "figures-io"
    rtol = RTOL_SAMPLED
    figures = ("fig1a", "fig1b", "fig2", "fig3")
    seeds_per_pass = 3
    grid_etas = "0.1,0.5,1,5"

    def build(self, tt, variant: int, out: Path):
        _, mu, sigma, w_init = tt.build_benchmark_domains(10, variant)
        common = {"model.mu": [float(v) for v in mu], "model.sigma": sigma,
                  "model.dim": 10, "run.seed": variant, "init.w": [float(v) for v in w_init]}
        configs = {
            "sampled": {"loss.rule": "conj", "loss.family": "exp", "run.mode": "stochastic",
                        "run.eta": 0.5, "run.batch": 32, "run.horizon": 1000},
            "population": {"loss.rule": "conj", "loss.family": "logistic",
                           "run.mode": "population", "run.eta": 1.0, "run.horizon": 1000},
            "grid": {"loss.rule": "conj", "loss.family": "logistic", "run.mode": "stochastic",
                     "run.batch": 8, "run.eta": 1.0, "run.horizon": 200},
        }
        paths = {}
        for stem, fields in configs.items():
            paths[stem] = out / "configs" / f"{stem}.json"
            paths[stem].parent.mkdir(parents=True, exist_ok=True)
            paths[stem].write_text(json.dumps({**common, **fields}), encoding="utf-8")
        seeds = [self.seeds_per_pass * variant + k for k in range(self.seeds_per_pass)]
        return {"out": out, "seeds": seeds, "configs": paths}

    def run(self, tt, inputs):
        out = inputs["out"]
        results = {}
        for seed in inputs["seeds"]:
            for fig in self.figures:
                results[f"figure:{fig}@{seed}"] = tt.reproduce_figure(
                    fig, seed=seed, out_dir=out / f"seed{seed}")
        configs = inputs["configs"]
        for op, argv in (
            ("cli-run:sampled", ["run", str(configs["sampled"]), "--out", str(out / "run")]),
            ("cli-run:population", ["run", str(configs["population"]), "--out", str(out / "run")]),
            ("cli-grid", ["grid", str(configs["grid"]), "--etas", self.grid_etas,
                          "--out", str(out / "grid")]),
        ):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = tt.cli.main(argv)
            results[op] = (code, stdout.getvalue())
        return results

    def digest(self, results) -> dict:
        record = {}
        for op, result in results.items():
            if op.startswith("figure:"):
                record[op] = {"files": {Path(p).name: csv_digest(p) for p in result.csv_paths},
                              "svg": svg_digest(result.svg_path)}
            elif op.startswith("cli-run:"):
                record[op] = self._run_digest(*result)
            else:
                record[op] = self._grid_digest(*result)
        return record

    @staticmethod
    def _run_digest(code: int, stdout: str) -> dict:
        csvs = [Path(line) for line in stdout.splitlines() if line.endswith(".csv")]
        record = {"exit": code, "files": {p.name: csv_digest(p) for p in csvs}}
        for csv in csvs:
            manifest = csv.with_name(csv.name.split(".")[0] + ".manifest.json")
            record[f"notes:{csv.name}"] = json.loads(manifest.read_text(encoding="utf-8"))["notes"]
        return record

    @staticmethod
    def _grid_digest(code: int, stdout: str) -> dict:
        lines = stdout.splitlines()
        best = [float(line.split("=", 1)[1]) for line in lines if line.startswith("best_eta")]
        csvs = [line for line in lines if line.endswith(".csv")]
        if not best or not csvs:
            return {"exit": code}
        cols = parse_csv(csvs[0])
        return {"exit": code, "etas": sorted(cols["eta"]),
                "best_is_minimal": best_is_minimal(cols["eta"], cols["final_loss01"],
                                                   cols["overflow"], best[0])}


class Certify:
    """Tail-bound certificates for the four certified losses, the recursion
    bound at T = 1e6, and the log-rate check at T = 1e4: the analysis layer."""

    name = "certify"
    rtol = RTOL_EXACT
    losses = ("hard+exp", "hard+logistic", "conj+exp", "conj+logistic")
    # log-rate step size per variant
    etas = (1.0, 0.5, 2.0, 0.25, 1.5, 0.75, 3.0, 1.25)

    def build(self, tt, variant: int, out: Path):
        return [tt.parse_loss_id(name) for name in self.losses], self.etas[variant]

    def run(self, tt, inputs):
        losses, eta = inputs
        results = {}
        for loss in losses:
            results[f"club:{loss.name}"] = tt.verify_club(loss, loss.club.L, loss.club.a_min)
        results["recursion"] = tt.recursion_bound_run(1.0, 1.0, 1.0, 10**6)
        for loss in losses:
            results[f"log-rate:{loss.name}"] = tt.log_rate_check(
                loss, a1=max(loss.club.a_min, 0.1) + 0.5, b1=1.0, eta=eta,
                mu_norm=1.0, T=10**4)
        return results

    def digest(self, results) -> dict:
        record = {}
        for op, result in results.items():
            if op == "recursion":
                seq, report = result
                record[op] = {**plain_record(report),
                              "seq": column_digest(seq.tolist())}
            else:
                record[op] = plain_record(result)
        return record


WORKLOADS = {w.name: w for w in (Fig4Sweep(), Population(), FiguresIO(), Certify())}


def check(workload, record: dict, reference: dict) -> dict:
    """Failure text per operation of the reference (empty when all pass)."""
    failures = {}
    for op, want in reference.items():
        if op not in record:
            failures[op] = "operation missing"
            continue
        found = compare(record[op], want, workload.rtol, op)
        if found:
            failures[op] = found
    return failures


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))
