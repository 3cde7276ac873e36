"""Config parsing, run harness, figure presets, CSV/SVG emission, CLI."""

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ttalab import (
    ETA_GRID,
    FIGURE_IDS,
    ConfigError,
    ExperimentConfig,
    GaussianModel,
    Mode,
    build_benchmark_domains,
    derive_stream_seed,
    gauss_upper_tail,
    make_loss,
    parse_config_file,
    render_figure_svg,
    reproduce_figure,
    run_experiment,
    run_population,
    step_size_sweep,
    zero_one_loss,
)
from ttalab import dynamics, harness, model, presets, serialize
from ttalab.cli import main
from ttalab.serialize import TRAJECTORY_HEADER, config_flat, format_value, read_csv_with_meta


# the inputs besides seed that each figure reads
FIGURE_INPUTS = {
    "fig1a": ("d", "horizon"), "fig1b": ("d", "horizon"), "fig2": (), "fig3": (),
    "fig4-exp": ("d", "batch", "horizon"), "fig4-logistic": ("d", "batch", "horizon"),
}
UNREAD_INPUTS = [(fig, name, value) for fig in FIGURE_IDS
                 for name, value in (("d", 4), ("batch", 64), ("horizon", 3))
                 if name not in FIGURE_INPUTS[fig]]


def write_config(path: Path, **overrides) -> Path:
    config = {
        "model.mu": [0.6567, 0.7542], "model.sigma": 0.78, "model.dim": 2,
        "loss.rule": "conj", "loss.family": "exp",
        "run.mode": "stochastic", "run.eta": 0.5, "run.batch": 8,
        "run.horizon": 12, "run.seed": 7, "init.w": [1.0, 0.0],
    }
    config.update(overrides)
    config = {k: v for k, v in config.items() if v is not None}
    path.write_text(json.dumps(config))
    return path


class TestConfigParsing:
    def test_minimal_valid_config(self, tmp_path):
        config = parse_config_file(write_config(tmp_path / "c.json"))
        assert config.mode is Mode.STOCHASTIC
        assert config.loss.name == "conj+exp"
        assert config.batch_size == 8

    def test_batch_defaults_to_32(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        raw = json.loads(path.read_text())
        del raw["run.batch"]
        path.write_text(json.dumps(raw))
        assert parse_config_file(path).batch_size == 32

    def test_one_key_list_in_config_flat_order(self, tmp_path):
        config = parse_config_file(write_config(tmp_path / "c.json"))
        assert tuple(config_flat(config)) == serialize._KEYS

    def test_eta_zero_names_the_field(self, tmp_path):
        path = write_config(tmp_path / "c.json", **{"run.eta": 0})
        with pytest.raises(ConfigError, match="eta must be positive"):
            parse_config_file(path)

    def test_dim_mismatch_diagnosed(self, tmp_path):
        path = write_config(tmp_path / "c.json", **{"model.dim": 5})
        with pytest.raises(ConfigError, match="model.dim"):
            parse_config_file(path)

    def test_unknown_key_diagnosed(self, tmp_path):
        path = write_config(tmp_path / "c.json", **{"run.momentum": 0.9})
        with pytest.raises(ConfigError, match="run.momentum"):
            parse_config_file(path)

    def test_missing_key_diagnosed(self, tmp_path):
        path = write_config(tmp_path / "c.json", **{"init.w": None})
        with pytest.raises(ConfigError, match="init.w"):
            parse_config_file(path)

    def test_non_finite_init_w_names_the_field(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", **{"init.w": [math.nan, 1.0]})
        with pytest.raises(ConfigError, match="init.w: w must be finite"):
            parse_config_file(path)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1
        assert "init.w" in capsys.readouterr().err
        assert not (tmp_path / "c.trajectory.csv").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("model.sigma", -1, "sigma must be finite and non-negative"),
        ("model.sigma", math.nan, "sigma must be finite and non-negative"),
        ("model.mu", [0, 0], "mu must be a nonzero vector"),
    ])
    def test_model_error_names_the_one_bad_field(self, tmp_path, key, value, message):
        path = write_config(tmp_path / "c.json", **{key: value})
        with pytest.raises(ConfigError) as err:
            parse_config_file(path)
        assert str(err.value) == f"{key}: {message}"

    def test_bad_mode_diagnosed(self, tmp_path):
        path = write_config(tmp_path / "c.json", **{"run.mode": "minibatch"})
        with pytest.raises(ConfigError, match="run.mode"):
            parse_config_file(path)

    def test_negative_seed_diagnosed(self, tmp_path):
        path = write_config(tmp_path / "c.json", **{"run.seed": -4})
        with pytest.raises(ConfigError, match="run.seed"):
            parse_config_file(path)


class TestRunExperiment:
    def test_writes_csv_and_manifest(self, tmp_path):
        path = write_config(tmp_path / "demo.json")
        manifest = run_experiment(path, tmp_path)
        csv_path = tmp_path / "demo.trajectory.csv"
        assert csv_path.exists()
        assert (tmp_path / "demo.manifest.json").exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        data_rows = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data_rows) == 13  # horizon + 1
        assert manifest.config["run.seed"] == 7

    def test_reruns_are_byte_identical(self, tmp_path):
        path = write_config(tmp_path / "demo.json")
        run_experiment(path, tmp_path / "a")
        run_experiment(path, tmp_path / "b")
        assert ((tmp_path / "a" / "demo.trajectory.csv").read_bytes()
                == (tmp_path / "b" / "demo.trajectory.csv").read_bytes())

    def test_manifest_does_not_depend_on_where_out_sits(self, tmp_path, capsys):
        path = write_config(tmp_path / "demo.json")
        manifests = []
        for out in (tmp_path / "a", tmp_path / "b" / "deeper"):
            assert main(["run", str(path), "--out", str(out)]) == 0
            assert capsys.readouterr().out == f"{out / 'demo.trajectory.csv'}\n"
            manifests.append(json.loads((out / "demo.manifest.json").read_text()))
        first, second = manifests
        assert first["outputs"] == second["outputs"] == ["demo.trajectory.csv"]
        assert first["notes"] == second["notes"] == {"points": 13, "overflow": False}

    def test_infinite_ratio_serializes_as_inf(self, tmp_path):
        # aligned start in population mode keeps b = 0, so r = inf
        path = write_config(tmp_path / "aligned.json",
                            **{"run.mode": "population", "loss.rule": "conj",
                               "loss.family": "square",
                               "init.w": [0.6567, 0.7542], "run.horizon": 3})
        run_experiment(path, tmp_path)
        body = (tmp_path / "aligned.trajectory.csv").read_text()
        data = [l for l in body.splitlines() if not l.startswith(("t,", "#"))]
        assert all(row.split(",")[3] == "inf" for row in data)

    def test_metadata_block_carries_the_config(self, tmp_path):
        path = write_config(tmp_path / "demo.json")
        run_experiment(path, tmp_path)
        _, _, meta = read_csv_with_meta(tmp_path / "demo.trajectory.csv")
        assert meta["model.sigma"] == 0.78
        assert meta["loss.family"] == "exp"
        assert meta["overflow"] is False
        assert meta["prng"] == "numpy-pcg64-seedsequence"


@pytest.mark.parametrize("value,text", [
    (True, "true"), (np.True_, "true"), (np.False_, "false"), (0.1, "0.1"),
    (np.float64(0.5), "0.5"), (math.inf, "inf"), (np.float64(-math.inf), "-inf"),
    (math.nan, "nan"), (-0.0, "-0.0"), (1e-320, "1e-320"), (7, "7"), ("conj+exp", "conj+exp"),
])
def test_csv_cell_text(value, text):
    assert format_value(value) == text


def test_every_zero_one_loss_goes_through_gauss_upper_tail(monkeypatch):
    calls = []

    def counted(u, _real=model.gauss_upper_tail):
        calls.append(np.size(u))
        return _real(u)

    monkeypatch.setattr(model, "gauss_upper_tail", counted)
    noisy = GaussianModel(mu=np.array([0.6, 0.8]), sigma=0.5)
    base = ExperimentConfig(model=noisy, loss=make_loss("conj", "exp"), eta=0.5,
                            mode=Mode.POPULATION, horizon=4, seed=0,
                            w_init=np.array([1.0, 0.0]), batch_size=8)
    assert 0.0 < zero_one_loss(noisy, [1.0, 0.0]) < 0.5
    assert calls == [1]
    run = run_population(base)
    assert calls == [1, 5] and not math.isnan(run.loss01[-1])
    step_size_sweep(replace(base, mode=Mode.STOCHASTIC), [base.loss], [0.1, 0.5], 2)
    assert calls == [1, 5, 5 * 2 * 2]  # one call on all 5 points x 2 seeds x 2 step sizes
    step_size_sweep(replace(base, mode=Mode.STOCHASTIC), [base.loss, make_loss("hard", "exp")],
                    [0.1, 0.5], 2)
    assert calls == [1, 5, 20, 5 * 2 * 2 * 2]  # and one scoring pass for both losses


class TestGridSearch:
    def base(self, horizon=60):
        return ExperimentConfig(
            model=GaussianModel(mu=np.array([1.0, 0.0]), sigma=0.0),
            loss=make_loss("conj", "square"), eta=1.0, mode=Mode.STOCHASTIC,
            horizon=horizon, seed=5, w_init=np.array([0.5, 1.0]), batch_size=4)

    def test_single_element_grid(self):
        [(best, rows)] = step_size_sweep(self.base(), [self.base().loss], [0.25], 1)
        assert best.eta == 0.25
        assert len(rows) == 1

    def test_overflowing_step_ranks_last(self):
        # eta = 100 on the conjugate square loss diverges; eta = 0.01 does not
        for grid, best_eta in (([100.0, 0.01], 0.01), ([100.0], 100.0)):
            base = self.base(horizon=400)
            [(best, rows)] = step_size_sweep(base, [base.loss], grid, 1)
            assert best.eta == best_eta
            by_eta = {r.eta: r for r in rows}
            assert by_eta[100.0].overflow and by_eta[100.0].mean_final_loss01 == math.inf
            assert all(not r.overflow for r in rows if r.eta != 100.0)

    def test_row_does_not_depend_on_the_rest_of_the_grid(self):
        base = self.base()
        base = ExperimentConfig(model=GaussianModel(mu=base.model.mu, sigma=0.8),
                                loss=make_loss("conj", "exp"), eta=1.0,
                                mode=Mode.STOCHASTIC, horizon=30, seed=5,
                                w_init=base.w_init, batch_size=4)
        [(_, alone)] = step_size_sweep(base, [base.loss], [0.5], 1)
        [(_, among)] = step_size_sweep(base, [base.loss], [0.05, 0.5, 1.0], 1)
        assert alone[0] == next(r for r in among if r.eta == 0.5)
        np.testing.assert_array_equal(alone[0].curve, among[1].curve)

    def test_population_rows_are_the_lone_run(self):
        # a population run reads no seed: three streams give three copies of it
        base = replace(self.base(horizon=200), mode=Mode.POPULATION,
                       model=GaussianModel(mu=np.array([1.0, 0.0]), sigma=0.6))
        [(best, rows)] = step_size_sweep(base, [base.loss], [0.05, 100.0], 3)
        assert best.eta == 0.05 and [r.n_overflow for r in rows] == [0, 3]
        lone = run_population(replace(base, eta=0.05))
        finals = [lone.loss01[-1]] * 3
        assert rows[0].mean_final_loss01 == float(np.mean(finals))
        assert rows[0].std_final_loss01 == float(np.std(finals, ddof=1))
        np.testing.assert_array_equal(rows[0].curve,
                                      np.mean([lone.loss01] * 3, axis=0))
        assert rows[1].mean_final_loss01 == math.inf and np.isnan(rows[1].curve).all()

    def test_population_losses_sweep_as_they_do_alone(self, monkeypatch):
        # one run per (loss, eta), not per stream; conj+square overflows at eta = 100
        runs = []

        def counted(config, _real=harness.run_population):
            runs.append((config.loss.name, config.eta))
            return _real(config)

        monkeypatch.setattr(harness, "run_population", counted)
        base = replace(self.base(horizon=200), mode=Mode.POPULATION,
                       model=GaussianModel(mu=np.array([1.0, 0.0]), sigma=0.6))
        losses = [make_loss("conj", "square"), make_loss("conj", "exp")]
        etas = [0.05, 0.5, 100.0]
        together = step_size_sweep(base, losses, etas, 3)
        assert len(runs) == 6
        assert together[0][1][-1].overflow
        for loss, (best, rows) in zip(losses, together):
            [(best_alone, rows_alone)] = step_size_sweep(base, [loss], etas, 3)
            assert best == best_alone and rows == rows_alone
            for row, alone in zip([best, *rows], [best_alone, *rows_alone]):
                assert np.array_equal(row.curve, alone.curve, equal_nan=True)
        assert len(runs) == 12

    @pytest.mark.parametrize("streams", [1, 3])
    def test_stream_k_is_seeded_with_derive_stream_seed_k(self, streams):
        base = replace(self.base(horizon=40),
                       model=GaussianModel(mu=np.array([1.0, 0.0]), sigma=0.8))
        etas = [0.05, 0.5, 1e4]
        [(_, rows)] = step_size_sweep(base, [base.loss], etas, streams)
        seeds = [derive_stream_seed(base.seed, k) for k in range(streams)]
        ab, stopped = dynamics.stochastic_sweep(base, [base.loss], etas, seeds)
        loss01 = model.ab_metrics(ab[:, 0, ..., 0], ab[:, 0, ..., 1], base.model)[2]
        for k, row in enumerate(rows):
            kept = [loss01[:, s, k] for s in range(streams) if not stopped[0, s, k]]
            finals = [curve[-1] for curve in kept]
            if len(kept) == streams:
                expected = [float(np.mean(finals)),
                            float(np.std(finals, ddof=1)) if streams > 1 else math.nan, 0]
            else:
                expected = [math.inf, math.nan, streams - len(kept)]
            curve = np.mean(kept, axis=0) if kept else np.full(base.horizon + 1, math.nan)
            np.testing.assert_array_equal(
                [row.mean_final_loss01, row.std_final_loss01, row.n_overflow], expected)
            np.testing.assert_array_equal(row.curve, curve)
        assert rows[-1].n_overflow == streams  # eta = 1e4 overflows on every stream

    def test_grid_command_rows_are_the_one_stream_sweep(self, tmp_path, capsys):
        path = write_config(tmp_path / "g.json", **{"run.horizon": 30})
        etas = [0.05, 0.5, 100.0]
        assert main(["grid", str(path), "--etas", ",".join(map(str, etas)),
                     "--out", str(tmp_path)]) == 0
        base = parse_config_file(path)
        [(best, rows)] = step_size_sweep(base, [base.loss], etas, 1)
        _, csv_rows, _ = read_csv_with_meta(tmp_path / "g.grid.csv")
        assert csv_rows == [[p.eta, p.mean_final_loss01, format_value(p.overflow)]
                            for p in rows]
        assert capsys.readouterr().out.splitlines()[-1] == f"best_eta = {best.eta}"

    def test_grid_order_does_not_matter(self):
        base = self.base()
        [(best_a, rows_a)] = step_size_sweep(base, [base.loss], [0.5, 0.05, 1.0], 1)
        [(best_b, rows_b)] = step_size_sweep(base, [base.loss], [1.0, 0.5, 0.05], 1)
        assert best_a.eta == best_b.eta
        assert rows_a == rows_b


class TestBenchmarkDomains:
    def test_operating_point_constants(self):
        for d in (2, 10, 100):
            _, mu_t, sigma_t, w_init = build_benchmark_domains(d, seed=3)
            model = GaussianModel(mu=mu_t, sigma=sigma_t)
            assert zero_one_loss(model, w_init) == pytest.approx(0.2, abs=1e-3)
            best = gauss_upper_tail(model.mu_norm / sigma_t)
            assert best == pytest.approx(0.1, abs=1e-3)

    def test_target_mean_is_unit_norm_with_fixed_first_coordinate(self):
        _, mu_t, _, _ = build_benchmark_domains(10, seed=1)
        assert float(np.linalg.norm(mu_t)) == pytest.approx(1.0, abs=1e-12)
        assert mu_t[0] == 0.6567

    def test_deterministic_per_seed(self):
        a = build_benchmark_domains(10, seed=4)[1]
        b = build_benchmark_domains(10, seed=4)[1]
        np.testing.assert_array_equal(a, b)
        c = build_benchmark_domains(10, seed=5)[1]
        assert not np.array_equal(a, c)

    def test_rejects_one_dimension(self):
        with pytest.raises(ValueError):
            build_benchmark_domains(1)


class TestFigurePresets:
    def test_fig1a_curves(self, tmp_path):
        result = reproduce_figure("fig1a", seed=0, d=10, horizon=200,
                                  out_dir=tmp_path)
        summary = result.summary
        assert summary["no-adaptation"]["final_loss01"] == pytest.approx(0.2, abs=1e-3)
        # conjugate labels reach the best achievable error; hard labels
        # plateau visibly above it
        conj = summary["conj+square"]["final_loss01"]
        hard = summary["hard+square"]["final_loss01"]
        assert conj == pytest.approx(summary["best_error"], abs=2e-3)
        assert hard - conj >= 0.02
        assert len(result.csv_paths) == 3
        assert result.svg_path.exists()

    def test_fig1b_large_step_overflows_but_keeps_direction(self, tmp_path):
        result = reproduce_figure("fig1b", seed=0, d=10, horizon=200,
                                  out_dir=tmp_path)
        assert result.summary["conj+square"]["overflow"]
        assert result.summary["conj+square"]["final_loss01"] == pytest.approx(
            result.summary["best_error"], abs=2e-3)

    def test_fig2_outputs(self, tmp_path):
        result = reproduce_figure("fig2", out_dir=tmp_path)
        cols, rows, _ = read_csv_with_meta(result.csv_paths[0])
        assert cols[0] == "u" and len(cols) == 5
        by_col = {c: [row[i] for row in rows] for i, c in enumerate(cols)}
        # spot value: sech(0) = 1 for the conjugate exponential loss
        mid = by_col["u"].index(0.0)
        assert by_col["conj_exp"][mid] == 1.0

    def test_fig3_hard_exp_column_is_one(self, tmp_path):
        result = reproduce_figure("fig3", out_dir=tmp_path)
        cols, rows, _ = read_csv_with_meta(result.csv_paths[0])
        idx = cols.index("hard_exp")
        assert all(abs(row[idx] - 1.0) <= 1e-12 for row in rows)

    def test_fig3_names_a_loss_whose_tail_points_are_skipped(self):
        # -psi' of this loss is 0 from z = 5 on, inside the fig3 grid (0.05 to 10)
        grid = presets._FIGURES["fig3"][0].keywords["grid"]
        base = make_loss("conj", "exp")
        cut = replace(base, dpsi=lambda z: np.where(z < 5.0, base.dpsi(z), 0.0))
        assert presets._tail_rate(base, grid).size == grid.size
        with pytest.raises(RuntimeError, match=r"^unexpected skipped tail points for conj\+exp$"):
            presets._tail_rate(cut, grid)

    def test_fig4_grid_is_the_eleven_point_grid(self, tmp_path):
        # tiny horizon keeps this a wiring test, not a statistics test
        result = reproduce_figure("fig4-exp", seed=0, d=4, batch=4, horizon=3,
                                  out_dir=tmp_path)
        cols, rows, _ = read_csv_with_meta(result.csv_paths[0])
        etas = sorted({row[cols.index("eta")] for row in rows})
        assert etas == [1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 10.0,
                        50.0, 100.0]
        assert {row[cols.index("rule")] for row in rows} == {"hard", "conj"}
        curve_cols, curve_rows, meta = read_csv_with_meta(result.csv_paths[1])
        assert curve_cols[0] == "t"
        assert len(curve_rows) == 4  # horizon + 1

    def test_fig4_rules_are_two_single_loss_sweeps(self, tmp_path):
        # the preset sweeps [hard, conj] at once; each rule's summary entry, grid
        # rows and curve must be that rule's own sweep, so a swap cannot pass
        seed, d, batch, horizon = 2, 4, 8, 20
        result = reproduce_figure("fig4-exp", seed=seed, d=d, batch=batch, horizon=horizon,
                                  out_dir=tmp_path)
        _, mu, sigma, w_init = build_benchmark_domains(d, seed)
        base = ExperimentConfig(model=GaussianModel(mu=mu, sigma=sigma),
                                loss=make_loss("hard", "exp"), eta=1.0, mode=Mode.STOCHASTIC,
                                horizon=horizon, seed=seed, w_init=w_init, batch_size=batch)
        cols, grid_rows, _ = read_csv_with_meta(tmp_path / "fig4-exp_grid.csv")
        curve_cols, curve_rows, _ = read_csv_with_meta(tmp_path / "fig4-exp_curves.csv")
        curves = dict(zip(curve_cols, np.array(curve_rows, dtype=float).T))
        expected_rows = []
        for rule in ("hard", "conj"):
            loss = make_loss(rule, "exp")
            [(best, rows)] = step_size_sweep(base, [loss], ETA_GRID, 10)
            np.testing.assert_array_equal(
                [result.summary[loss.name][key]
                 for key in ("best_eta", "mean_final_loss01", "std_final_loss01")],
                [best.eta, best.mean_final_loss01, best.std_final_loss01])
            np.testing.assert_array_equal(curves[f"{rule}_exp_mean_loss01"], best.curve)
            expected_rows += [[rule, p.eta, p.mean_final_loss01, p.std_final_loss01,
                               p.n_overflow] for p in rows]
        assert [row[0] for row in grid_rows] == [row[0] for row in expected_rows]
        np.testing.assert_array_equal([row[1:] for row in grid_rows],
                                      [row[1:] for row in expected_rows])

    def test_unknown_figure_id(self, tmp_path):
        with pytest.raises(ValueError, match="unknown figure id"):
            reproduce_figure("fig9", out_dir=tmp_path)
        with pytest.raises(ValueError, match="unknown figure id"):
            render_figure_svg("fig9", tmp_path)
        assert not any(tmp_path.iterdir())

    def test_fig4_csvs_record_their_config(self, tmp_path):
        result = reproduce_figure("fig4-logistic", seed=1, d=6, batch=16,
                                  horizon=3, out_dir=tmp_path)
        cols, rows, meta = read_csv_with_meta(tmp_path / "fig4-logistic_grid.csv")
        assert meta["model.dim"] == 6 and len(meta["model.mu"]) == 6
        assert meta["run.batch"] == 16 and meta["run.horizon"] == 3
        assert meta["run.seed"] == 1 and meta["loss.family"] == "logistic"
        assert meta["seeds"] == 10
        # the rows vary the rule and the step size, so the block names neither
        assert "loss.rule" not in meta and "run.eta" not in meta
        assert {row[cols.index("rule")] for row in rows} == {"hard", "conj"}
        _, _, curves_meta = read_csv_with_meta(result.csv_paths[1])
        assert {k: curves_meta[k] for k in meta if k not in ("seeds", "figure")} == {
            k: meta[k] for k in meta if k not in ("seeds", "figure")}

    @pytest.mark.parametrize("fig_id", FIGURE_IDS)
    def test_svg_regenerates_from_csv_alone(self, tmp_path, fig_id):
        small = {"d": 4, "batch": 4, "horizon": 3}
        inputs = {k: small[k] for k in FIGURE_INPUTS[fig_id]}
        result = reproduce_figure(fig_id, **inputs, out_dir=tmp_path)
        first = result.svg_path.read_bytes()
        regenerated = render_figure_svg(fig_id, tmp_path).read_bytes()
        assert first == regenerated

    @pytest.mark.parametrize("fig_id,name,value", UNREAD_INPUTS,
                             ids=[f"{fig}-{name}" for fig, name, _ in UNREAD_INPUTS])
    def test_rejects_an_input_it_does_not_read(self, tmp_path, fig_id, name, value):
        with pytest.raises(ValueError) as err:
            reproduce_figure(fig_id, **{name: value}, out_dir=tmp_path / "out")
        assert str(err.value) == f"{name} = {value} is not an input of {fig_id}"
        assert not (tmp_path / "out").exists()

    def test_an_unread_input_at_its_default_is_accepted(self, tmp_path):
        result = reproduce_figure("fig2", seed=3, d=10, batch=32, horizon=None,
                                  out_dir=tmp_path)
        assert result.svg_path.exists()

    def test_fig1_legend_labels_are_its_summary_keys(self, tmp_path):
        result = reproduce_figure("fig1a", d=4, horizon=3, out_dir=tmp_path)
        # legend labels are the chart's only 12-px text
        legend = [el.text for el in ET.parse(result.svg_path).getroot()
                  if el.tag.endswith("text") and el.get("font-size") == "12"]
        assert legend == ["hard+square", "conj+square", "no-adaptation"]
        assert set(legend) == set(result.summary) - {"best_error"}

    @pytest.mark.parametrize("fig_id", FIGURE_IDS)
    def test_best_achievable_line_iff_a_csv_has_best_error(self, tmp_path, fig_id):
        small = {"d": 4, "batch": 4, "horizon": 3}
        inputs = {k: small[k] for k in FIGURE_INPUTS[fig_id]}
        result = reproduce_figure(fig_id, **inputs, out_dir=tmp_path)
        has_best = any("best_error" in read_csv_with_meta(p)[2] for p in result.csv_paths)
        children = list(ET.parse(result.svg_path).getroot())
        # each dashed line is followed by the text that labels it
        dashed = [label.text for line, label in zip(children, children[1:])
                  if line.get("stroke-dasharray")]
        assert dashed == (["best achievable"] if fig_id.startswith("fig4") else [])
        assert bool(dashed) == has_best

    def test_svg_is_wellformed_xml(self, tmp_path):
        result = reproduce_figure("fig2", out_dir=tmp_path)
        root = ET.fromstring(result.svg_path.read_text())
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("polyline") for child in root.iter())


class TestCliExitCodes:
    def test_run_success(self, tmp_path, capsys):
        path = write_config(tmp_path / "ok.json")
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        assert "ok.trajectory.csv" in capsys.readouterr().out

    def test_validation_error_is_one(self, tmp_path, capsys):
        path = write_config(tmp_path / "bad.json", **{"run.eta": 0})
        assert main(["run", str(path)]) == 1
        assert "eta must be positive" in capsys.readouterr().err

    def test_missing_file_is_one(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 1

    def test_unsupported_mode_is_two(self, tmp_path, capsys):
        path = write_config(tmp_path / "u.json",
                            **{"run.mode": "population", "loss.rule": "hard"})
        assert main(["run", str(path)]) == 2
        assert "distributional psi''" in capsys.readouterr().err

    def test_club_command_all_four(self, capsys):
        assert main(["club"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for line in lines if line == "passed = True") == 4

    def test_club_command_single_loss(self, capsys):
        assert main(["club", "--loss", "hard:exp"]) == 0
        out = capsys.readouterr().out
        assert "rule = hard" in out and "family = exp" in out

    def test_club_rejects_uncertified_loss(self, capsys):
        assert main(["club", "--loss", "conj:square"]) == 1

    def test_recursion_command(self, capsys):
        assert main(["recursion", "--c", "1", "--L", "1", "--r1", "1",
                     "--T", "2000"]) == 0
        out = capsys.readouterr().out
        assert "bound_holds = True" in out

    def test_recursion_command_past_the_float_range_of_c_t(self, capsys):
        # c (t - 1) overflows at t = 3; the bound still holds there
        assert main(["recursion", "--c", "1e308", "--L", "0.001", "--r1", "1",
                     "--T", "10"]) == 0
        out = capsys.readouterr().out
        assert "bound_holds = True" in out and "first_violation_t = None" in out

    def test_stein_command(self, capsys):
        assert main(["stein", "--loss", "conj:exp", "--m", "1", "--s", "1",
                     "--n", "50000", "--seed", "3"]) == 0
        assert "passed = True" in capsys.readouterr().out

    def test_grid_command(self, tmp_path, capsys):
        path = write_config(tmp_path / "g.json", **{"run.horizon": 30})
        assert main(["grid", str(path), "--etas", "0.05,0.5",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "best_eta" in out
        cols, rows, meta = read_csv_with_meta(tmp_path / "g.grid.csv")
        assert cols == ["eta", "final_loss01", "overflow"]
        assert [row[0] for row in rows] == [0.05, 0.5]
        assert {row[2] for row in rows} == {"false"}
        assert meta["run.seed"] == 7 and meta["loss.family"] == "exp"
        assert meta["prng"] == "numpy-pcg64-seedsequence"

    @pytest.mark.parametrize("command", [["run"], ["grid", "--etas", "0.1"]],
                             ids=["run", "grid"])
    def test_integer_too_large_for_a_float_is_one(self, tmp_path, capsys, command):
        path = write_config(tmp_path / "huge.json", **{"model.sigma": 10**400})
        assert main([command[0], str(path), *command[1:], "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: model.sigma: is an integer too large for a float\n")

    def test_grid_command_names_a_bad_eta(self, tmp_path, capsys):
        path = write_config(tmp_path / "g.json", **{"run.horizon": 30})
        assert main(["grid", str(path), "--etas", "0.1,abc", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: --etas: could not convert string to float: 'abc'\n"
        assert not (tmp_path / "g.grid.csv").exists()

    def test_a_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["recursion", "--c", "1", "--L", "1", "--r1", "1", "--T", "1e3"])
        assert exc.value.code == 2
        assert "invalid int value: '1e3'" in capsys.readouterr().err

    def test_grid_command_on_a_population_config(self, tmp_path, capsys):
        path = write_config(tmp_path / "p.json", **{"run.mode": "population",
                                                    "run.horizon": 20, "run.batch": None})
        assert main(["grid", str(path), "--etas", "0.05,0.5", "--out", str(tmp_path)]) == 0
        cols, rows, meta = read_csv_with_meta(tmp_path / "p.grid.csv")
        assert [row[0] for row in rows] == [0.05, 0.5]
        assert {row[2] for row in rows} == {"false"}
        assert meta["run.mode"] == "population"

    def test_figure_command(self, tmp_path, capsys):
        assert main(["figure", "fig2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig2.svg").exists()

    def test_figure_option_the_figure_does_not_read_is_one(self, tmp_path, capsys):
        assert main(["figure", "fig1a", "--batch", "64", "--out", str(tmp_path)]) == 1
        assert "batch = 64 is not an input of fig1a" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("fig_id", ["fig1a", "fig2", "fig3"])
    def test_figure_negative_seed_is_one_and_writes_nothing(self, tmp_path, capsys, fig_id):
        # fig2 and fig3 read no seed, fig1a only after its output directory exists
        out = tmp_path / "out"
        assert main(["figure", fig_id, "--seed", "-1", "--out", str(out)]) == 1
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fig_id,option,value,message", [
        ("fig1a", "--horizon", "0", "horizon must be >= 1"),
        ("fig4-exp", "--dim", "1", "d must be >= 2"),
        ("fig4-exp", "--batch", "0", "batch must be >= 1"),
    ], ids=["fig1a-horizon", "fig4-exp-dim", "fig4-exp-batch"])
    def test_figure_bad_read_input_is_one_and_writes_nothing(self, tmp_path, capsys, fig_id,
                                                             option, value, message):
        # each is checked by the emitter's own rule before the output directory exists
        out = tmp_path / "out"
        assert main(["figure", fig_id, option, value, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_figure_defaults_are_reproduce_figures(self, tmp_path, monkeypatch, capsys):
        written = {}
        for name, make in (("cli", lambda: main(["figure", "fig1a"])),
                           ("api", lambda: reproduce_figure("fig1a"))):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            make()
            written[name] = {p.name: p.read_bytes()
                             for p in (tmp_path / name / "figures").iterdir()}
        assert len(written["cli"]) == 4
        assert written["cli"] == written["api"]
