"""Stochastic and population update rules, scalar dynamics, closed forms."""

import dataclasses
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttalab import (
    ETA_GRID,
    ExperimentConfig,
    GaussianModel,
    Mode,
    TrajectoryPoint,
    UnsupportedLossError,
    all_losses,
    build_benchmark_domains,
    conj_square_ratio_closed_form,
    epsilon_iteration_bound,
    expectation_terms,
    gd_step,
    is_epsilon_optimal,
    log_rate_check,
    make_loss,
    population_step,
    reproduce_figure,
    run_population,
    run_stochastic,
    stein_identity_check,
)
from ttalab import dynamics
from ttalab.dynamics import _UNIT, _gaussian_expectations, _window, stochastic_sweep
from ttalab.model import ab_metrics, sample_batch, split_ab
from ttalab.serialize import (TRAJECTORY_HEADER, config_flat, csv_with_meta_text,
                              read_csv_with_meta, trajectory_csv_text)

from test_losses import self_loss_gradient


def config_from_ab(a1, b1, model, loss, eta, mode, horizon, seed=0, batch_size=32):
    """w with a prescribed decomposition: (a1/||mu||) along mu-hat, b1 on e2."""
    assert abs(model.mu[1]) < 1e-15 and model.mu[0] > 0, "needs axis-aligned mu"
    w = np.zeros(model.d)
    w[0] = a1 / model.mu_norm
    w[1] = b1
    return ExperimentConfig(model=model, loss=loss, eta=eta, mode=mode,
                            horizon=horizon, seed=seed, w_init=w,
                            batch_size=batch_size)


def axis_model(mu_norm, sigma, d=3):
    mu = np.zeros(d)
    mu[0] = mu_norm
    return GaussianModel(mu=mu, sigma=sigma)


class TestGdStep:
    def test_hard_square_noiseless_step_lands_on_the_fixed_point(self):
        # a_bar' = (1 - eta) a_bar + eta sign(a_bar) = 1 for eta = 1
        model = axis_model(1.0, 0.0, d=2)
        loss = make_loss("hard", "square")
        w = np.array([0.5, 0.7])
        w2 = gd_step(w, model.mu[None, :], loss, eta=1.0)
        assert w2[0] == pytest.approx(1.0, abs=1e-15)
        assert w2[1] == 0.7

    def test_zero_step_size_is_identity(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(4)
        batch = rng.standard_normal((5, 4))
        for loss_name in (("hard", "exp"), ("conj", "logistic")):
            w2 = gd_step(w, batch, make_loss(*loss_name), eta=1e-300)
            np.testing.assert_allclose(w2, w, rtol=0, atol=1e-290)

    def test_conj_square_single_sample(self):
        # gradient of -(w.x)^2/2 is -(w.x) x, so the step adds eta (w.x) x
        loss = make_loss("conj", "square")
        rng = np.random.default_rng(1)
        w, x = rng.standard_normal(3), rng.standard_normal(3)
        w2 = gd_step(w, x[None, :], loss, eta=0.3)
        np.testing.assert_allclose(w2, w + 0.3 * float(w @ x) * x, rtol=1e-14)

    def test_batch_mean_not_sum(self):
        loss = make_loss("conj", "square")
        w = np.array([1.0, 0.0])
        x = np.array([1.0, 1.0])
        one = gd_step(w, x[None, :], loss, 0.1)
        four = gd_step(w, np.tile(x, (4, 1)), loss, 0.1)
        np.testing.assert_allclose(one, four, rtol=1e-15)

    def test_stacked_step_is_the_loop_of_single_steps(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 4, 5))
        xs = rng.standard_normal((3, 1, 8, 5))
        etas = np.array([0.01, 0.5, 5.0, 100.0])
        for loss in (make_loss("conj", "exp"), make_loss("hard", "logistic")):
            stacked = gd_step(w, xs, loss, etas[:, None])
            for s in range(3):
                for k in range(4):
                    assert (stacked[s, k] == gd_step(w[s, k], xs[s, 0], loss, etas[k])).all()

    @pytest.mark.parametrize("loss", all_losses(), ids=lambda loss: loss.name)
    def test_one_row_step_is_the_self_loss_gradient_step(self, loss):
        """On a one-row batch gd_step is w - eta * self_loss_gradient(loss, w, x),
        the oracle psi'(w^T x) x, bit for bit: 200 seeded cases of dimension 1
        to 6 and scales 1e-3 to 1e3."""
        rng = np.random.default_rng(17)
        for _ in range(200):
            d = int(rng.integers(1, 7))
            w = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
            x = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
            eta = 10.0 ** rng.uniform(-3, 2)
            want = w - eta * self_loss_gradient(loss, w, x)
            got = gd_step(w, x[None], loss, eta)
            assert got.tobytes() == want.tobytes(), (w, x, eta)

    def test_rejects_empty_and_mismatched(self):
        loss = make_loss("conj", "square")
        with pytest.raises(ValueError):
            gd_step(np.ones(2), np.empty((0, 2)), loss, 0.1)
        with pytest.raises(ValueError):
            gd_step(np.ones(2), np.ones((1, 3)), loss, 0.1)


class TestRunStochastic:
    def test_horizon_one_yields_two_points(self):
        config = config_from_ab(1.0, 1.0, axis_model(1.0, 0.5),
                                make_loss("conj", "exp"), 0.1,
                                Mode.STOCHASTIC, horizon=1)
        assert len(run_stochastic(config)) == 2

    def test_same_seed_same_trajectory(self):
        config = config_from_ab(1.0, 0.5, axis_model(1.0, 1.0),
                                make_loss("hard", "exp"), 0.2,
                                Mode.STOCHASTIC, horizon=40, seed=123)
        first, second = run_stochastic(config), run_stochastic(config)
        assert first.stop == second.stop == 0
        assert [c.tobytes() for c in first.columns] == [c.tobytes() for c in second.columns]

    def test_points_are_pre_update(self):
        config = config_from_ab(2.0, 1.0, axis_model(1.0, 0.5),
                                make_loss("conj", "logistic"), 0.1,
                                Mode.STOCHASTIC, horizon=5)
        run = run_stochastic(config)
        assert len(run) == 6  # w_1, ..., w_5 before their updates, then w_6
        assert run.a[0] == pytest.approx(2.0, rel=1e-14)

    def test_conj_square_alternating_aligns(self):
        """On the noiseless +-mu stream the conjugate square loss drives
        cos to 1 monotonically and the noiseless 0-1 loss is 0 throughout."""
        model = axis_model(1.0, 0.0)
        config = config_from_ab(0.4, 1.0, model, make_loss("conj", "square"),
                                1.0, Mode.STOCHASTIC, horizon=40, batch_size=1)
        run = run_stochastic(config)
        cosines = run.cos.tolist()
        # strictly increasing until it saturates at 1.0 in float
        assert all(c2 > c1 or c1 == c2 == 1.0
                   for c1, c2 in zip(cosines, cosines[1:]))
        assert sum(c2 > c1 for c1, c2 in zip(cosines, cosines[1:])) >= 25
        assert cosines[-1] > 0.999999
        assert (run.loss01 == 0.0).all()

    def test_hard_square_alternating_plateaus_below_one(self):
        """The hard square loss freezes the orthogonal component, so cos
        plateaus at 1/sqrt(1 + b1^2) < 1 instead of reaching alignment."""
        model = axis_model(1.0, 0.0)
        b1 = 0.8
        config = config_from_ab(0.4, b1, model, make_loss("hard", "square"),
                                1.0, Mode.STOCHASTIC, horizon=60, batch_size=1)
        run = run_stochastic(config)
        assert run.b == pytest.approx(b1, rel=1e-14)
        limit = 1.0 / math.sqrt(1.0 + b1**2)
        assert run.cos[-1] == pytest.approx(limit, abs=1e-9)
        assert (run.cos <= limit + 1e-12).all()

    def test_overflow_flags_and_stops(self):
        config = config_from_ab(1.0, 1.0, axis_model(1.0, 1.0),
                                make_loss("conj", "square"), 100.0,
                                Mode.STOCHASTIC, horizon=10_000, seed=3)
        run = run_stochastic(config)
        assert 0 < run.stop == len(run) - 1 < 10_000
        assert abs(run.cos[-1]) <= 1.0

    def test_zero_iterate_ends_with_a_flag(self):
        # hard square, eta = 2 on +mu from w = 2 mu: w - 2 (2 - 1) mu = 0
        model = GaussianModel(mu=np.array([1.0, 0.0]), sigma=0.0)
        config = ExperimentConfig(model=model, loss=make_loss("hard", "square"),
                                  eta=2.0, mode=Mode.STOCHASTIC, horizon=5, seed=0,
                                  w_init=np.array([2.0, 0.0]), batch_size=1)
        run = run_stochastic(config)
        assert len(run) == 2 and run.stop == 1
        assert run.a[-1] == 0.0 and run.b[-1] == 0.0
        assert math.isnan(run.cos[-1]) and math.isnan(run.loss01[-1])

    @pytest.mark.parametrize("mode", list(Mode))
    def test_zero_iterate_ends_with_a_flag_in_both_modes(self, mode):
        # noiseless hard square, eta = 2 from w = 2 mu: a = 2 - 2 (2 - 1) = 0
        model = GaussianModel(mu=np.array([1.0, 0.0]), sigma=0.0)
        config = ExperimentConfig(model=model, loss=make_loss("hard", "square"),
                                  eta=2.0, mode=mode, horizon=4, seed=0,
                                  w_init=np.array([2.0, 0.0]))
        run = (run_population if mode is Mode.POPULATION else run_stochastic)(config)
        assert len(run) == 2 and run.stop == 1
        assert run.a[-1] == 0.0 and run.b[-1] == 0.0
        assert math.isnan(run.r[-1]) and math.isnan(run.cos[-1]) and math.isnan(run.loss01[-1])

    @pytest.mark.parametrize("source", ["population", "stochastic", "trajectory"])
    @pytest.mark.parametrize("stops", [False, True])
    def test_every_row_is_a_whole_trajectory_point(self, source, stops):
        """A record builds its rows when they are read: each row must be a
        seven-field TrajectoryPoint equal to one built from its fields, flagged
        on the last row only, and there only when the run stopped."""
        model = axis_model(1.0, 1.0)
        if source == "trajectory":
            ab = [(1.0 + t, 0.5) for t in range(6)]
            points = dynamics.trajectory(ab, model, stop=3 if stops else 0)
            assert len(points) == (4 if stops else 6)
        else:
            # conj+square at eta = 100 about doubles a every step and overflows
            loss = make_loss("conj", "square" if stops else "exp")
            config = config_from_ab(1.0, 1.0, model, loss, 100.0 if stops else 0.5,
                                    Mode(source), horizon=1000 if stops else 20, seed=3)
            points = (run_population if source == "population" else run_stochastic)(config)
        assert [p.t for p in points] == list(range(1, len(points) + 1))
        assert points.stop == (len(points) - 1 if stops else 0)
        for i, p in enumerate(points):
            assert type(p) is TrajectoryPoint and len(p) == len(TrajectoryPoint._fields)
            assert p == TrajectoryPoint(*p)
            assert p.overflow is (stops and i == len(points) - 1)


def row_oracle(ab, model, stop=0):
    """The rows a run returned as a list of TrajectoryPoint, as it was built
    before runs returned column records: the oracle for a record's rows."""
    a, b = np.array(ab[:stop + 1] if stop else ab, dtype=float).T
    columns = (a.tolist(), b.tolist(), *(m.tolist() for m in ab_metrics(a, b, model)))
    points = list(map(tuple.__new__, itertools.repeat(TrajectoryPoint),
                      zip(itertools.count(1), *columns, itertools.repeat(False))))
    if stop:
        points[-1] = points[-1]._replace(overflow=True)
    return points


def row_csv_text(points, meta):
    """trajectory_csv_text as it was written from such a row list."""
    meta = {**meta, "overflow": any(p.overflow for p in points)}
    return csv_with_meta_text(TRAJECTORY_HEADER, [p[:6] for p in points], meta)


def population_ab(config):
    """(the (a, b) of every point, stop) of a population run, one
    population_step at a time under the runners' stop rule."""
    a, b = split_ab(config.w_init, config.model)
    ab = [(a, b)]
    for t in range(1, config.horizon + 1):
        a, b, _ = population_step(a, b, config.loss, config.model, config.eta)
        ab.append((a, b))
        if (not (math.isfinite(a) and math.isfinite(b))
                or max(abs(a), b) > dynamics.OVERFLOW_LIMIT or a == b == 0.0):
            return ab, t
    return ab, 0


def row_bits(p):
    """A row's fields with every float as its .hex(), and their types."""
    return ([v.hex() if isinstance(v, float) else v for v in p], [type(v) for v in p])


class TestTrajectoryRecord:
    """A run returns one record of columns that reads as the row list runs
    used to return: same rows, same bits, same CSV text."""

    @staticmethod
    def run_and_oracle(mode, stops):
        # conj+square at eta = 100 about doubles a every step and overflows
        loss = make_loss("conj", "square" if stops else "exp")
        config = config_from_ab(1.0, 1.0, axis_model(1.0, 1.0), loss, 100.0 if stops else 0.5,
                                mode, horizon=1000 if stops else 30, seed=3)
        if mode is Mode.POPULATION:
            run = run_population(config)
            ab, stop = population_ab(config)
        else:
            run = run_stochastic(config)
            swept, stopped = stochastic_sweep(config, [loss], [config.eta], [config.seed])
            ab, stop = swept[:, 0, 0, 0], int(stopped[0, 0, 0])
        return config, run, row_oracle(ab, config.model, stop)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("stops", [False, True])
    def test_rows_are_the_row_oracle_s_bit_for_bit(self, mode, stops):
        config, run, rows = self.run_and_oracle(mode, stops)
        assert (run.stop > 0) is stops and len(run) == len(rows)
        assert [row_bits(p) for p in run] == [row_bits(q) for q in rows]
        meta = config_flat(config)
        assert trajectory_csv_text(run, meta) == row_csv_text(rows, meta)

    @pytest.mark.parametrize("stops", [False, True])
    def test_indexing_and_iteration_read_as_the_list(self, stops):
        """ttabench's reads of a run: len, run[0], run[-1] and iteration give the
        row list's rows; past either end is an IndexError, and a slice or a float
        index a TypeError."""
        _, run, rows = self.run_and_oracle(Mode.POPULATION, stops)
        n = len(rows)
        assert len(run) == n and bool(run) and run.stop == (n - 1 if stops else 0)
        for i in (0, 1, n - 1, -1, -n):
            assert row_bits(run[i]) == row_bits(rows[i])
        assert run[-1].overflow is stops and run[0].overflow is False
        assert [row_bits(p) for p in run] == [row_bits(q) for q in rows]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                run[i]
        for index in (slice(None), slice(1, 4), 1.0):
            with pytest.raises(TypeError):
                run[index]

    def test_columns_are_read_only_float64(self):
        _, run, _ = self.run_and_oracle(Mode.STOCHASTIC, False)
        for column in run.columns:
            assert column.dtype == np.float64 and column.shape == (len(run),)
            with pytest.raises(ValueError):
                column[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.stop = 3

    def test_a_long_population_run_holds_its_columns_only(self):
        # 10^4 points held about 2.9 MB as TrajectoryPoint rows; as five
        # float64 columns 0.4 MB, plus the quadrature window cache
        _, mu, sigma, w_init = build_benchmark_domains(10, 0)
        config = ExperimentConfig(model=GaussianModel(mu=mu, sigma=sigma),
                                  loss=make_loss("conj", "exp"), eta=0.5,
                                  mode=Mode.POPULATION, horizon=10**4, seed=0, w_init=w_init)
        tracemalloc.start()
        try:
            run = run_population(config)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(run) == 10**4 + 1 and run.stop == 0
        assert held < 1.5 * 2**20


def fig4_base(rule, family="exp", horizon=60):
    """The fig4 shape: d = 10, batch 32, the benchmark target domain."""
    _, mu, sigma, w_init = build_benchmark_domains(10, 0)
    return ExperimentConfig(model=GaussianModel(mu=mu, sigma=sigma),
                            loss=make_loss(rule, family), eta=1.0, mode=Mode.STOCHASTIC,
                            horizon=horizon, seed=0, w_init=w_init, batch_size=32)


def assert_columns_are_lone_runs(base, losses, etas, seeds):
    """Each (loss, stream, eta) column of a sweep equals its lone run_stochastic
    run, point for point, is NaN after the run's last point, and records the
    step the lone run stopped at (0 when it ran to the horizon)."""
    ab, stopped = stochastic_sweep(base, losses, etas, seeds)
    assert ab.shape[1:] == (len(losses), len(seeds), len(etas), 2)
    assert stopped.shape == (len(losses), len(seeds), len(etas))
    lengths = {}
    for r, loss in enumerate(losses):
        loss01 = ab_metrics(ab[:, r, ..., 0], ab[:, r, ..., 1], base.model)[2]
        for s, seed in enumerate(seeds):
            for k, eta in enumerate(etas):
                run = run_stochastic(replace(base, loss=loss, eta=eta, seed=seed))
                n = lengths[r, s, k] = len(run)
                np.testing.assert_array_equal(loss01[:n, s, k], run.loss01)
                np.testing.assert_array_equal(ab[:n, r, s, k], np.column_stack((run.a, run.b)))
                assert np.isnan(ab[n:, r, s, k]).all()
                assert stopped[r, s, k] == run.stop == (n - 1 if run.stop else 0)
    return lengths, stopped


class TestStochasticSweep:
    @pytest.mark.parametrize("rules", [["hard"], ["conj"], ["hard", "conj"]],
                             ids=["hard", "conj", "hard+conj"])
    def test_every_column_is_its_lone_run(self, rules):
        losses = [make_loss(rule, "exp") for rule in rules]
        assert_columns_are_lone_runs(fig4_base("hard"), losses, ETA_GRID, [11, 12, 13])

    def test_overflowing_column_stops_where_the_lone_run_does(self):
        base = fig4_base("conj", "square", horizon=200)
        losses = [make_loss("hard", "square"), make_loss("conj", "square")]
        lengths, stopped = assert_columns_are_lone_runs(base, losses, [0.01, 100.0], [0, 1, 2])
        assert stopped[..., 1].all() and all(lengths[r, s, 1] < 201
                                             for r in range(2) for s in range(3))
        assert not stopped[..., 0].any() and all(lengths[r, s, 0] == 201
                                                 for r in range(2) for s in range(3))
        # at eta = 100 one rule's column stops while the other rule's goes on
        assert stopped[0, :, 1].tolist() != stopped[1, :, 1].tolist()

    def test_a_stopped_column_adds_no_warnings(self):
        # eta = 1e308 overflows to inf on the first step, with warnings
        base = fig4_base("conj", "square", horizon=50)
        with warnings.catch_warnings(record=True) as lone:
            warnings.simplefilter("always")
            run_stochastic(replace(base, eta=1e308))
        with warnings.catch_warnings(record=True) as swept:
            warnings.simplefilter("always")
            ab, stopped = stochastic_sweep(base, [base.loss], [0.01, 1e308], [0, 1, 2])
        assert (stopped[0, :, 1] == 1).all() and np.isnan(ab[2:, 0, :, 1]).all()
        assert not stopped[0, :, 0].any()
        assert len(swept) == len(lone) > 0

    def test_a_stream_does_not_depend_on_the_others(self):
        base = fig4_base("conj", "logistic")
        ab, stopped = stochastic_sweep(base, [base.loss], ETA_GRID, [12])
        ab3, stopped3 = stochastic_sweep(base, [base.loss], ETA_GRID, [11, 12, 13])
        np.testing.assert_array_equal(ab[:, :, 0], ab3[:, :, 1])
        np.testing.assert_array_equal(stopped[:, 0], stopped3[:, 1])

    def test_a_loss_block_does_not_depend_on_the_others(self):
        base = fig4_base("conj", "logistic")
        hard = make_loss("hard", "logistic")
        ab, stopped = stochastic_sweep(base, [base.loss], ETA_GRID, [11, 12, 13])
        ab2, stopped2 = stochastic_sweep(base, [hard, base.loss], ETA_GRID, [11, 12, 13])
        np.testing.assert_array_equal(ab[:, 0], ab2[:, 1])
        np.testing.assert_array_equal(stopped[0], stopped2[1])


def alternating_oracle(config):
    """(a, b, stop) of config's sampled run on the alternating +-mu stream
    (+mu at odd t, one row per step), one gd_step at a time, stopped by
    stochastic_sweep's rule: a peak |component| that is NaN, past
    OVERFLOW_LIMIT or 0.0."""
    w, ws, stop = config.w_init, [config.w_init], 0
    for t in range(1, config.horizon + 1):
        x = config.model.mu if t % 2 == 1 else -config.model.mu
        w = gd_step(w, x[None, :], config.loss, config.eta)
        ws.append(w)
        if not 0.0 < np.abs(w).max() <= dynamics.OVERFLOW_LIMIT:
            stop = t
            break
    a, b = split_ab(np.array(ws), config.model)
    return a, b, stop


class TestFig1Stream:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("fig_id,eta", [("fig1a", 1.0), ("fig1b", 100.0)])
    def test_both_rules_are_the_alternating_stream_s_runs(self, tmp_path, fig_id, eta, seed):
        """fig1 runs on the noiseless domain's own batches; the a and b columns
        it writes and its stop are the alternating stream's, bit for bit."""
        reproduce_figure(fig_id, seed=seed, out_dir=tmp_path)
        _, mu, sigma, w_init = build_benchmark_domains(10, seed)
        stops = []
        for rule in ("hard", "conj"):
            config = ExperimentConfig(model=GaussianModel(mu=mu, sigma=sigma),
                                      loss=make_loss(rule, "square"), eta=eta,
                                      mode=Mode.STOCHASTIC, horizon=200, seed=seed,
                                      w_init=w_init, batch_size=1)
            cols, rows, meta = read_csv_with_meta(tmp_path / f"{fig_id}_{rule}_square.csv")
            columns = dict(zip(cols, np.array(rows).T))
            a, b, stop = alternating_oracle(config)
            assert meta["stream"] == "alternating-pm-mu"
            assert columns["a"].tobytes() == a.tobytes()
            assert columns["b"].tobytes() == b.tobytes()
            assert (len(rows) - 1 if meta["overflow"] else 0) == stop
            stops.append(stop)
        # fig1b's runs overflow, so the stop is compared too; fig1a's run to the horizon
        assert all(stops) == (fig_id == "fig1b") == any(stops)


class TestExpectationTerms:
    def test_conj_square_is_exact(self):
        # linear/constant integrands: e1 = -a, e2 = -1 for any (a, b, sigma)
        loss = make_loss("conj", "square")
        for sigma in (0.0, 0.5, 2.0):
            model = axis_model(1.3, sigma)
            for a, b in ((0.2, 0.0), (1.0, 1.0), (-3.0, 2.5), (1e149, 1e149)):
                assert expectation_terms(loss, a, b, model) == (-a, -1.0, 0.0)

    def test_noiseless_collapses_to_point_evaluation(self):
        loss = make_loss("conj", "exp")
        e1, e2, _ = expectation_terms(loss, 2.0, 5.0, axis_model(1.0, 0.0))
        assert e1 == pytest.approx(-math.tanh(2.0) / math.cosh(2.0), rel=1e-14)
        assert e2 == pytest.approx(float(loss.ddpsi(2.0)), rel=1e-14)

    def test_against_monte_carlo_oracle(self):
        loss = make_loss("conj", "logistic")
        model = axis_model(1.0, 1.0)
        a, b = 1.0, 1.0  # argument is N(1, 2)
        e1, e2, _ = expectation_terms(loss, a, b, model)
        rng = np.random.default_rng(2024)
        u = a + math.sqrt(a**2 + b**2) * rng.standard_normal(10**6)
        for estimate, samples in ((e1, loss.dpsi(u)), (e2, loss.ddpsi(u))):
            mc = float(np.mean(samples))
            se = float(np.std(samples, ddof=1)) / 1000.0
            assert abs(estimate - mc) <= 3 * se

    def test_hard_loss_rejected_when_noisy(self):
        model = axis_model(1.0, 0.7)
        for family in ("square", "logistic", "exp"):
            with pytest.raises(UnsupportedLossError):
                expectation_terms(make_loss("hard", family), 1.0, 1.0, model)
        # but fine in the noiseless domain
        e1, _, _ = expectation_terms(make_loss("hard", "exp"), 1.0, 1.0,
                                     axis_model(1.0, 0.0))
        assert e1 == pytest.approx(-math.exp(-1.0), rel=1e-14)


def _sech(u):
    return 0.0 if abs(u) > 700 else 1.0 / math.cosh(u)


# scalar (psi', psi'') written independently of ttalab.losses, for the oracle
ORACLE_DERIVATIVES = {
    "logistic": (lambda u: -u * _sech(u) ** 2,
                 lambda u: _sech(u) ** 2 * (2.0 * u * math.tanh(u) - 1.0)),
    "exp": (lambda u: -math.tanh(u) * _sech(u),
            lambda u: _sech(u) * (math.tanh(u) ** 2 - _sech(u) ** 2)),
}


def quad_oracle(family, m, s):
    """(E[psi'], E[psi'']) over N(m, s^2) by scipy.integrate.quad in z = (u - m)/s
    on [-15, 15], split where the margin u passes the integrands' features."""
    integrate = pytest.importorskip("scipy.integrate")
    cuts = [(u - m) / s for u in (-40, -20, -10, -5, -2, -1, 0, 1, 2, 5, 10, 20, 40)]
    z = sorted({-15.0, 15.0, *(c for c in cuts if -15.0 < c < 15.0)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad's own roundoff notes
        return [sum(integrate.quad(lambda t: g(m + s * t) * math.exp(-0.5 * t * t), lo, hi,
                                   epsabs=1e-300, epsrel=1e-14, limit=200)[0]
                    for lo, hi in zip(z, z[1:])) / math.sqrt(2.0 * math.pi)
                for g in ORACLE_DERIVATIVES[family]]


EVEN_MASK = (np.arange(641) % 2 == 0).astype(float)


def table_block(loss, u):
    """psi' and psi'' of the loss table on the 641 nodes u with halved end
    columns, then both rows with their odd columns zeroed: the kernel's
    (4, 1, 641) block."""
    rows = np.array((loss.dpsi(u), loss.ddpsi(u)))[:, None]
    rows[..., ::640] *= 0.5
    return np.concatenate((rows, np.where(EVEN_MASK, rows, 0.0)))


def four_dot_expectations(loss, m, s):
    """The quadrature as four 641-long dots on one weight vector with halved end
    weights (the formulation before the block kernel), refinement move included:
    the halved-grid sums are the masked dots (d * even) @ w."""
    lo, hi = m - 14.0 * s, m + 14.0 * s
    if max(lo, -36.0) < min(hi, 36.0):
        lo, hi = max(lo, -36.0), min(hi, 36.0)
    mid, offset = 0.5 * (lo + hi), (0.5 * (hi - lo)) * _UNIT
    z = (offset + (mid - m)) * (math.sqrt(0.5) / s)
    w = np.exp(z * -z)
    w[::640] *= 0.5
    scale = (hi - lo) / (640 * s * math.sqrt(2.0 * math.pi))
    fine, moved = [], 0.0
    for d in (loss.dpsi(mid + offset), loss.ddpsi(mid + offset)):
        fine.append(float(d @ w) * scale)
        move = abs(fine[-1] - 2.0 * scale * float((d * EVEN_MASK) @ w))
        if move > 1e-12 + 1e-9 * abs(fine[-1]):
            moved = max(moved, move)
    return fine[0], fine[1], moved


class TestQuadrature:
    @pytest.mark.parametrize("family", ["logistic", "exp"])
    def test_matches_the_quad_oracle(self, family):
        loss = make_loss("conj", family)
        for s in np.logspace(-3, 6, 10):
            top = 3.0 * max(s, 1.0)
            for m in np.linspace(-top, top, 7):
                e1, e2, moved = _gaussian_expectations(loss, m, s)
                np.testing.assert_allclose([e1, e2], quad_oracle(family, m, s),
                                           rtol=1e-12, atol=1e-15, err_msg=f"m={m}, s={s}")
                assert moved == 0.0

    @pytest.mark.parametrize("family", ["logistic", "exp"])
    def test_a_window_past_the_margin_cut_matches_the_oracle(self, family):
        # |m| > 14 s + 32: the Gaussian sits where psi' and psi'' are below 3e-14
        loss = make_loss("conj", family)
        for s in (1e-3, 0.1, 1.0, 5.0, 30.0):
            for m in (14 * s + 32.5, -(14 * s + 34.0), 14 * s + 36.5, -(14 * s + 40.0),
                      14 * s + 100.0):
                np.testing.assert_allclose(_gaussian_expectations(loss, m, s)[:2],
                                           quad_oracle(family, m, s),
                                           rtol=1e-12, atol=1e-15, err_msg=f"m={m}, s={s}")

    @pytest.mark.parametrize("family", ["logistic", "exp"])
    def test_a_window_wholly_past_the_cut_is_kept_whole(self, family):
        # for s <= 1 the uncut window holds the integrand's mass, so even these
        # values (below 1e-15) match to rtol alone
        loss = make_loss("conj", family)
        for s in (1e-3, 0.1, 1.0):
            for m in (14 * s + 36.5, -(14 * s + 40.0), 14 * s + 60.0):
                np.testing.assert_allclose(_gaussian_expectations(loss, m, s)[:2],
                                           quad_oracle(family, m, s),
                                           rtol=1e-12, atol=0.0, err_msg=f"m={m}, s={s}")

    @pytest.mark.parametrize("family", ["square", "logistic", "exp"])
    def test_zero_spread_is_the_point_evaluation(self, family):
        # a = b = 0 makes s = 0 at any sigma, as sigma = 0 does
        loss = make_loss("conj", family)
        got = expectation_terms(loss, 0.0, 0.0, axis_model(1.0, 0.7))
        assert got == expectation_terms(loss, 0.0, 0.0, axis_model(1.0, 0.0))
        assert got == (float(loss.dpsi(0.0)), float(loss.ddpsi(0.0)), 0.0)

    @pytest.mark.parametrize("family", ["logistic", "exp"])
    def test_cut_window_pair_is_the_fresh_pair(self, family):
        loss = make_loss("conj", family)
        mid, *stored = _window(loss, -36.0, 36.0)
        assert mid == 0.0
        fresh = (36.0 * _UNIT, table_block(loss, 0.0 + 36.0 * _UNIT))
        assert stored[1].shape == (4, 1, 641)
        for got, want in zip(stored, fresh, strict=True):
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0] = 1.0

    def test_a_custom_dpsi_is_read_on_every_window(self):
        # (0.5, 1) gives an uncut window, (0.5, 10) one cut on both sides
        base, model = make_loss("conj", "exp"), axis_model(1.0, 1.0, d=2)
        doubled = replace(base, dpsi=lambda u: 2.0 * base.dpsi(u))
        for b in (1.0, 10.0):
            e1, e2, _ = expectation_terms(base, 0.5, b, model)
            assert expectation_terms(doubled, 0.5, b, model)[:2] == (2.0 * e1, e2)

    @pytest.mark.parametrize("family", ["logistic", "exp"])
    @given(m=st.floats(-60.0, 60.0), spread=st.floats(1.001, 1e4))
    @settings(max_examples=50)
    def test_cut_window_cache_matches_a_recomputed_pair(self, family, m, spread):
        # s >= (36 + |m|) / 14 clips the window [m - 14 s, m + 14 s] on both sides
        loss = make_loss("conj", family)
        s = spread * (36.0 + abs(m)) / 14.0
        _gaussian_expectations(loss, m, s)
        hits = _window.cache_info().hits
        cached = _gaussian_expectations(loss, m, s)
        _window(loss, -36.0, 36.0)  # the window the call built is the cut one
        assert _window.cache_info().hits == hits + 2
        _window.cache_clear()
        fresh = _gaussian_expectations(loss, m, s)
        assert [x.hex() for x in cached] == [x.hex() for x in fresh]

    @pytest.mark.parametrize("family", ["logistic", "exp"])
    @given(log_s=st.floats(-6.0, 6.0), m=st.floats(-1e3, 1e3),
           edge=st.one_of(st.none(), st.floats(-10.0, 60.0)))
    @example(log_s=2.0, m=0.3, edge=None)  # cut on both sides
    @example(log_s=0.0, m=1.0, edge=20.0)  # cut on one side
    @example(log_s=-0.3, m=1.0, edge=None)  # not cut
    @example(log_s=0.0, m=-1.0, edge=50.0)  # wholly past the cut
    @settings(max_examples=200)
    def test_kernel_matches_the_four_dot_formulation(self, family, log_s, m, edge):
        # edge puts the window's near end at +-edge: cut on one side, or past the cut
        loss, s = make_loss("conj", family), 10.0**log_s
        if edge is not None:
            m = math.copysign(14.0 * s + edge, m)
        assert ([x.hex() for x in _gaussian_expectations(loss, m, s)]
                == [x.hex() for x in four_dot_expectations(loss, m, s)])

    @pytest.mark.parametrize("family", ["logistic", "exp"])
    def test_a_spread_lost_in_the_ulp_of_m_is_the_point_evaluation(self, family):
        # sigma = 1e-20: m +- 14 s rounds to m, and the window collapses
        loss, mu = make_loss("conj", family), np.array([1.0, 0.0])
        exact, tiny = (GaussianModel(mu=mu, sigma=sigma) for sigma in (0.0, 1e-20))
        np.testing.assert_allclose(expectation_terms(loss, 1.0, 0.5, tiny),
                                   expectation_terms(loss, 1.0, 0.5, exact), rtol=1e-15, atol=0)
        np.testing.assert_allclose(population_step(1.0, 0.5, loss, tiny, 0.5),
                                   population_step(1.0, 0.5, loss, exact, 0.5), rtol=1e-15, atol=0)
        # 14 s = 6e-17 at m = 1: m - 14 s rounds down to 1 - 2^-53, m + 14 s rounds to m
        one_side = GaussianModel(mu=mu, sigma=6e-17 / 14.0)
        assert 1.0 - 14.0 * one_side.sigma < 1.0 == 1.0 + 14.0 * one_side.sigma
        np.testing.assert_allclose(expectation_terms(loss, 1.0, 0.0, one_side),
                                   expectation_terms(loss, 1.0, 0.0, exact), rtol=1e-15, atol=0)

    def test_a_benchmark_shaped_run_raises_no_warning(self):
        _, mu, sigma, w_init = build_benchmark_domains(10, 0)
        model = GaussianModel(mu=mu, sigma=sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for family in ("square", "logistic", "exp"):
                for eta in (0.1, 0.5, 1.0, 5.0):
                    run_population(ExperimentConfig(
                        model=model, loss=make_loss("conj", family), eta=eta,
                        mode=Mode.POPULATION, horizon=2000, seed=0, w_init=w_init))


class TestPopulationStep:
    def test_conj_square_worked_example(self):
        # e1 = -1, e2 = -1 at (a, b) = (1, 1): a' = 3, b' = 2, r' = 1.5 r0
        a2, b2, _ = population_step(1.0, 1.0, make_loss("conj", "square"),
                                    axis_model(1.0, 1.0), eta=1.0)
        assert a2 == pytest.approx(3.0, rel=1e-13)
        assert b2 == pytest.approx(2.0, rel=1e-13)

    def test_alignment_is_preserved(self):
        for loss_id in (("conj", "square"), ("conj", "exp"), ("conj", "logistic")):
            a2, b2, _ = population_step(0.8, 0.0, make_loss(*loss_id),
                                        axis_model(1.0, 1.0), eta=0.5)
            assert b2 == 0.0

    @pytest.mark.parametrize("loss_id", [("hard", "exp"), ("hard", "logistic"),
                                         ("conj", "exp"), ("conj", "logistic")])
    def test_noiseless_increment_beats_exponential_floor(self, loss_id):
        """a' >= a + eta exp(-L a) ||mu||^2 whenever a >= a_min (sigma = 0).

        For the hard rules the bound concerns the one-sided limit at 0, where
        psi'(0) itself is pinned to 0 by the sign convention, so the single
        point a = 0 is excluded (as in the grid certificates).
        """
        loss = make_loss(*loss_id)
        model = axis_model(1.4, 0.0)
        eta = 0.7
        grid = np.linspace(loss.club.a_min, 30.0, 500)
        if not loss.smooth_second_derivative:
            grid = grid[grid > 0.0]
        for a in grid:
            a2, _, _ = population_step(float(a), 1.0, loss, model, eta)
            floor = a + eta * math.exp(-loss.club.L * a) * model.mu_norm**2
            assert a2 >= floor - 1e-12

    def test_small_step_moves_little(self):
        eta = 1e-8
        a2, b2, _ = population_step(1.0, 1.0, make_loss("conj", "exp"),
                                    axis_model(1.0, 1.0), eta)
        assert abs(a2 - 1.0) <= 10 * eta
        assert abs(b2 - 1.0) <= 10 * eta


def _update(a, b, e1, e2, model, eta):
    """The population update from the two expectations, as population_step
    applied it before the sigma = 0 step skipped psi'': the oracle below."""
    shrink = 1.0 - eta * model.sigma**2 * e2
    return shrink * a - eta * e1 * model.mu_norm**2, abs(shrink) * float(b)


class TestNoiselessStep:
    """At sigma = 0 population_step evaluates psi' only; its bits are those of
    the update through both expectations."""

    MARGINS = [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 3.0, -3.0, 36.0, -36.0,
               700.0, -700.0, 1e150, -1e150, 1e200, -1e308, math.nan]

    @pytest.mark.parametrize("loss", all_losses(), ids=lambda loss: loss.name)
    def test_bits_match_the_update_through_both_expectations(self, loss):
        model = axis_model(1.3, 0.0)
        # psi'' of conj+logistic at -1e308 is NaN, and so is inf * 0 at eta = inf
        with np.errstate(all="ignore"):
            for a in self.MARGINS:
                for b in (0.0, 1.5):
                    for eta in (0.7, 3.0, math.inf):
                        e1, e2, moved = expectation_terms(loss, a, b, model)
                        want = (*_update(a, b, e1, e2, model, eta), moved)
                        got = population_step(a, b, loss, model, eta)
                        assert repr(got) == repr(want), (a, b, eta)

    def test_b_is_returned_unchanged(self):
        for b in (0.0, 1e-300, 2.5, 1e300):
            assert population_step(0.4, b, make_loss("conj", "exp"), axis_model(1.0, 0.0),
                                   0.5)[1] == b

    @pytest.mark.parametrize("b", [-1.0, math.nan])
    def test_bad_b_is_rejected(self, b):
        with pytest.raises(ValueError, match="b must be non-negative"):
            population_step(0.4, b, make_loss("conj", "exp"), axis_model(1.0, 0.0), 0.5)

    @pytest.mark.parametrize("loss", all_losses(), ids=lambda loss: loss.name)
    def test_expectation_terms_are_point_evaluations(self, loss):
        for a in (0.0, -0.7, 2.0, 36.0):
            assert expectation_terms(loss, a, 1.0, axis_model(1.0, 0.0)) == (
                float(loss.dpsi(a)), float(loss.ddpsi(a)), 0.0)


class TestRunPopulation:
    def test_conj_square_matches_closed_form(self):
        eta, sigma, mu_norm = 1.0, 1.0, 1.0
        config = config_from_ab(1.0, 1.0, axis_model(mu_norm, sigma),
                                make_loss("conj", "square"), eta,
                                Mode.POPULATION, horizon=60)
        ratios = run_population(config).r.tolist()
        for t, r in enumerate(ratios):
            expected = conj_square_ratio_closed_form(ratios[0], eta, mu_norm, sigma, t)
            assert abs(r - expected) <= 1e-10 * abs(expected)

    def test_noiseless_orthogonal_component_is_frozen(self):
        for loss_id in (("conj", "exp"), ("hard", "logistic"), ("conj", "square")):
            config = config_from_ab(1.0, 0.7, axis_model(1.0, 0.0),
                                    make_loss(*loss_id), 0.5,
                                    Mode.POPULATION, horizon=50)
            assert run_population(config).b == pytest.approx(0.7, rel=1e-14)

    def test_hard_loss_rejected_when_noisy(self):
        config = config_from_ab(1.0, 1.0, axis_model(1.0, 0.5),
                                make_loss("hard", "square"), 0.5,
                                Mode.POPULATION, horizon=10)
        with pytest.raises(UnsupportedLossError):
            run_population(config)

    def test_population_equals_stochastic_on_noiseless_stream(self):
        """With sigma = 0 the sampled gradient is deterministic, so the two
        modes produce identical (a, b) sequences for the conjugate square loss."""
        model = axis_model(1.0, 0.0)
        loss = make_loss("conj", "square")
        pop = run_population(config_from_ab(0.5, 1.0, model, loss, 1.0,
                                            Mode.POPULATION, horizon=30))
        sto = run_stochastic(config_from_ab(0.5, 1.0, model, loss, 1.0, Mode.STOCHASTIC,
                                            horizon=30, batch_size=1))
        assert len(pop) == len(sto)
        for p, s in ((pop.a, sto.a), (pop.b, sto.b)):
            assert (abs(p - s) <= 1e-12 * np.maximum(1.0, abs(p))).all()

    def test_small_step_freezes_the_orthogonal_gap(self):
        """Hard square, sigma = 0, small step: a_bar -> 1/||mu||, b frozen, and
        the final squared cosine is (1/||mu||^2) / (1/||mu||^2 + b1^2)."""
        mu_norm, b1 = 1.7, 0.9
        model = axis_model(mu_norm, 0.0)
        config = config_from_ab(0.3 * mu_norm, b1, model,
                                make_loss("hard", "square"),
                                eta=0.5 / mu_norm**2, mode=Mode.POPULATION,
                                horizon=200)
        run = run_population(config)
        assert run.a[-1] / mu_norm == pytest.approx(1.0 / mu_norm, abs=1e-9)
        expected_cos2 = (1 / mu_norm**2) / (1 / mu_norm**2 + b1**2)
        assert run.cos[-1]**2 == pytest.approx(expected_cos2, abs=1e-9)
        assert (run.cos <= run.cos[-1] + 1e-12).all()

    def test_one_refinement_warning_per_run(self, monkeypatch):
        # one _gaussian_expectations call per step; calls 3, 4 and 9 report a
        # move past the refinement tolerance, on the real expectations
        real, calls, real_moves = dynamics._gaussian_expectations, [], []
        moves = {3: 2e-9, 4: 5e-9, 9: 1e-9}

        def fired_on_chosen_calls(loss, m, s):
            calls.append((m, s))
            e1, e2, moved = real(loss, m, s)
            real_moves.append(moved)
            return e1, e2, moves.get(len(calls), 0.0)

        monkeypatch.setattr(dynamics, "_gaussian_expectations", fired_on_chosen_calls)
        loss, model = make_loss("conj", "logistic"), axis_model(1.0, 0.8)
        config = config_from_ab(1.0, 1.0, model, loss, 0.5, Mode.POPULATION, horizon=20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = run_population(config)
        assert len(calls) == 20 and len(run) == 21 and set(real_moves) == {0.0}
        assert [w.category for w in caught] == [RuntimeWarning]
        assert str(caught[0].message) == (
            "reduced quadrature precision in a conj+logistic population run: refinement "
            "fired on 3 steps, first at t=3, largest move 5.000e-09")
        assert caught[0].filename == __file__
        # a direct call returns the move and warns nothing
        moves[1] = 3e-9
        for call in (lambda: expectation_terms(loss, 1.0, 1.0, model),
                     lambda: population_step(1.0, 1.0, loss, model, 0.5)):
            calls.clear()  # the call below is call 1 again
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert call()[2] == 3e-9
            assert len(calls) == 1

    def test_the_refinement_check_fires_on_a_grid_scale_ripple(self):
        # cos(pi (u + 36) / h) with h the cut window's spacing alternates sign on
        # its nodes: the 641-node sums cancel it, the halved grid's do not
        base, h = make_loss("conj", "exp"), 72.0 / 640
        ripple = replace(base, dpsi=lambda u: base.dpsi(u) + 1e-6 * np.cos(np.pi * (u + 36.0) / h))
        assert 9.9e-7 < _gaussian_expectations(ripple, 0.5, 10.0)[2] < 1e-6
        model = axis_model(1.0, 3.0, d=2)
        config = config_from_ab(0.5, 10.0, model, ripple, 0.5, Mode.POPULATION, horizon=20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_population(config)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert [str(w.message) for w in caught] == [
            "reduced quadrature precision in a conj+exp population run: refinement fired on "
            "20 steps, first at t=1, largest move 7.692e-07"]
        assert {w.filename for w in caught} == {__file__}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            direct = (expectation_terms(ripple, 0.5, 10.0, model)[2],
                      population_step(0.5, 10.0, ripple, model, 0.5)[2])
        assert [f"{move:.3e}" for move in direct] == ["7.692e-07"] * 2

    def test_every_step_runs_the_public_pair(self, monkeypatch):
        # the runners step through the module's public names, so a rebinding
        # (as a tracer makes) sees every step
        calls = {"expectation_terms": 0, "population_step": 0}
        for name in calls:
            def counted(*args, _real=getattr(dynamics, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(dynamics, name, counted)
        config = config_from_ab(1.0, 1.0, axis_model(1.0, 0.8), make_loss("conj", "logistic"),
                                0.5, Mode.POPULATION, horizon=25)
        run = run_population(config)
        assert len(run) == 26 and run.stop == 0
        assert calls == {"expectation_terms": 25, "population_step": 25}
        calls.update(expectation_terms=0, population_step=0)
        log_rate_check(make_loss("conj", "exp"), 1.0, 1.0, 0.5, 1.0, 40)
        assert calls == {"expectation_terms": 0, "population_step": 39}

    def test_population_overflow_flagged(self):
        config = config_from_ab(1.0, 1.0, axis_model(1.0, 0.0),
                                make_loss("conj", "square"), 100.0,
                                Mode.POPULATION, horizon=1000)
        run = run_population(config)
        assert 0 < run.stop == len(run) - 1 < 1000


class TestCrossModeWhenNoisy:
    """At sigma > 0 one sampled mean-gradient step on a large batch matches
    population_step, for the three losses population mode runs at sigma > 0."""

    @pytest.fixture(scope="class")
    def domain(self):
        model = GaussianModel(mu=np.array([0.8, -0.3, 0.5]), sigma=0.7)
        xs = sample_batch(model, [np.random.default_rng(np.random.SeedSequence(11))], 2_000_000)
        return model, np.array([0.9, 0.2, 0.4]), xs

    @pytest.mark.parametrize("family", ["square", "logistic", "exp"])
    def test_a_large_batch_step_is_the_population_step(self, domain, family):
        # each standard error is that of the batch-mean per-sample gradient
        # psi'(w^T x) x projected on mu (for a) and on w's orthogonal direction (for b)
        model, w, xs = domain
        loss, eta = make_loss("conj", family), 0.5
        a, b = split_ab(w, model)
        want = population_step(a, b, loss, model, eta)[:2]
        got = split_ab(gd_step(w, xs, loss, eta), model)
        coeff = loss.dpsi(xs @ w)
        ortho = (w - (a / model.mu_norm**2) * model.mu) / b
        for g, p, direction in zip(got, want, (model.mu, ortho)):
            se = eta * np.std(coeff * (xs @ direction), ddof=1) / math.sqrt(len(xs))
            assert abs(g - p) <= 4.0 * se, (family, g, p, se)


class TestScalarDynamic:
    """The noiseless hard-square recursion a_bar' = (1 - eta ||mu||^2) a_bar +
    eta sign(a_bar) ||mu|| in a_bar = a / ||mu||, which population_step takes
    at sigma = 0."""

    @staticmethod
    def step(a_bar, eta, mu_norm):
        """population_step at sigma = 0 in a_bar."""
        a, _, _ = population_step(a_bar * mu_norm, 1.0, make_loss("hard", "square"),
                                  axis_model(mu_norm, 0.0), eta)
        return a / mu_norm

    def test_fixed_point(self):
        for mu_norm in (1.0, 2.0):
            for eta in (0.2 / mu_norm**2, 1.0 / mu_norm**2):
                out = self.step(1.0 / mu_norm, eta, mu_norm)
                assert out == pytest.approx(1.0 / mu_norm, rel=1e-14)

    def test_halfway_value(self):
        assert self.step(0.5, 0.5, 1.0) == pytest.approx(0.75)

    def test_large_step_flips_sign_and_grows(self):
        # eta ||mu||^2 > 2 and |a_bar| above eta||mu||/(eta||mu||^2 - 2) = 3
        assert self.step(4.0, 3.0, 1.0) == -5.0
        a = 4.0
        for _ in range(20):
            nxt = self.step(a, 3.0, 1.0)
            assert abs(nxt) > abs(a)
            assert math.copysign(1, nxt) == -math.copysign(1, a)
            a = nxt

    def test_matches_population_dynamic(self):
        mu_norm = 1.3
        model = axis_model(mu_norm, 0.0)
        config = config_from_ab(0.4 * mu_norm, 1.0, model,
                                make_loss("hard", "square"), 0.3,
                                Mode.POPULATION, horizon=30)
        first, *rest = run_population(config).a.tolist()
        a_bar = first / mu_norm
        for a in rest:
            a_bar = (1.0 - 0.3 * mu_norm**2) * a_bar + 0.3 * np.sign(a_bar) * mu_norm
            assert a / mu_norm == pytest.approx(a_bar, rel=1e-12)


class TestClosedFormAndBound:
    def test_growth_factor_two(self):
        assert conj_square_ratio_closed_form(1.0, 1.0, 1.0, 0.0, 5) == 32.0
        assert conj_square_ratio_closed_form(0.7, 1.0, 1.0, 0.0, 0) == 0.7

    def test_bound_example(self):
        # ||mu||=1, r1=1, eta=1, sigma=0, eps=1/16: bound is 2 and the ratio
        # after 2 steps is 4, whose cos^2 = 16/17 >= 1 - 1/16
        assert epsilon_iteration_bound(1 / 16, 1.0, 1.0, 1.0, 0.0) == 2
        r = conj_square_ratio_closed_form(1.0, 1.0, 1.0, 0.0, 2)
        assert r == 4.0
        cos2 = 1.0 / (1.0 + 1.0 / r**2)
        assert cos2 >= 1 - 1 / 16

    def test_already_optimal_gives_zero(self):
        assert epsilon_iteration_bound(0.5, 10.0, 1.0, 1.0, 0.0) == 0

    def test_growth_that_rounds_to_one_still_gives_a_bound(self):
        # 1 + 1e-17 == 1.0, but log g = log1p(1e-17) = 1e-17
        assert epsilon_iteration_bound(0.1, 1.0, 1e-17, 1.0, 0.0) == math.ceil(
            0.5 * math.log(10.0) / 1e-17)

    def test_negative_ratio_matches_the_population_run(self):
        # a and b both scale by 1 + eta sigma^2, so a negative ratio keeps its sign
        eta, sigma, mu_norm = 0.5, 0.8, 1.5
        config = config_from_ab(-2.0, 1.0, axis_model(mu_norm, sigma),
                                make_loss("conj", "square"), eta, Mode.POPULATION, horizon=8)
        for t, r in enumerate(run_population(config).r.tolist()):
            expected = conj_square_ratio_closed_form(-2.0, eta, mu_norm, sigma, t)
            assert expected < 0
            assert abs(r - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("r1,mu_norm,t,expected", [
        (1.0, 1e100, 3, math.inf),  # mu_norm**2 is past the float range
        (1.0, 10.0, 10**6, math.inf),  # g = 101 and g^t is past the float range
        (-2.0, 10.0, 10**6, -math.inf),
        (0.0, 10.0, 10**6, 0.0),
        (0.0, 1e200, 3, 0.0),
        (0.5, 1e200, 0, 0.5),  # g = inf, but g^0 = 1
    ])
    def test_overflowing_growth_gives_a_signed_inf(self, r1, mu_norm, t, expected):
        assert conj_square_ratio_closed_form(r1, 1.0, mu_norm, 0.0, t) == expected

    def test_overflowing_sigma_squared_gives_no_growth(self):
        # eta sigma^2 = inf, so the increment is 0 and g = 1
        assert conj_square_ratio_closed_form(0.3, 1.0, 1.0, 1e200, 5) == 0.3

    def test_simulation_is_no_slower_than_bound_plus_one(self):
        for eps in (0.1, 0.01):
            for sigma in (0.0, 1.0):
                bound = epsilon_iteration_bound(eps, 0.5, 0.5, 1.0, sigma)
                config = config_from_ab(0.5, 1.0, axis_model(1.0, sigma),
                                        make_loss("conj", "square"), 0.5,
                                        Mode.POPULATION, horizon=bound + 2)
                run = run_population(config)
                optimal = is_epsilon_optimal(run.a, run.b, config.model, eps)
                first = np.flatnonzero(optimal)[0] + 1  # the first eps-optimal point's t
                assert first <= bound + 1


class TestNoiselessMonotonicity:
    @pytest.mark.parametrize("loss_id", [("hard", "exp"), ("hard", "logistic"),
                                         ("conj", "exp"), ("conj", "logistic")])
    def test_a_and_r_never_decrease(self, loss_id):
        """sigma = 0 with a start at or above the admissible threshold: both
        the along-mu component and the ratio are non-decreasing."""
        loss = make_loss(*loss_id)
        a1 = max(loss.club.a_min, 1e-3)
        config = config_from_ab(a1, 0.8, axis_model(1.0, 0.0),
                                loss, 0.7, Mode.POPULATION, horizon=500)
        run = run_population(config)
        assert np.all(np.diff(run.a) >= 0)
        assert np.all(np.diff(run.r) >= 0)


class TestRatioOrdering:
    def test_conj_exp_dominates_hard_exp_past_the_crossover(self):
        """Once -psi' of the conjugate exponential loss exceeds the hard one
        (crossover located numerically), the noiseless population iterates of
        the conjugate loss stay ahead for the whole run."""
        conj, hard = make_loss("conj", "exp"), make_loss("hard", "exp")
        gap = lambda a: float(-conj.dpsi(a)) - float(-hard.dpsi(a))
        lo, hi = 0.5, 1.0
        assert gap(lo) < 0 < gap(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gap(mid) < 0 else (lo, mid)
        crossover = hi
        assert 0.70 < crossover < 0.75

        model = axis_model(1.0, 0.0)
        a_c = a_h = crossover + 1e-3
        for _ in range(5000):
            a_c, _, _ = population_step(a_c, 1.0, conj, model, 1.0)
            a_h, _, _ = population_step(a_h, 1.0, hard, model, 1.0)
            assert a_c >= a_h


class TestSteinIdentitySmoke:
    def test_conjugate_logistic_passes(self):
        report = stein_identity_check(make_loss("conj", "logistic"),
                                      m=1.0, s=1.0, n=10**5, seed=7)
        assert report.passed

    def test_hard_losses_rejected(self):
        with pytest.raises(UnsupportedLossError):
            stein_identity_check(make_loss("hard", "exp"), 0.0, 1.0, 1000)


class TestConfigValidation:
    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError, match="eta must be positive"):
            ExperimentConfig(model=axis_model(1.0, 1.0),
                             loss=make_loss("conj", "exp"), eta=0.0,
                             mode=Mode.STOCHASTIC, horizon=5, seed=0,
                             w_init=np.array([1.0, 0.0, 0.0]))

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model=axis_model(1.0, 1.0),
                             loss=make_loss("conj", "exp"), eta=0.5,
                             mode=Mode.STOCHASTIC, horizon=5, seed=0,
                             w_init=np.array([1.0, 0.0]))
