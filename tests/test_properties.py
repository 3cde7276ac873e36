"""Invariants of the model, the losses and the dynamics, checked on drawn inputs."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ttalab import (
    ExperimentConfig,
    GaussianModel,
    Mode,
    all_losses,
    expectation_terms,
    gd_step,
    parse_config_file,
    run_population,
    run_stochastic,
    zero_one_loss,
)
from ttalab.dynamics import OVERFLOW_LIMIT, _stopped
from ttalab.model import ab_metrics, split_ab
from ttalab.serialize import _cell, config_flat, csv_with_meta_text, format_value, read_csv_with_meta

LOSSES = all_losses()
SMOOTH_LOSSES = [loss for loss in LOSSES if loss.smooth_second_derivative]

entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                    allow_subnormal=False)
sigmas = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=3.0))


@st.composite
def model_and_w(draw):
    """A model with ||mu|| >= 1e-3 and a predictor w with ||w|| >= 1e-3."""
    d = draw(st.integers(min_value=1, max_value=5))
    mu = np.array(draw(st.lists(entries, min_size=d, max_size=d)))
    w = np.array(draw(st.lists(entries, min_size=d, max_size=d)))
    assume(np.linalg.norm(mu) >= 1e-3 and np.linalg.norm(w) >= 1e-3)
    return GaussianModel(mu=mu, sigma=draw(sigmas)), w


@given(model_and_w())
def test_decomposition_splits_the_norm(case):
    model, w = case
    a, b = split_ab(w, model)
    norm2 = float(w @ w)
    assert b >= 0.0
    assert a**2 / model.mu_norm**2 + b**2 == pytest.approx(norm2, rel=1e-12)


@given(model_and_w(), st.integers(min_value=-20, max_value=20))
def test_zero_one_loss_is_a_scale_free_probability(case, k):
    model, w = case
    loss01 = zero_one_loss(model, w)
    assert 0.0 <= loss01 <= 1.0
    # a power of two scales w exactly, so the sign of <w, mu> cannot flip
    assert zero_one_loss(model, 2.0**k * w) == pytest.approx(loss01, rel=1e-12, abs=1e-12)


@settings(max_examples=60)
@given(model_and_w(), st.sampled_from(LOSSES), st.sampled_from(list(Mode)))
def test_first_point_is_the_initial_predictor(case, loss, mode):
    model, w = case
    if mode is Mode.POPULATION:
        assume(model.sigma == 0.0 or loss.smooth_second_derivative)
    config = ExperimentConfig(model=model, loss=loss, eta=0.1, mode=mode, horizon=1,
                              seed=0, w_init=w, batch_size=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run = (run_population if mode is Mode.POPULATION else run_stochastic)(config)
    a, b = split_ab(w, model)
    r, cos, _ = ab_metrics(a, b, model)
    assert len(run) == 2
    # one path from (a, b) to the metrics: equal, not merely close
    assert (run.a[0], run.b[0], run.r[0], run.cos[0]) == (a, b, r, cos)
    assert run.loss01[0] == zero_one_loss(model, w)


@settings(max_examples=60)
@given(model_and_w(), st.sampled_from(LOSSES), st.sampled_from(list(Mode)),
       st.floats(min_value=1e-300, max_value=1e300), st.integers(1, 10**6),
       st.integers(1, 10**9), st.integers(0, 2**64))
def test_config_flat_reruns_as_the_same_config(tmp_path_factory, case, loss, mode, eta,
                                               batch, horizon, seed):
    """The `#` block of a trajectory CSV is config_flat: written as a config
    file it parses back to the config of the run, every field equal."""
    model, w = case
    config = ExperimentConfig(model=model, loss=loss, eta=eta, mode=mode, horizon=horizon,
                              seed=seed, w_init=w, batch_size=batch)
    path = tmp_path_factory.getbasetemp() / "flat.json"
    path.write_text(json.dumps(config_flat(config)))
    back = parse_config_file(path)
    for f in dataclasses.fields(ExperimentConfig):
        got, want = getattr(back, f.name), getattr(config, f.name)
        if f.name == "model":
            assert (got.mu.tobytes(), got.sigma) == (want.mu.tobytes(), want.sigma)
        elif f.name == "loss":
            assert got.name == want.name
        elif f.name == "w_init":
            assert got.tobytes() == want.tobytes()
        else:
            assert got == want


margins = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


@given(st.sampled_from(LOSSES), margins)
def test_psi_is_even(loss, u):
    assert float(loss.psi(-u)) == pytest.approx(float(loss.psi(u)), rel=1e-14, abs=1e-300)


@given(st.sampled_from(LOSSES), margins)
def test_dpsi_is_the_derivative_of_psi(loss, u):
    h = 1e-5
    if not loss.smooth_second_derivative:
        assume(abs(u) >= 1e-3)  # psi' jumps at 0 for the hard rules
    slope = float(loss.psi(u + h) - loss.psi(u - h)) / (2.0 * h)
    assert float(loss.dpsi(u)) == pytest.approx(slope, rel=1e-6, abs=1e-6)


# w has no zero entry: at w = -0.0, w - eta * grad takes the sign of a zero grad
nonzero = st.one_of(st.floats(min_value=1e-3, max_value=10.0),
                    st.floats(min_value=-10.0, max_value=-1e-3))


@st.composite
def sweep_steps(draw):
    """(w, xs, eta, flip) in stochastic_sweep's shapes: w (S, K, d), xs
    (S, 1, n, d), eta (K, 1), and a mask of the rows of xs to negate."""
    s, k, n, d = (draw(st.integers(min_value=1, max_value=m)) for m in (3, 3, 4, 4))
    w = draw(hnp.arrays(np.float64, (s, k, d), elements=nonzero))
    xs = draw(hnp.arrays(np.float64, (s, 1, n, d), elements=entries))
    eta = draw(hnp.arrays(np.float64, (k, 1),
                          elements=st.floats(min_value=1e-3, max_value=100.0)))
    flip = draw(hnp.arrays(bool, (s, 1, n, 1)))
    return w, xs, eta, flip


@settings(max_examples=200)
@given(st.sampled_from(LOSSES), sweep_steps())
def test_a_step_does_not_read_a_sample_s_sign(loss, case):
    """psi' is odd bit for bit and rounding does not depend on sign, so a
    gradient step on a batch and on the batch with any rows negated gives the
    same bits: a step never reads a sample's label."""
    w, xs, eta, flip = case
    flipped = np.where(flip, -xs, xs)
    assert gd_step(w, flipped, loss, eta).tobytes() == gd_step(w, xs, loss, eta).tobytes()


@settings(max_examples=40)
@given(model_and_w(), st.sampled_from(SMOOTH_LOSSES),
       st.floats(min_value=0.01, max_value=2.0))
def test_population_orthogonal_size_contracts_by_the_curvature(case, loss, eta):
    """b_{t+1} = |1 - eta sigma^2 E[psi'']| b_t along a population run."""
    model, w = case
    config = ExperimentConfig(model=model, loss=loss, eta=eta, mode=Mode.POPULATION,
                              horizon=3, seed=0, w_init=w)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run = run_population(config)
        a, b = run.a.tolist(), run.b.tolist()
        for a_t, b_t, b_next in zip(a, b, b[1:]):
            e2 = expectation_terms(loss, a_t, b_t, model)[1]
            want = abs(1.0 - eta * model.sigma**2 * e2) * b_t
            assert b_next == pytest.approx(want, rel=1e-13) or math.isnan(want)


def two_reduction_stopped(w):
    """The sampled engine's stop rule before it took one reduction."""
    return ~((np.abs(w).max(axis=-1) <= OVERFLOW_LIMIT) & w.any(axis=-1))


# the values on the edges of each test: NaN, +-inf, +-0, subnormals and the
# neighbours of the overflow limit
_EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-309, -1e-310,
          OVERFLOW_LIMIT, -OVERFLOW_LIMIT, np.nextafter(OVERFLOW_LIMIT, math.inf),
          np.nextafter(OVERFLOW_LIMIT, -math.inf), -np.nextafter(OVERFLOW_LIMIT, math.inf),
          -np.nextafter(OVERFLOW_LIMIT, -math.inf))
iterates = hnp.arrays(np.float64, hnp.array_shapes(min_dims=3, max_dims=3, max_side=4),
                      elements=st.one_of(st.sampled_from(_EDGES), st.floats()),
                      fill=st.sampled_from((0.0, -0.0)))


@settings(max_examples=300)
@given(iterates)
@example(np.array([[[0.0, -0.0], [5e-324, -0.0]], [[math.nan, 0.0], [-math.inf, 1.0]]]))
def test_one_reduction_stop_rule_is_the_two_reduction_rule(w):
    """stochastic_sweep's stop rule on a (..., d) stack of iterates: where it
    gives a mask, its one max-reduction is the mask of max|w| <= limit and w.any()."""
    got = _stopped(w)
    if got is not None:
        assert got.shape == w.shape[:2] and got.dtype == bool
        np.testing.assert_array_equal(got, two_reduction_stopped(w))


@settings(max_examples=300)
@given(iterates)
@example(np.array([[[1.0, -2.0], [5e-324, 3.0]], [[OVERFLOW_LIMIT, -1.0], [0.5, 0.25]]]))
def test_a_stack_that_passes_the_screen_has_no_stopped_column(w):
    """_stopped returns None, and stochastic_sweep stops nothing, on a stack that
    passes its whole-stack screen, so the screen may pass only where the
    two-reduction rule finds no column to stop."""
    if _stopped(w) is None:
        assert not two_reduction_stopped(w).any()


# CSV cells of every kind the emitters write: ints, floats with their edge
# values, NumPy floats, both bool types and strings, one that reads "True"
_FLOAT_EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16)
cells = st.one_of(
    st.integers(min_value=-10**20, max_value=10**20),
    st.sampled_from(_FLOAT_EDGES), st.floats(),
    st.floats().map(np.float64),
    st.booleans(), st.booleans().map(np.bool_),
    st.sampled_from(("True", "conj+exp", "hard", "")),
)


@st.composite
def csv_tables(draw):
    """(header, rows): 1-4 columns, 0-6 rows, each column of one or mixed kinds."""
    width = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), max_size=6))
    return ",".join(f"c{i}" for i in range(width)), rows


@given(csv_tables())
@example(("c0", []))
@example(("c0", [[True], [1.0], ["True"], [np.False_]]))
def test_csv_text_is_format_value_row_by_row(table):
    """csv_with_meta_text formats by column; its data lines are the per-row
    join of format_value over each row's cells."""
    header, rows = table
    text = csv_with_meta_text(header, rows, {"k": 1})
    lines = text.split("\n")
    assert lines[-1] == "" and lines[0] == header
    body = [line for line in lines[1:-1] if not line.startswith("#")]
    assert body == [",".join(map(format_value, row)) for row in rows]


# CSV data lines: numbers mixed with the text cells the emitters write
line_cells = st.one_of(st.floats().map(repr), st.integers().map(str),
                       st.sampled_from(("true", "false", "hard", "conj+exp", "nan", "-inf",
                                        "inf", "1e-320", "-0.0", "")))


@given(st.lists(st.lists(line_cells, min_size=3, max_size=3), max_size=6))
@example([["1.0", "true", "2"], ["nan", "-inf", "1e-320"], ["", "hard", "0.5"]])
def test_csv_read_back_is_cell_by_cell(tmp_path_factory, lines):
    """read_csv_with_meta parses a line as floats at once, and falls back to
    _cell per cell: the rows are _cell's on every cell."""
    path = tmp_path_factory.getbasetemp() / "read_back.csv"
    path.write_text("a,b,c\n# k = 1\n" + "".join(",".join(line) + "\n" for line in lines))
    _, rows, _ = read_csv_with_meta(path)
    assert [list(map(repr, row)) for row in rows] == [[repr(_cell(c)) for c in line]
                                                       for line in lines]
